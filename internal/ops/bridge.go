package ops

import (
	"fmt"

	"mocha/internal/types"
	"mocha/internal/vm"
)

// Who owns the bytes. A large object's payload is shared, never copied,
// on its way into an operator: ToVM hands the MVM the payload itself
// (read-only), and a result may alias its argument's bytes (bslice). An
// argument decoded off the wire or off a page is in turn a window into
// its frame or record (types.DecodeValue), which is fresh per frame and
// never written again — so a value, and anything computed from it, lives
// as long as its frame stays reachable, and an operator that keeps rows
// past their batch detaches them (the exec package comment says who and
// how). On the way out there are two cases, told apart by Value.W:
//
//   - A scalar's writable result is handed over, not copied (adopt).
//     W marks a buffer a bnew of this very invocation made, or a bslice
//     of one: arguments and constants are read-only, Scalar.Call clears
//     the globals before every call, and a verified program cannot read
//     a register it has not written — so once Run returns nothing can
//     reach the buffer again, and the caller is its only owner.
//   - Everything else keeps FromVM's copy (types.FromPayload): an
//     aggregate's Summarize, whose program may go on writing a buffer it
//     keeps in a global; a read-only result, which aliases an argument
//     or a constant somebody else owns; and every caller outside this
//     package.

// ToVM converts a middleware object into an MVM value. Scalars map to VM
// scalars; spatial and large objects enter the VM as their raw wire
// payload bytes, which is exactly what the byte-level MVM instructions
// operate on.
func ToVM(o types.Object) vm.Value {
	switch v := o.(type) {
	case types.Null:
		return vm.IntVal(0)
	case types.Bool:
		return vm.BoolVal(bool(v))
	case types.Int:
		return vm.IntVal(int64(v))
	case types.Double:
		return vm.FloatVal(float64(v))
	case types.String_:
		return vm.StrVal(string(v))
	case types.Bytes:
		return vm.BytesVal(v)
	case types.Large:
		return vm.BytesVal(v.Payload())
	default:
		// Point and Rectangle are small but byte-addressable in the VM.
		return vm.BytesVal(o.AppendTo(nil))
	}
}

// FromVM converts an MVM result value back into a middleware object of
// the declared kind; a large one is a copy.
func FromVM(v vm.Value, k types.Kind) (types.Object, error) { return fromVM(v, k, false) }

// fromVM is FromVM; a caller that owns whatever writable buffer v holds
// (the rule above) gets that buffer, validated, instead of a copy of it.
func fromVM(v vm.Value, k types.Kind, owned bool) (types.Object, error) {
	switch k {
	case types.KindBool:
		if v.K != vm.VBool {
			return nil, fmt.Errorf("ops: operator returned %v, want bool", v.K)
		}
		return types.Bool(v.Bool()), nil
	case types.KindInt:
		if v.K != vm.VInt {
			return nil, fmt.Errorf("ops: operator returned %v, want int", v.K)
		}
		return types.Int(int32(v.I)), nil
	case types.KindDouble:
		switch v.K {
		case vm.VFloat:
			return types.Double(v.F), nil
		case vm.VInt:
			return types.Double(v.I), nil
		}
		return nil, fmt.Errorf("ops: operator returned %v, want double", v.K)
	case types.KindString:
		if v.K != vm.VStr {
			return nil, fmt.Errorf("ops: operator returned %v, want string", v.K)
		}
		return types.String_(v.S), nil
	case types.KindBytes:
		if v.K != vm.VBytes {
			return nil, fmt.Errorf("ops: operator returned %v, want bytes", v.K)
		}
		return types.Bytes(v.B), nil
	case types.KindPoint, types.KindRectangle, types.KindPolygon, types.KindGraph, types.KindRaster:
		if v.K != vm.VBytes {
			return nil, fmt.Errorf("ops: operator returned %v, want %v payload", v.K, k)
		}
		if owned && v.W {
			return adopt(k, v.B)
		}
		return types.FromPayload(k, v.B)
	}
	return nil, fmt.Errorf("ops: cannot convert VM result to %v", k)
}

// adopt is types.FromPayload without the copy, for a scalar's writable
// result (the rule above): validated where it lies, then handed over.
func adopt(k types.Kind, payload []byte) (types.Object, error) {
	o, n, err := types.DecodeValue(k, payload)
	if err != nil {
		return nil, err
	}
	if n != len(payload) {
		return nil, fmt.Errorf("ops: %v payload has %d trailing bytes", k, len(payload)-n)
	}
	return o, nil
}

// toVMArgs converts one tuple's argument values into buf, growing it only
// when the tuple has more arguments than any before.
func toVMArgs(buf []vm.Value, args []types.Object) []vm.Value {
	buf = buf[:0]
	for _, a := range args {
		buf = append(buf, ToVM(a))
	}
	return buf
}

// Scalar is an executable scalar operator instance bound to either its
// native implementation or a loaded MVM program. A DAP, which only has
// the shipped bytecode, always uses the VM path; a QPC holding the full
// library may use either.
type Scalar struct {
	name    string
	ret     types.Kind
	native  NativeFunc
	machine *vm.Machine
	prog    *vm.Program
	evalIdx int
	// args and globals are reused from call to call: a Scalar serves one
	// goroutine, like the Machine it holds. Only the slices are reused,
	// never a payload — a result may alias its argument's bytes.
	args, globals []vm.Value
}

// NewNativeScalar binds a definition's native implementation.
func NewNativeScalar(d *Def) (*Scalar, error) {
	if d.Native == nil {
		return nil, fmt.Errorf("ops: operator %s has no native implementation", d.Name)
	}
	return &Scalar{name: d.Name, ret: d.Ret, native: d.Native}, nil
}

// NewVMScalar binds a (possibly remotely received) MVM program as a
// scalar operator returning values of kind ret. The program must already
// be verified.
func NewVMScalar(m *vm.Machine, p *vm.Program, ret types.Kind) (*Scalar, error) {
	idx := p.FuncIndex("eval")
	if idx < 0 {
		return nil, fmt.Errorf("ops: program %s has no eval function", p.Name)
	}
	return &Scalar{name: p.Name, ret: ret, machine: m, prog: p, evalIdx: idx,
		globals: make([]vm.Value, p.NGlobals)}, nil
}

// Name returns the operator name.
func (s *Scalar) Name() string { return s.name }

// Call evaluates the operator on one tuple's argument values.
func (s *Scalar) Call(args []types.Object) (types.Object, error) {
	if s.native != nil {
		return s.native(args)
	}
	s.args = toVMArgs(s.args, args)
	clear(s.globals) // a scalar keeps no state between tuples
	v, err := s.machine.Run(s.prog, s.evalIdx, s.globals, s.args)
	if err != nil {
		return nil, fmt.Errorf("ops: %s: %w", s.name, err)
	}
	return fromVM(v, s.ret, true)
}

// Aggregate is an executable aggregate operator instance. Each group in a
// GROUP BY gets its own instance (or a Reset between groups).
type Aggregate struct {
	name   string
	ret    types.Kind
	native NativeAggregate

	machine                           *vm.Machine
	prog                              *vm.Program
	globals                           []vm.Value
	args                              []vm.Value // Update's scratch, as Scalar.args
	resetIdx, updateIdx, summarizeIdx int
}

// NewNativeAggregate binds a definition's native aggregate.
func NewNativeAggregate(d *Def) (*Aggregate, error) {
	if d.NewNativeAgg == nil {
		return nil, fmt.Errorf("ops: aggregate %s has no native implementation", d.Name)
	}
	return &Aggregate{name: d.Name, ret: d.Ret, native: d.NewNativeAgg()}, nil
}

// NewVMAggregate binds a (possibly remotely received) MVM program as an
// aggregate. The program must already be verified.
func NewVMAggregate(m *vm.Machine, p *vm.Program, ret types.Kind) (*Aggregate, error) {
	a := &Aggregate{
		name: p.Name, ret: ret, machine: m, prog: p,
		resetIdx:     p.FuncIndex("reset"),
		updateIdx:    p.FuncIndex("update"),
		summarizeIdx: p.FuncIndex("summarize"),
		globals:      make([]vm.Value, p.NGlobals),
	}
	if a.resetIdx < 0 || a.updateIdx < 0 || a.summarizeIdx < 0 {
		return nil, fmt.Errorf("ops: program %s does not implement the aggregate protocol", p.Name)
	}
	return a, nil
}

// Name returns the aggregate name.
func (a *Aggregate) Name() string { return a.name }

// Reset clears accumulated state.
func (a *Aggregate) Reset() error {
	if a.native != nil {
		a.native.Reset()
		return nil
	}
	_, err := a.machine.Run(a.prog, a.resetIdx, a.globals, nil)
	return err
}

// Update folds one tuple's argument values into the state.
func (a *Aggregate) Update(args []types.Object) error {
	if a.native != nil {
		return a.native.Update(args)
	}
	a.args = toVMArgs(a.args, args)
	_, err := a.machine.Run(a.prog, a.updateIdx, a.globals, a.args)
	return err
}

// Summarize produces the aggregate value.
func (a *Aggregate) Summarize() (types.Object, error) {
	if a.native != nil {
		return a.native.Summarize()
	}
	v, err := a.machine.Run(a.prog, a.summarizeIdx, a.globals, nil)
	if err != nil {
		return nil, err
	}
	return FromVM(v, a.ret)
}
