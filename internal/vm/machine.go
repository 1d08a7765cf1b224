package vm

import (
	"cmp"
	"fmt"
	"math"
)

// Limits bounds one MVM invocation. Together with Verify, these are the
// MVM's analogue of the Java SecurityManager policies of section 3.9.3:
// shipped code cannot touch the file system or network (no such opcodes
// exist), cannot run forever (fuel), cannot blow the stack (depth limits)
// and cannot exhaust memory (allocation budget).
type Limits struct {
	// MaxFuel is the maximum number of instructions per invocation.
	MaxFuel int64
	// MaxStack is the maximum operand stack depth.
	MaxStack int
	// MaxCallDepth is the maximum function call nesting.
	MaxCallDepth int
	// MaxAlloc is the maximum bytes allocatable via bnew per invocation.
	MaxAlloc int64
}

// DefaultLimits are generous enough for per-tuple operators over megabyte
// rasters while still bounding runaway code.
var DefaultLimits = Limits{
	MaxFuel:      4_000_000_000,
	MaxStack:     4096,
	MaxCallDepth: 64,
	MaxAlloc:     256 << 20,
}

// withDefaults replaces zero-valued fields by DefaultLimits.
func (l Limits) withDefaults() Limits {
	return Limits{
		MaxFuel:      cmp.Or(l.MaxFuel, DefaultLimits.MaxFuel),
		MaxStack:     cmp.Or(l.MaxStack, DefaultLimits.MaxStack),
		MaxCallDepth: cmp.Or(l.MaxCallDepth, DefaultLimits.MaxCallDepth),
		MaxAlloc:     cmp.Or(l.MaxAlloc, DefaultLimits.MaxAlloc),
	}
}

// LimitError reports a verified program whose static resource bound
// exceeds what a machine allows. Stack depth and call nesting are proven
// at verification time, so a site rejects such a class when it is
// loaded instead of discovering the overrun while a query runs.
type LimitError struct {
	Program string
	Limit   string // "MaxStack" or "MaxCallDepth"
	Need    int    // the program's static bound
	Max     int    // the machine's limit
}

func (e *LimitError) Error() string {
	what := "operand stack depth"
	if e.Limit == "MaxCallDepth" {
		what = "call depth"
	}
	return fmt.Sprintf("vm: program %q needs %s %d, machine limit %s is %d", e.Program, what, e.Need, e.Limit, e.Max)
}

// Admit reports whether machines with these limits (zero fields mean
// DefaultLimits) can run p: an unverified program is refused outright,
// one whose static bounds do not fit with a *LimitError.
func (l Limits) Admit(p *Program) error {
	info := p.verified
	if info == nil {
		return fmt.Errorf("vm: program %q is not verified", p.Name)
	}
	l = l.withDefaults()
	if info.MaxStack > l.MaxStack {
		return &LimitError{Program: p.Name, Limit: "MaxStack", Need: info.MaxStack, Max: l.MaxStack}
	}
	if info.CallDepth > l.MaxCallDepth {
		return &LimitError{Program: p.Name, Limit: "MaxCallDepth", Need: info.CallDepth, Max: l.MaxCallDepth}
	}
	return nil
}

// TrapKind classifies a runtime fault, so callers (and the soundness
// fuzzer) can distinguish faults the static verifier rules out from
// faults that are inherently dynamic.
type TrapKind uint8

const (
	// TrapGeneric is an unclassified fault.
	TrapGeneric TrapKind = iota
	// TrapStack is an operand-stack underflow or execution falling off
	// the end of a function's code. The dataflow verifier proves these
	// impossible: a verified program must never raise one.
	TrapStack
	// TrapType is a value-kind mismatch (e.g. addi on a float). The
	// verifier rejects statically provable mismatches; mismatches routed
	// through dynamically-kinded values (args, globals) remain runtime
	// faults.
	TrapType
	// TrapBounds is a byte-buffer access outside the buffer, or a store
	// into a read-only buffer — inherently data-dependent.
	TrapBounds
	// TrapMath is a numeric domain fault: divide by zero, log of a
	// non-positive, sqrt of a negative.
	TrapMath
	// TrapResource is a sandbox limit: fuel or allocation budget
	// exhausted.
	TrapResource
)

func (k TrapKind) String() string {
	names := [...]string{"generic", "stack", "type", "bounds", "math", "resource"}
	return names[int(k)%len(names)]
}

// Trap is a runtime fault raised by executing MVM code.
type Trap struct {
	Func string
	PC   int
	Kind TrapKind
	Msg  string
}

func (t *Trap) Error() string {
	return fmt.Sprintf("vm trap in %s at pc=%d: %s", t.Func, t.PC, t.Msg)
}

// Machine executes verified MVM programs in their compiled form (see
// compile.go). A Machine is not safe for concurrent use; each executor
// goroutine owns one. It owns the register files every frame of an
// invocation takes its window from, so running allocates nothing.
type Machine struct {
	limits Limits

	rs []int64 // scalar register arena: ints, bools and float bits
	vs []Value // boxed register arena: bytes, strings, dynamically kinded
	r  []int64 // the running frame's windows into rs and vs
	v  []Value
	g  []Value // globals of the running invocation

	tmp   Value // where gstore computes what it stores
	fuel  int64 // instructions left, charged a basic block at a time
	alloc int64 // bnew bytes so far
	// limit is the index, in the running function, of the instruction
	// that finds the fuel gone; past every index until the last block.
	limit int

	// Instrs accumulates bytecode instructions executed across
	// invocations, whichever way each one ended.
	Instrs int64
	// LastRunInstrs is the number of bytecode instructions the most
	// recent invocation executed, set on every exit — normal return and
	// trap alike — and equal to what the reference interpreter counts.
	// FuzzCostSound compares it against the verifier's static budget.
	LastRunInstrs int64
	// FastRuns counts invocations. CheckedRuns is the retired second
	// interpreter's counter and stays zero.
	FastRuns    int64
	CheckedRuns int64
}

// New returns a machine with the given limits. Zero-valued limit fields
// are replaced by DefaultLimits.
func New(limits Limits) *Machine { return &Machine{limits: limits.withDefaults()} }

// Run executes function fnIdx of the program with the given arguments.
// globals carries aggregate state across invocations; pass nil for
// stateless scalar functions. It returns the function's result value.
//
// The program must be verified and its static bounds must fit this
// machine's limits (Limits.Admit); it is compiled on first use.
func (m *Machine) Run(p *Program, fnIdx int, globals []Value, args []Value) (ret Value, err error) {
	if fnIdx < 0 || fnIdx >= len(p.Funcs) {
		return Value{}, fmt.Errorf("vm: function index %d out of range", fnIdx)
	}
	entry := &p.Funcs[fnIdx]
	if len(args) != entry.NArgs {
		return Value{}, fmt.Errorf("vm: %s.%s expects %d args, got %d", p.Name, entry.Name, entry.NArgs, len(args))
	}
	if p.NGlobals > 0 && len(globals) != p.NGlobals {
		return Value{}, fmt.Errorf("vm: %s needs %d globals, got %d", p.Name, p.NGlobals, len(globals))
	}
	info := p.verified // Admit's conditions, without its work, on the per-tuple path
	if info == nil || info.MaxStack > m.limits.MaxStack || info.CallDepth > m.limits.MaxCallDepth {
		return Value{}, m.limits.Admit(p)
	}
	code := info.code(p)
	fn := &code.funcs[fnIdx]
	if len(m.rs) < code.regs {
		m.rs, m.vs = make([]int64, code.regs), make([]Value, code.regs)
	}
	m.FastRuns++
	m.g, m.fuel, m.alloc, m.limit = globals, m.limits.MaxFuel, 0, math.MaxInt
	m.enter(fn, m.rs, m.vs)
	copy(m.v, args)

	defer func() {
		if r := recover(); r != nil {
			t, ok := r.(*Trap)
			if !ok {
				panic(r)
			}
			ret, err = Value{}, t
		}
		m.Instrs += m.LastRunInstrs
	}()
	m.exec(fn)
	m.LastRunInstrs = m.limits.MaxFuel - m.fuel
	return m.v[0], nil
}

// box is boxed register n of the running frame, or global n.
func (m *Machine) box(n int, global bool) *Value {
	if global {
		return &m.g[n]
	}
	return &m.v[n]
}

// enter makes the first fn.size registers of r and v, and one more, the
// running frame and zeroes its locals (a local reads as int 0 until
// stored).
func (m *Machine) enter(fn *cfunc, r []int64, v []Value) {
	m.r, m.v = r[:fn.size+1], v[:fn.size+1]
	clear(m.r[fn.nargs : fn.nargs+fn.nlocals])
	clear(m.v[fn.nargs : fn.nargs+fn.nlocals])
}

// exec runs one compiled function in the current frame. Fuel is charged
// for a whole block on entry; a block the remaining fuel cannot cover
// is the invocation's last and goes to exhaust. A loop runs in place.
func (m *Machine) exec(fn *cfunc) {
	for b := fn.blocks[0]; b != nil; {
		if l := b.loop; l != nil && m.fuel >= l.n {
			b = m.iterate(b, l)
			continue
		}
		if m.fuel -= b.n; m.fuel < 0 {
			m.exhaust(fn, b)
		}
		for _, s := range b.stmts {
			s(m)
		}
		if b.cond == nil || b.cond(m) {
			b = b.to
		} else {
			b = b.alt
		}
	}
}

// iterate runs loop l, body b: its kernel, then whole iterations — the
// body's n charged, its statements, the header's n, the test — while the
// fuel covers one. It returns the exit, or b when the fuel falls short:
// exec runs b and its header as blocks, and exhaust finds the limit.
func (m *Machine) iterate(b *block, l *loop) *block {
	if l.kernel != nil && l.kernel.run(m, l) {
		return l.exit
	}
	for m.fuel >= l.n {
		m.fuel -= b.n
		for _, s := range b.stmts {
			s(m)
		}
		m.fuel -= l.hn
		if l.test(m) != l.back {
			return l.exit
		}
	}
	return b
}

// exhaust runs the block the fuel runs out in. With limit set, every
// trap site and every instruction with an effect outside the register
// files compares its own index against it: what the reference
// interpreter would still have reached behaves as always, the first
// thing at or past the limit raises the fuel trap instead.
func (m *Machine) exhaust(fn *cfunc, b *block) {
	m.limit = b.first + int(m.fuel+b.n)
	for _, s := range b.stmts {
		s(m)
	}
	if b.cond != nil {
		b.cond(m)
	}
	site{fn, m.limit}.trap(m, TrapResource, "")
}

// site is a place in compiled code that can trap: instruction idx of fn.
type site struct {
	fn  *cfunc
	idx int
}

// trap ends the invocation with a Trap at the site, or with the fuel
// trap when the site lies at or past the machine's fuel limit. The
// block's fuel was charged up front, so the instructions after the site
// are taken off again: LastRunInstrs counts up to and including it.
func (s site) trap(m *Machine, kind TrapKind, msg string) {
	idx := s.idx
	if idx >= m.limit {
		idx, kind, msg = m.limit, TrapResource, "fuel exhausted"
		m.LastRunInstrs = m.limits.MaxFuel
	} else {
		m.LastRunInstrs = m.limits.MaxFuel - m.fuel - int64(s.fn.bend[idx]-int32(idx)-1)
	}
	panic(&Trap{Func: s.fn.name, PC: int(s.fn.offs[idx]), Kind: kind, Msg: msg})
}

// live is called by an instruction about to change state outside the
// register files (globals, byte buffers, a callee's frame): past the
// fuel limit it must not happen.
func (s site) live(m *Machine) {
	if m.limit <= s.idx {
		s.trap(m, TrapResource, "")
	}
}
