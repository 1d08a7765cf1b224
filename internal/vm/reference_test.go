package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// This file is the MVM's reference semantics: a plain, fully-checked
// stack interpreter over raw bytecode. It never ships — the compiled
// engine (compile.go) is the only thing non-test code can run — and
// exists so every differential test and both fuzz targets have an
// independent oracle: same value, same error text, same globals, same
// LastRunInstrs.

// refMachine is the reference interpreter's state: limits, the operand
// stack, and the instruction count of the last run.
type refMachine struct {
	limits        Limits
	stack         []Value
	LastRunInstrs int64
}

func newRef(limits Limits) *refMachine { return &refMachine{limits: limits.withDefaults()} }

type refFrame struct {
	fn     *Func
	pc     int
	base   int // operand stack base for this frame
	locals []Value
	args   []Value
}

// run executes function fnIdx one instruction at a time, validating
// operand-stack depth and value kinds before every action. It accepts
// unverified programs too, which is how the verifier's own soundness
// (no stack trap after Verify) is fuzzed.
func (m *refMachine) run(p *Program, fnIdx int, globals []Value, args []Value) (Value, error) {
	entry := &p.Funcs[fnIdx]
	fuel := m.limits.MaxFuel
	var allocUsed int64
	m.stack = m.stack[:0]
	frames := make([]refFrame, 1, 8)
	frames[0] = refFrame{fn: entry, locals: make([]Value, entry.NLocals), args: args}

	trap := func(kind TrapKind, msg string) (Value, error) {
		if m.LastRunInstrs = m.limits.MaxFuel - fuel; fuel < 0 {
			m.LastRunInstrs = m.limits.MaxFuel
		}
		f := &frames[len(frames)-1]
		return Value{}, &Trap{Func: f.fn.Name, PC: f.pc, Kind: kind, Msg: msg}
	}

	push := func(v Value) bool {
		if len(m.stack) >= m.limits.MaxStack {
			return false
		}
		m.stack = append(m.stack, v)
		return true
	}

	for {
		f := &frames[len(frames)-1]
		code := f.fn.Code
		if f.pc >= len(code) {
			return trap(TrapStack, "fell off end of code")
		}
		if fuel--; fuel < 0 {
			return trap(TrapResource, "fuel exhausted")
		}
		op := Op(code[f.pc])
		var operand int
		npc := f.pc + 1
		if op.HasOperand() {
			operand = int(int32(binary.BigEndian.Uint32(code[f.pc+1:])))
			npc = f.pc + 5
		}
		sp := len(m.stack)

		switch op {
		case OpNop:

		case OpRet:
			var ret Value
			if sp > f.base {
				ret = m.stack[sp-1]
			}
			m.stack = m.stack[:f.base]
			frames = frames[:len(frames)-1]
			if len(frames) == 0 {
				m.LastRunInstrs = m.limits.MaxFuel - fuel
				return ret, nil
			}
			if !push(ret) {
				return trap(TrapResource, "stack overflow on return")
			}
			continue

		case OpPop:
			if sp < 1 {
				return trap(TrapStack, "pop on empty stack")
			}
			m.stack = m.stack[:sp-1]

		case OpDup:
			if sp < 1 {
				return trap(TrapStack, "dup on empty stack")
			}
			if !push(m.stack[sp-1]) {
				return trap(TrapResource, "stack overflow")
			}

		case OpSwap:
			if sp < 2 {
				return trap(TrapStack, "swap needs two values")
			}
			m.stack[sp-1], m.stack[sp-2] = m.stack[sp-2], m.stack[sp-1]

		case OpConst:
			if !push(p.Consts[operand]) {
				return trap(TrapResource, "stack overflow")
			}

		case OpPushI:
			if !push(IntVal(int64(operand))) {
				return trap(TrapResource, "stack overflow")
			}

		case OpArg:
			if !push(f.args[operand]) {
				return trap(TrapResource, "stack overflow")
			}

		case OpLoad:
			if !push(f.locals[operand]) {
				return trap(TrapResource, "stack overflow")
			}

		case OpStore:
			if sp < 1 {
				return trap(TrapStack, "store on empty stack")
			}
			f.locals[operand] = m.stack[sp-1]
			m.stack = m.stack[:sp-1]

		case OpGLoad:
			if !push(globals[operand]) {
				return trap(TrapResource, "stack overflow")
			}

		case OpGStore:
			if sp < 1 {
				return trap(TrapStack, "gstore on empty stack")
			}
			globals[operand] = m.stack[sp-1]
			m.stack = m.stack[:sp-1]

		case OpAddI, OpSubI, OpMulI, OpDivI, OpModI:
			if sp < 2 {
				return trap(TrapStack, "integer op needs two values")
			}
			a, b := m.stack[sp-2], m.stack[sp-1]
			if a.K != VInt || b.K != VInt {
				return trap(TrapType, fmt.Sprintf("%v needs ints, got %v and %v", op, a.K, b.K))
			}
			var r int64
			switch op {
			case OpAddI:
				r = a.I + b.I
			case OpSubI:
				r = a.I - b.I
			case OpMulI:
				r = a.I * b.I
			case OpDivI:
				if b.I == 0 {
					return trap(TrapMath, "integer divide by zero")
				}
				r = a.I / b.I
			case OpModI:
				if b.I == 0 {
					return trap(TrapMath, "integer modulo by zero")
				}
				r = a.I % b.I
			}
			m.stack = m.stack[:sp-1]
			m.stack[sp-2] = IntVal(r)

		case OpNegI:
			if sp < 1 {
				return trap(TrapStack, "negi on empty stack")
			}
			if m.stack[sp-1].K != VInt {
				return trap(TrapType, "negi needs an int")
			}
			m.stack[sp-1].I = -m.stack[sp-1].I

		case OpAddF, OpSubF, OpMulF, OpDivF:
			if sp < 2 {
				return trap(TrapStack, "float op needs two values")
			}
			a, b := m.stack[sp-2], m.stack[sp-1]
			if a.K != VFloat || b.K != VFloat {
				return trap(TrapType, fmt.Sprintf("%v needs floats, got %v and %v", op, a.K, b.K))
			}
			var r float64
			switch op {
			case OpAddF:
				r = a.F + b.F
			case OpSubF:
				r = a.F - b.F
			case OpMulF:
				r = a.F * b.F
			case OpDivF:
				r = a.F / b.F
			}
			m.stack = m.stack[:sp-1]
			m.stack[sp-2] = FloatVal(r)

		case OpNegF:
			if sp < 1 {
				return trap(TrapStack, "negf on empty stack")
			}
			if m.stack[sp-1].K != VFloat {
				return trap(TrapType, "negf needs a float")
			}
			m.stack[sp-1].F = -m.stack[sp-1].F

		case OpI2F:
			if sp < 1 {
				return trap(TrapStack, "i2f on empty stack")
			}
			if m.stack[sp-1].K != VInt {
				return trap(TrapType, "i2f needs an int")
			}
			m.stack[sp-1] = FloatVal(float64(m.stack[sp-1].I))

		case OpF2I:
			if sp < 1 {
				return trap(TrapStack, "f2i on empty stack")
			}
			if m.stack[sp-1].K != VFloat {
				return trap(TrapType, "f2i needs a float")
			}
			m.stack[sp-1] = IntVal(int64(m.stack[sp-1].F))

		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			if sp < 2 {
				return trap(TrapStack, "comparison needs two values")
			}
			a, b := m.stack[sp-2], m.stack[sp-1]
			res, err := compare(op, a, b)
			if err != nil {
				return trap(TrapType, err.Error())
			}
			m.stack = m.stack[:sp-1]
			m.stack[sp-2] = BoolVal(res)

		case OpAnd, OpOr:
			if sp < 2 {
				return trap(TrapStack, "logic op needs two values")
			}
			a, b := m.stack[sp-2], m.stack[sp-1]
			if a.K != VBool || b.K != VBool {
				return trap(TrapType, "logic op needs bools")
			}
			var r bool
			if op == OpAnd {
				r = a.Bool() && b.Bool()
			} else {
				r = a.Bool() || b.Bool()
			}
			m.stack = m.stack[:sp-1]
			m.stack[sp-2] = BoolVal(r)

		case OpNot:
			if sp < 1 {
				return trap(TrapStack, "not on empty stack")
			}
			if m.stack[sp-1].K != VBool {
				return trap(TrapType, "not needs a bool")
			}
			m.stack[sp-1] = BoolVal(!m.stack[sp-1].Bool())

		case OpJmp:
			f.pc = operand
			continue

		case OpJz, OpJnz:
			if sp < 1 {
				return trap(TrapStack, "conditional jump on empty stack")
			}
			if m.stack[sp-1].K != VBool {
				return trap(TrapType, "conditional jump needs a bool")
			}
			cond := m.stack[sp-1].Bool()
			m.stack = m.stack[:sp-1]
			if (op == OpJz && !cond) || (op == OpJnz && cond) {
				f.pc = operand
				continue
			}

		case OpCall:
			if len(frames) >= m.limits.MaxCallDepth {
				return trap(TrapResource, "call depth exceeded")
			}
			callee := &p.Funcs[operand]
			if sp < callee.NArgs {
				return trap(TrapStack, fmt.Sprintf("call to %s needs %d args, stack has %d", callee.Name, callee.NArgs, sp))
			}
			callArgs := make([]Value, callee.NArgs)
			copy(callArgs, m.stack[sp-callee.NArgs:])
			m.stack = m.stack[:sp-callee.NArgs]
			f.pc = npc
			frames = append(frames, refFrame{
				fn:     callee,
				base:   len(m.stack),
				locals: make([]Value, callee.NLocals),
				args:   callArgs,
			})
			continue

		case OpBLen:
			if sp < 1 {
				return trap(TrapStack, "blen on empty stack")
			}
			if m.stack[sp-1].K != VBytes {
				return trap(TrapType, "blen needs bytes")
			}
			m.stack[sp-1] = IntVal(int64(len(m.stack[sp-1].B)))

		case OpLdU8, OpLdI32, OpLdF32, OpLdF64:
			if sp < 2 {
				return trap(TrapStack, "byte load needs buffer and offset")
			}
			buf, off := m.stack[sp-2], m.stack[sp-1]
			if buf.K != VBytes || off.K != VInt {
				return trap(TrapType, "byte load needs (bytes, int)")
			}
			var width int64
			switch op {
			case OpLdU8:
				width = 1
			case OpLdI32, OpLdF32:
				width = 4
			case OpLdF64:
				width = 8
			}
			if off.I < 0 || off.I > int64(len(buf.B))-width {
				return trap(TrapBounds, fmt.Sprintf("byte load at %d width %d out of bounds (%d)", off.I, width, len(buf.B)))
			}
			var v Value
			switch op {
			case OpLdU8:
				v = IntVal(int64(buf.B[off.I]))
			case OpLdI32:
				v = IntVal(int64(int32(binary.BigEndian.Uint32(buf.B[off.I:]))))
			case OpLdF32:
				v = FloatVal(float64(math.Float32frombits(binary.BigEndian.Uint32(buf.B[off.I:]))))
			case OpLdF64:
				v = FloatVal(math.Float64frombits(binary.BigEndian.Uint64(buf.B[off.I:])))
			}
			m.stack = m.stack[:sp-1]
			m.stack[sp-2] = v

		case OpBNew:
			if sp < 1 {
				return trap(TrapStack, "bnew on empty stack")
			}
			if m.stack[sp-1].K != VInt {
				return trap(TrapType, "bnew needs an int size")
			}
			size := m.stack[sp-1].I
			if size < 0 {
				return trap(TrapBounds, "bnew with negative size")
			}
			if size > m.limits.MaxAlloc-allocUsed {
				return trap(TrapResource, "allocation budget exhausted")
			}
			allocUsed += size
			v := BytesVal(make([]byte, size))
			v.W = true
			m.stack[sp-1] = v

		case OpStU8, OpStI32, OpStF32:
			if sp < 3 {
				return trap(TrapStack, "byte store needs buffer, offset and value")
			}
			buf, off, val := m.stack[sp-3], m.stack[sp-2], m.stack[sp-1]
			if buf.K != VBytes || off.K != VInt {
				return trap(TrapType, "byte store needs (bytes, int, value)")
			}
			if !buf.W {
				return trap(TrapBounds, "store into read-only buffer")
			}
			var width int64 = 4
			if op == OpStU8 {
				width = 1
			}
			if off.I < 0 || off.I > int64(len(buf.B))-width {
				return trap(TrapBounds, fmt.Sprintf("byte store at %d out of bounds (%d)", off.I, len(buf.B)))
			}
			switch op {
			case OpStU8:
				if val.K != VInt {
					return trap(TrapType, "stu8 needs an int value")
				}
				buf.B[off.I] = byte(val.I)
			case OpStI32:
				if val.K != VInt {
					return trap(TrapType, "sti32 needs an int value")
				}
				binary.BigEndian.PutUint32(buf.B[off.I:], uint32(int32(val.I)))
			case OpStF32:
				if val.K != VFloat {
					return trap(TrapType, "stf32 needs a float value")
				}
				binary.BigEndian.PutUint32(buf.B[off.I:], math.Float32bits(float32(val.F)))
			}
			m.stack = m.stack[:sp-2]

		case OpBSlice:
			if sp < 3 {
				return trap(TrapStack, "bslice needs buffer, start and end")
			}
			buf, start, end := m.stack[sp-3], m.stack[sp-2], m.stack[sp-1]
			if buf.K != VBytes || start.K != VInt || end.K != VInt {
				return trap(TrapType, "bslice needs (bytes, int, int)")
			}
			if start.I < 0 || end.I < start.I || end.I > int64(len(buf.B)) {
				return trap(TrapBounds, fmt.Sprintf("bslice [%d:%d] out of bounds (%d)", start.I, end.I, len(buf.B)))
			}
			v := BytesVal(buf.B[start.I:end.I])
			v.W = buf.W
			m.stack = m.stack[:sp-2]
			m.stack[sp-3] = v

		case OpBCopy:
			if sp < 5 {
				return trap(TrapStack, "bcopy needs two buffers, two offsets and a length")
			}
			dst, doff, src, soff, n := m.stack[sp-5], m.stack[sp-4], m.stack[sp-3], m.stack[sp-2], m.stack[sp-1]
			if dst.K != VBytes || doff.K != VInt || src.K != VBytes || soff.K != VInt || n.K != VInt {
				return trap(TrapType, "bcopy needs (bytes, int, bytes, int, int)")
			}
			if !dst.W {
				return trap(TrapBounds, "store into read-only buffer")
			}
			if n.I < 0 || doff.I < 0 || doff.I > int64(len(dst.B))-n.I || soff.I < 0 || soff.I > int64(len(src.B))-n.I {
				return trap(TrapBounds, fmt.Sprintf("bcopy of %d bytes from %d (%d) to %d (%d) out of bounds",
					n.I, soff.I, len(src.B), doff.I, len(dst.B)))
			}
			if fuel -= n.I >> 3; fuel < 0 { // a unit per 8 bytes, before any moves
				return trap(TrapResource, "fuel exhausted")
			}
			copy(dst.B[doff.I:doff.I+n.I], src.B[soff.I:soff.I+n.I])
			m.stack = m.stack[:sp-4]

		case OpSLen:
			if sp < 1 {
				return trap(TrapStack, "slen on empty stack")
			}
			if m.stack[sp-1].K != VStr {
				return trap(TrapType, "slen needs a string")
			}
			m.stack[sp-1] = IntVal(int64(len(m.stack[sp-1].S)))

		case OpHost:
			v, kind, err := callHost(operand, m.stack)
			if err != nil {
				return trap(kind, err.Error())
			}
			if operand == HostPow {
				m.stack = m.stack[:len(m.stack)-1]
			}
			m.stack[len(m.stack)-1] = v

		default:
			return trap(TrapGeneric, fmt.Sprintf("unimplemented opcode %v", op))
		}
		f.pc = npc
	}
}

func compare(op Op, a, b Value) (bool, error) {
	if a.K != b.K {
		return false, fmt.Errorf("comparison of %v and %v", a.K, b.K)
	}
	var c int // -1, 0, 1
	switch a.K {
	case VInt, VBool:
		switch {
		case a.I < b.I:
			c = -1
		case a.I > b.I:
			c = 1
		}
	case VFloat:
		switch {
		case a.F < b.F:
			c = -1
		case a.F > b.F:
			c = 1
		case a.F != b.F: // NaN involved: only Eq/Ne are meaningful
			if op == OpEq {
				return false, nil
			}
			if op == OpNe {
				return true, nil
			}
			return false, nil
		}
	case VStr:
		switch {
		case a.S < b.S:
			c = -1
		case a.S > b.S:
			c = 1
		}
	case VBytes:
		if op != OpEq && op != OpNe {
			return false, fmt.Errorf("bytes support only eq/ne")
		}
		eq := string(a.B) == string(b.B)
		return (op == OpEq) == eq, nil
	}
	switch op {
	case OpEq:
		return c == 0, nil
	case OpNe:
		return c != 0, nil
	case OpLt:
		return c < 0, nil
	case OpLe:
		return c <= 0, nil
	case OpGt:
		return c > 0, nil
	case OpGe:
		return c >= 0, nil
	}
	return false, fmt.Errorf("bad comparison op %v", op)
}

func callHost(id int, stack []Value) (Value, TrapKind, error) {
	sp := len(stack)
	need := 1
	if id == HostPow {
		need = 2
	}
	if sp < need {
		return Value{}, TrapStack, fmt.Errorf("host %s needs %d args", HostName(id), need)
	}
	switch id {
	case HostSqrt:
		x := stack[sp-1]
		if x.K != VFloat {
			return Value{}, TrapType, fmt.Errorf("sqrt needs a float")
		}
		if x.F < 0 {
			return Value{}, TrapMath, fmt.Errorf("sqrt of negative %g", x.F)
		}
		return FloatVal(math.Sqrt(x.F)), 0, nil
	case HostAbsF:
		x := stack[sp-1]
		if x.K != VFloat {
			return Value{}, TrapType, fmt.Errorf("absf needs a float")
		}
		return FloatVal(math.Abs(x.F)), 0, nil
	case HostAbsI:
		x := stack[sp-1]
		if x.K != VInt {
			return Value{}, TrapType, fmt.Errorf("absi needs an int")
		}
		if x.I < 0 {
			return IntVal(-x.I), 0, nil
		}
		return x, 0, nil
	case HostPow:
		x, y := stack[sp-2], stack[sp-1]
		if x.K != VFloat || y.K != VFloat {
			return Value{}, TrapType, fmt.Errorf("pow needs two floats")
		}
		return FloatVal(math.Pow(x.F, y.F)), 0, nil
	case HostFloor:
		x := stack[sp-1]
		if x.K != VFloat {
			return Value{}, TrapType, fmt.Errorf("floor needs a float")
		}
		return FloatVal(math.Floor(x.F)), 0, nil
	case HostCeil:
		x := stack[sp-1]
		if x.K != VFloat {
			return Value{}, TrapType, fmt.Errorf("ceil needs a float")
		}
		return FloatVal(math.Ceil(x.F)), 0, nil
	case HostLog:
		x := stack[sp-1]
		if x.K != VFloat {
			return Value{}, TrapType, fmt.Errorf("log needs a float")
		}
		if x.F <= 0 {
			return Value{}, TrapMath, fmt.Errorf("log of non-positive %g", x.F)
		}
		return FloatVal(math.Log(x.F)), 0, nil
	case HostExp:
		x := stack[sp-1]
		if x.K != VFloat {
			return Value{}, TrapType, fmt.Errorf("exp needs a float")
		}
		return FloatVal(math.Exp(x.F)), 0, nil
	}
	return Value{}, TrapGeneric, fmt.Errorf("unknown host intrinsic %d", id)
}

// outcome is everything one invocation leaves behind for its caller.
type outcome struct {
	val     Value
	err     error
	globals []Value
	instrs  int64
}

func cloneValues(vs []Value) []Value {
	out := make([]Value, len(vs))
	for i, v := range vs {
		out[i] = v
		out[i].B = bytes.Clone(v.B)
	}
	return out
}

// parity is parityFrom with zeroed globals.
func parity(t testing.TB, p *Program, fn int, limits Limits, args []Value) outcome {
	t.Helper()
	return parityFrom(t, p, fn, limits, make([]Value, p.NGlobals), args)
}

// parityFrom runs function fn of a verified program on the reference
// interpreter and on the compiled engine — fresh machines, private
// copies of the globals and the arguments — and fails the test unless
// the two agree on the value, the trap, the globals they leave and the
// instruction count. It returns the reference's outcome.
func parityFrom(t testing.TB, p *Program, fn int, limits Limits, globals, args []Value) outcome {
	t.Helper()
	ref := outcome{globals: cloneValues(globals)}
	rm := newRef(limits)
	ref.val, ref.err = rm.run(p, fn, ref.globals, cloneValues(args))
	ref.instrs = rm.LastRunInstrs

	got := outcome{globals: cloneValues(globals)}
	m := New(limits)
	got.val, got.err = m.Run(p, fn, got.globals, cloneValues(args))
	got.instrs = m.LastRunInstrs
	if m.FastRuns != 1 || m.CheckedRuns != 0 || m.Instrs != m.LastRunInstrs {
		t.Fatalf("machine counters after one run: runs=%d checked=%d instrs=%d last=%d",
			m.FastRuns, m.CheckedRuns, m.Instrs, m.LastRunInstrs)
	}

	switch {
	case (ref.err == nil) != (got.err == nil):
		t.Fatalf("path divergence: reference err=%v, compiled err=%v", ref.err, got.err)
	case ref.err != nil && ref.err.Error() != got.err.Error():
		t.Fatalf("trap divergence:\n  reference: %v\n  compiled:  %v", ref.err, got.err)
	case ref.err == nil && !sameValue(ref.val, got.val):
		t.Fatalf("value divergence: reference %+v, compiled %+v", ref.val, got.val)
	case ref.instrs != got.instrs:
		t.Fatalf("instruction counter divergence: reference %d, compiled %d (err=%v)", ref.instrs, got.instrs, ref.err)
	}
	if rt, ok := ref.err.(*Trap); ok {
		if ct := got.err.(*Trap); *rt != *ct {
			t.Fatalf("trap divergence: reference %+v, compiled %+v", *rt, *ct)
		}
	}
	for i := range ref.globals {
		if !sameValue(ref.globals[i], got.globals[i]) {
			t.Fatalf("global %d divergence: reference %+v, compiled %+v (err=%v)", i, ref.globals[i], got.globals[i], ref.err)
		}
	}
	return ref
}
