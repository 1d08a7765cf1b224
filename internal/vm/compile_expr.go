package vm

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
)

// instr compiles one instruction that does not end its block.
func (c *fcomp) instr(in instr) {
	switch in.op {
	case OpNop:

	case OpPop:
		if o := c.pop(); !o.pure { // evaluate it for its trap
			c.flush()
			c.emit(c.assign(c.top(), o))
		}
	case OpDup:
		c.flush()
		c.push(c.stack[len(c.stack)-1])
	case OpSwap: // by way of the register past the frame
		c.flush()
		n, t := len(c.stack), c.fn.size
		a, b := c.stack[n-2], c.stack[n-1]
		c.emit(c.assign(t, a))
		c.emit(c.assign(a.n, b))
		c.emit(c.assign(b.n, reg(a.k, t)))
		c.stack[n-2], c.stack[n-1] = reg(b.k, a.n), reg(a.k, b.n)

	case OpConst:
		switch v := c.p.Consts[in.operand]; v.K {
		case VInt, VBool:
			c.push(operand{k: kindOf(v.K), loc: locImm, imm: v.I, pure: true})
		case VFloat:
			c.push(operand{k: akFloat, loc: locImm, imm: int64(math.Float64bits(v.F)), pure: true})
		default:
			c.push(operand{k: kindOf(v.K), loc: locPool, n: in.operand, pure: true})
		}
	case OpPushI:
		c.push(operand{k: akInt, loc: locImm, imm: int64(in.operand), pure: true})
	case OpArg:
		c.push(reg(akAny, in.operand))
	case OpLoad:
		c.push(reg(c.ff.states[c.at].locals[in.operand], c.fn.nargs+in.operand))
	case OpGLoad:
		c.push(operand{k: akAny, loc: locGlobal, n: in.operand, pure: true})

	case OpStore:
		o := c.pop()
		c.flush()
		c.emit(c.assign(c.fn.nargs+in.operand, o))
	case OpGStore:
		bx := c.into(c.pop())
		c.flush()
		st, n := c.site(), in.operand
		c.emit(func(m *Machine) {
			bx(m, &m.tmp) // computed before, stored only after, the fuel check
			st.live(m)
			m.g[n] = m.tmp
		})

	case OpAddI, OpSubI, OpMulI, OpDivI, OpModI:
		c.settle(2)
		b, a := c.pop(), c.pop()
		res := c.arithI(in.op, a, b)
		res.k, res.pure = akInt, a.static() && b.static() && in.op != OpDivI && in.op != OpModI
		c.push(res)
	case OpAddF, OpSubF, OpMulF, OpDivF:
		c.settle(2)
		b, a := c.pop(), c.pop()
		st := c.site()
		fail := func(m *Machine) {
			st.trap(m, TrapType, fmt.Sprintf("%v needs floats, got %v and %v", in.op, a.kind(m), b.kind(m)))
		}
		x, y := c.fval(a, fail), c.fval(b, fail)
		res := operand{k: akFloat, pure: a.static() && b.static()}
		switch in.op {
		case OpAddF:
			res.f = func(m *Machine) float64 { return x(m) + y(m) }
		case OpSubF:
			res.f = func(m *Machine) float64 { return x(m) - y(m) }
		case OpMulF:
			res.f = func(m *Machine) float64 { return x(m) * y(m) }
		case OpDivF:
			res.f = func(m *Machine) float64 { return x(m) / y(m) }
		}
		c.push(res)

	case OpNegI:
		a := c.pop()
		x := c.ival(a, VInt, c.typeFail("negi needs an int"))
		c.push(operand{k: akInt, pure: a.static(), i: func(m *Machine) int64 { return -x(m) }})
	case OpNegF:
		a := c.pop()
		x := c.fval(a, c.typeFail("negf needs a float"))
		c.push(operand{k: akFloat, pure: a.static(), f: func(m *Machine) float64 { return -x(m) }})
	case OpI2F:
		a := c.pop()
		x := c.ival(a, VInt, c.typeFail("i2f needs an int"))
		c.push(operand{k: akFloat, pure: a.static(), f: func(m *Machine) float64 { return float64(x(m)) }})
	case OpF2I:
		a := c.pop()
		x := c.fval(a, c.typeFail("f2i needs a float"))
		c.push(operand{k: akInt, pure: a.static(), i: func(m *Machine) int64 { return int64(x(m)) }})

	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		c.compare(in.op)
	case OpAnd, OpOr:
		c.settle(2)
		b, a := c.pop(), c.pop()
		fail := c.typeFail("logic op needs bools")
		x, y, and := c.ival(a, VBool, fail), c.ival(b, VBool, fail), in.op == OpAnd
		c.push(operand{k: akBool, pure: a.static() && b.static(), b: func(m *Machine) bool {
			p, q := x(m) != 0, y(m) != 0 // both, always: either may trap
			if and {
				return p && q
			}
			return p || q
		}})
	case OpNot:
		a := c.pop()
		if a.b == nil {
			x := c.ival(a, VBool, c.typeFail("not needs a bool"))
			a = operand{k: akBool, pure: a.static(), b: func(m *Machine) bool { return x(m) != 0 }}
		}
		a.neg = !a.neg
		c.push(a)

	case OpBLen, OpSLen:
		a := c.pop()
		p, st, str := c.ptr(a), c.site(), in.op == OpSLen
		c.push(operand{k: akInt, pure: a.static(), i: func(m *Machine) int64 {
			v := p(m)
			switch {
			case str && v.K == VStr:
				return int64(len(v.S))
			case str:
				st.trap(m, TrapType, "slen needs a string")
			case v.K != VBytes:
				st.trap(m, TrapType, "blen needs bytes")
			}
			return int64(len(v.B))
		}})
	case OpLdU8, OpLdI32, OpLdF32, OpLdF64:
		c.load(in.op)
	case OpStU8, OpStI32, OpStF32:
		c.store(in.op)
	case OpBNew:
		x := c.ival(c.pop(), VInt, c.typeFail("bnew needs an int size"))
		c.flush()
		st, s := c.site(), c.top()
		c.emit(func(m *Machine) {
			size := x(m)
			if size < 0 {
				st.trap(m, TrapBounds, "bnew with negative size")
			}
			if size > m.limits.MaxAlloc-m.alloc { // compared before it is added: a size near MaxInt64 would wrap the sum
				st.trap(m, TrapResource, "allocation budget exhausted")
			}
			m.alloc += size
			st.live(m)
			m.v[s] = Value{K: VBytes, W: true, B: make([]byte, size)}
		})
		c.pushReg(akBytes)
	case OpBSlice:
		c.settle(2)
		end, start, buf := c.pop(), c.pop(), c.pop()
		c.flush()
		st, s := c.site(), c.top()
		fail := c.typeFail("bslice needs (bytes, int, int)")
		x, y, p := c.ival(start, VInt, fail), c.ival(end, VInt, fail), c.ptr(buf)
		c.emit(func(m *Machine) {
			lo, hi, v := x(m), y(m), p(m)
			if v.K != VBytes {
				fail(m)
			}
			if lo < 0 || hi < lo || hi > int64(len(v.B)) {
				st.trap(m, TrapBounds, fmt.Sprintf("bslice [%d:%d] out of bounds (%d)", lo, hi, len(v.B)))
			}
			m.v[s] = Value{K: VBytes, W: v.W, B: v.B[lo:hi]}
		})
		c.pushReg(akBytes)
	case OpBCopy:
		c.bcopy()
	case OpHost:
		c.host(in.operand)
	}
}

// arithI builds a op b over ints. An immediate added to (or multiplied
// into) a proven int costs nothing: it travels in operand.add until a
// load, a store or a register write folds it into its own arithmetic.
// The other shapes the shipped operators' loops are made of read a
// register operand in place instead of calling a closure for it.
func (c *fcomp) arithI(op Op, a, b operand) operand {
	st := c.site()
	fail := func(m *Machine) {
		st.trap(m, TrapType, fmt.Sprintf("%v needs ints, got %v and %v", op, a.kind(m), b.kind(m)))
	}
	if a.k == akInt && b.k == akInt {
		ka, kb := a.imm+a.add, b.imm+b.add
		switch {
		case op == OpAddI && b.loc == locImm:
			a.add += kb
			return a
		case op == OpAddI && a.loc == locImm:
			b.add += ka
			return b
		case op == OpSubI && b.loc == locImm:
			a.add -= kb
			return a
		case op == OpMulI && b.loc == locImm:
			x := c.ibase(a, 0, nil)
			return operand{add: a.add * kb, i: func(m *Machine) int64 { return x(m) * kb }}
		}
	}
	x, y := c.ival(a, VInt, fail), c.ival(b, VInt, fail)
	ra, rb := c.sreg(a), c.sreg(b)
	var e iexpr
	switch op {
	case OpAddI:
		switch {
		case ra >= 0 && rb >= 0:
			e = func(m *Machine) int64 { return m.r[ra] + m.r[rb] }
		case rb >= 0:
			e = func(m *Machine) int64 { return x(m) + m.r[rb] }
		case ra >= 0:
			e = func(m *Machine) int64 { return m.r[ra] + y(m) }
		default:
			e = func(m *Machine) int64 { return x(m) + y(m) }
		}
	case OpSubI:
		e = func(m *Machine) int64 { return x(m) - y(m) }
	case OpMulI:
		switch {
		case ra >= 0 && rb >= 0:
			e = func(m *Machine) int64 { return m.r[ra] * m.r[rb] }
		case rb >= 0:
			e = func(m *Machine) int64 { return x(m) * m.r[rb] }
		case ra >= 0:
			e = func(m *Machine) int64 { return m.r[ra] * y(m) }
		default:
			e = func(m *Machine) int64 { return x(m) * y(m) }
		}
	case OpDivI, OpModI:
		// Operands read in place: x/k, k dynamically kinded, is IncrRes.
		div, vb := op == OpDivI, -1
		if b.k == akAny && b.loc == locReg {
			vb = b.n
		}
		e = func(m *Machine) int64 {
			var p, q int64
			if ra >= 0 {
				p = m.r[ra]
			} else {
				p = x(m)
			}
			if vb < 0 {
				q = y(m)
			} else if v := &m.v[vb]; v.K == VInt {
				q = v.I
			} else {
				fail(m)
			}
			switch {
			case q == 0 && div:
				st.trap(m, TrapMath, "integer divide by zero")
			case q == 0:
				st.trap(m, TrapMath, "integer modulo by zero")
			case div:
				return p / q
			}
			return p % q
		}
	}
	return operand{i: e}
}

// compare builds a comparison. One with a statically scalar side is a
// scalar comparison — the other side must hold the same kind or the
// kinds differ, which is the reference's trap; anything else compares
// two boxed values where they lie.
func (c *fcomp) compare(op Op) {
	c.settle(2)
	b, a := c.pop(), c.pop()
	st := c.site()
	fail := func(m *Machine) {
		st.trap(m, TrapType, fmt.Sprintf("comparison of %v and %v", a.kind(m), b.kind(m)))
	}
	k := a.k
	if !isScalar(k) {
		k = b.k
	}
	res := operand{k: akBool, pure: a.static() && b.static()}
	switch k {
	case akInt, akBool: // as eq, lt or le, negated for ne, ge and gt
		x, y := c.ival(a, VKind(k), fail), c.ival(b, VKind(k), fail)
		ra, rb := c.sreg(a), c.sreg(b)
		regs := ra >= 0 && rb >= 0
		res.neg = op == OpNe || op == OpGe || op == OpGt
		switch {
		case op == OpEq || op == OpNe:
			res.b = func(m *Machine) bool { return x(m) == y(m) }
		case regs && (op == OpLt || op == OpGe):
			res.b = func(m *Machine) bool { return m.r[ra] < m.r[rb] }
		case op == OpLt || op == OpGe:
			res.b = func(m *Machine) bool { return x(m) < y(m) }
		case regs:
			res.b = func(m *Machine) bool { return m.r[ra] <= m.r[rb] }
		default:
			res.b = func(m *Machine) bool { return x(m) <= y(m) }
		}
	case akFloat:
		x, y := c.fval(a, fail), c.fval(b, fail)
		res.b = func(m *Machine) bool {
			p, q := x(m), y(m)
			if p != p || q != q { // NaN is unequal to everything and unordered
				return op == OpNe
			}
			return holds(op, cmp.Compare(p, q))
		}
	default:
		pa, pb := c.ptr(a), c.ptr(b)
		res.pure = false
		res.b = func(m *Machine) bool {
			r, msg := compareValues(op, pa(m), pb(m))
			if msg != "" {
				st.trap(m, TrapType, msg)
			}
			return r
		}
	}
	c.push(res)
}

// compareValues compares two boxed values of any kind; a non-empty
// message is the type trap.
func compareValues(op Op, a, b *Value) (bool, string) {
	if a.K != b.K {
		return false, fmt.Sprintf("comparison of %v and %v", a.K, b.K)
	}
	var c int
	switch a.K {
	case VInt, VBool:
		c = cmp.Compare(a.I, b.I)
	case VFloat:
		if a.F != a.F || b.F != b.F { // NaN, as above
			return op == OpNe, ""
		}
		c = cmp.Compare(a.F, b.F)
	case VStr:
		c = cmp.Compare(a.S, b.S)
	case VBytes:
		if op != OpEq && op != OpNe {
			return false, "bytes support only eq/ne"
		}
		return bytes.Equal(a.B, b.B) == (op == OpEq), ""
	}
	return holds(op, c), ""
}

// holds reports whether comparison op holds for operands that compare
// as c (negative, zero or positive).
func holds(op Op, c int) bool {
	return [numOps]bool{OpEq: c == 0, OpNe: c != 0, OpLt: c < 0, OpLe: c <= 0, OpGt: c > 0, OpGe: c >= 0}[op]
}

// load builds a byte-buffer read. From a buffer in a register — an
// argument, a local — the bytes are read where they lie, at an offset
// that is itself read in place when it is a scalar register's; what
// would trap there goes to at, out of line, which does.
func (c *fcomp) load(op Op) {
	off, buf := c.pop(), c.pop()
	st := c.site()
	fail := c.typeFail("byte load needs (bytes, int)")
	x, k, p := c.ibase(off, VInt, fail), off.add, c.ptr(buf)
	w := map[Op]int64{OpLdU8: 1, OpLdI32: 4, OpLdF32: 4, OpLdF64: 8}[op]
	at := func(m *Machine) []byte { // the w bytes at the offset
		o, v := x(m)+k, p(m)
		if v.K != VBytes {
			fail(m)
		}
		if o < 0 || o > int64(len(v.B))-w {
			st.trap(m, TrapBounds, fmt.Sprintf("byte load at %d width %d out of bounds (%d)", o, w, len(v.B)))
		}
		return v.B[o : o+w]
	}
	n, r, res := buf.n, c.breg(off), operand{k: akInt}
	if op == OpLdF32 || op == OpLdF64 {
		res.k = akFloat
	}
	switch inPlace := buf.loc == locReg; {
	case op == OpLdU8 && inPlace: // the pixel read of every raster operator
		res.i = func(m *Machine) int64 {
			b := m.span(n, m.offset(r, x, k), 1)
			if b == nil {
				b = at(m)
			}
			return int64(b[0])
		}
	case op == OpLdU8:
		res.i = func(m *Machine) int64 { return int64(at(m)[0]) }
	case op == OpLdI32 && inPlace:
		res.i = func(m *Machine) int64 {
			b := m.span(n, m.offset(r, x, k), 4)
			if b == nil {
				b = at(m)
			}
			return int64(int32(binary.BigEndian.Uint32(b)))
		}
	case op == OpLdI32:
		res.i = func(m *Machine) int64 { return int64(int32(binary.BigEndian.Uint32(at(m)))) }
	case op == OpLdF32 && inPlace: // the vertex read of every geometry operator
		res.f = func(m *Machine) float64 {
			b := m.span(n, m.offset(r, x, k), 4)
			if b == nil {
				b = at(m)
			}
			return float64(math.Float32frombits(binary.BigEndian.Uint32(b)))
		}
	case op == OpLdF32:
		res.f = func(m *Machine) float64 { return float64(math.Float32frombits(binary.BigEndian.Uint32(at(m)))) }
	case inPlace:
		res.f = func(m *Machine) float64 {
			b := m.span(n, m.offset(r, x, k), 8)
			if b == nil {
				b = at(m)
			}
			return math.Float64frombits(binary.BigEndian.Uint64(b))
		}
	default:
		res.f = func(m *Machine) float64 { return math.Float64frombits(binary.BigEndian.Uint64(at(m))) }
	}
	c.push(res)
}

// store builds a byte-buffer write. The buffer goes back on the stack,
// which the shipped operators pop at once: then it is not even copied.
func (c *fcomp) store(op Op) {
	c.settle(2)
	val, off, buf := c.pop(), c.pop(), c.pop()
	c.flush()
	st, s := c.site(), c.top()
	fail := c.typeFail("byte store needs (bytes, int, value)")
	x, k, p := c.ibase(off, VInt, fail), off.add, c.ptr(buf)
	// bits is what gets stored. A proven value is evaluated with the
	// other operands; a dynamically kinded one is a register read whose
	// check the reference makes last, after the bounds.
	var bits iexpr
	late, w := val.k == akAny, int64(4)
	if op == OpStF32 {
		f := c.fval(val, c.typeFail("stf32 needs a float value"))
		bits = func(m *Machine) int64 { return int64(math.Float32bits(float32(f(m)))) }
	} else {
		bits = c.ival(val, VInt, c.typeFail(op.String()+" needs an int value"))
	}
	if op == OpStU8 {
		w = 1
	}
	keep := c.at+1 == c.end || c.ff.ins[c.at+1].op != OpPop
	if keep {
		c.pushReg(akBytes)
	} else {
		c.at++
	}
	general := func(m *Machine) {
		var u int64
		o := x(m) + k
		if !late {
			u = bits(m)
		}
		v := p(m)
		st.live(m)
		if v.K != VBytes {
			fail(m)
		}
		if !v.W {
			st.trap(m, TrapBounds, "store into read-only buffer")
		}
		if o < 0 || o > int64(len(v.B))-w {
			st.trap(m, TrapBounds, fmt.Sprintf("byte store at %d out of bounds (%d)", o, len(v.B)))
		}
		if late {
			u = bits(m)
		}
		if w == 1 {
			v.B[o] = byte(u)
		} else {
			binary.BigEndian.PutUint32(v.B[o:], uint32(u))
		}
		if keep {
			m.v[s] = *v
		}
	}
	// The pixel write of every raster operator — a proven byte into a
	// register buffer at a register's offset, the buffer popped — is
	// done in place; what would trap is left to the general path.
	if n, r := buf.n, c.breg(off); op == OpStU8 && !keep && !late && r >= 0 && buf.loc == locReg {
		c.emit(func(m *Machine) {
			u, o, v := bits(m), m.r[r]+k, &m.v[n]
			if st.idx >= m.limit || !v.W || v.K != VBytes || uint64(o) >= uint64(len(v.B)) {
				general(m)
				return
			}
			v.B[o] = byte(u)
		})
		return
	}
	c.emit(general)
}

// bcopy builds the block move: the stores' checks over two ranges, the
// fuel for the bytes — a unit per 8, so fuel stays a bound on time — and
// one copy. It is the last instruction of its block (compile), so the
// fuel left is what the reference has left after the instruction's own
// unit, and under exhaust it lies at or past the limit and never moves a
// byte. A pop right after it, in the next block, never reads the slot.
func (c *fcomp) bcopy() {
	c.settle(5)
	n, soff, src, doff, dst := c.pop(), c.pop(), c.pop(), c.pop(), c.pop()
	c.flush()
	st, s := c.site(), c.top()
	fail := c.typeFail("bcopy needs (bytes, int, bytes, int, int)")
	pd, xd, ps := c.ptr(dst), c.ival(doff, VInt, fail), c.ptr(src)
	xs, xn := c.ival(soff, VInt, fail), c.ival(n, VInt, fail)
	keep := c.ff.ins[c.at+1].op != OpPop
	c.emit(func(m *Machine) {
		do, so, n := xd(m), xs(m), xn(m)
		d, sv := pd(m), ps(m)
		st.live(m)
		if d.K != VBytes || sv.K != VBytes {
			fail(m)
		}
		if !d.W {
			st.trap(m, TrapBounds, "store into read-only buffer")
		}
		if n < 0 || do < 0 || do > int64(len(d.B))-n || so < 0 || so > int64(len(sv.B))-n {
			st.trap(m, TrapBounds, fmt.Sprintf("bcopy of %d bytes from %d (%d) to %d (%d) out of bounds", n, so, len(sv.B), do, len(d.B)))
		}
		if m.fuel -= n >> 3; m.fuel < 0 {
			m.limit = st.idx
			st.trap(m, TrapResource, "")
		}
		copy(d.B[do:do+n], sv.B[so:so+n])
		if keep {
			m.v[s] = *d
		}
	})
	c.pushReg(akBytes)
}

// host builds a direct call of a host intrinsic.
func (c *fcomp) host(id int) {
	st := c.site()
	switch id {
	case HostPow:
		c.settle(2)
		b, a := c.pop(), c.pop()
		fail := c.typeFail("pow needs two floats")
		x, y := c.fval(a, fail), c.fval(b, fail)
		c.push(operand{k: akFloat, pure: a.static() && b.static(), f: func(m *Machine) float64 { return math.Pow(x(m), y(m)) }})
	case HostAbsI:
		a := c.pop()
		x := c.ival(a, VInt, c.typeFail("absi needs an int"))
		c.push(operand{k: akInt, pure: a.static(), i: func(m *Machine) int64 {
			v := x(m)
			return max(v, -v)
		}})
	default:
		a := c.pop()
		x := c.fval(a, c.typeFail(HostName(id)+" needs a float"))
		res := operand{k: akFloat, pure: a.static() && id != HostSqrt && id != HostLog}
		switch id {
		case HostSqrt:
			res.f = func(m *Machine) float64 {
				v := x(m)
				if v < 0 {
					st.trap(m, TrapMath, fmt.Sprintf("sqrt of negative %g", v))
				}
				return math.Sqrt(v)
			}
		case HostLog:
			res.f = func(m *Machine) float64 {
				v := x(m)
				if v <= 0 {
					st.trap(m, TrapMath, fmt.Sprintf("log of non-positive %g", v))
				}
				return math.Log(v)
			}
		default:
			fn := map[int]func(float64) float64{HostAbsF: math.Abs, HostFloor: math.Floor, HostCeil: math.Ceil, HostExp: math.Exp}[id]
			res.f = func(m *Machine) float64 { return fn(x(m)) }
		}
		c.push(res)
	}
}
