package vm

import (
	"fmt"
	"math"
)

// This file and compile_expr.go are the MVM's one execution engine. A
// verified program is compiled once into closure-threaded code: every
// basic block becomes a list of Go closures over a *Machine, run by
// Machine.exec. The verifier's facts are the compiler's inputs: exact
// stack depths turn operand-stack slots into fixed registers, per-slot
// kinds put ints, bools and floats unboxed in Machine.r and everything
// else as whole Values in Machine.v, and stack traffic without effects
// (load, pushi, arithmetic, byte loads, comparisons) never touches a
// register: it folds into the expression closure of the statement that
// consumes it. What the verifier cannot know stays dynamic — the kind
// of an argument, a global or a merged value, buffer bounds, math
// domains, the allocation budget, fuel — and every such check carries
// the index of its bytecode instruction, so traps and LastRunInstrs
// are exactly the reference interpreter's (reference_test.go).

type (
	stmt  = func(*Machine)
	iexpr = func(*Machine) int64 // an int, or a bool as the reference's Value.I
	fexpr = func(*Machine) float64
	bexpr = func(*Machine) bool
	vexpr = func(*Machine) *Value // where a boxed value lives
)

// code is a compiled program: one cfunc per Func, and the registers the
// deepest chain of calls can need — calls never recurse, so no chain
// holds more frames than one of every function.
type code struct {
	funcs []cfunc
	regs  int
}

// cfunc is a compiled function. A frame has one register per argument,
// local and operand-stack slot, in that order, in both files, and sees
// one more: boxed register size is register 0 of the frame a callee
// would get, where ret leaves the result — and swap's scratch meanwhile.
type cfunc struct {
	name                 string
	nargs, nlocals, size int
	offs                 []int32  // instruction index → bytecode offset, for Trap.PC
	bend                 []int32  // instruction index → one past its block's last
	blocks               []*block // blocks[0] is the entry
}

// block is a run of instructions entered only at the top and left only
// at the bottom. A call ends its block, so the fuel charged on entry
// never covers instructions that run after a callee's; so does a bcopy,
// whose own charge for the bytes then finds exactly the fuel the
// reference interpreter would have left.
type block struct {
	first   int   // index of the first instruction
	n       int64 // bytecode instructions, charged on entry
	stmts   []stmt
	cond    bexpr  // nil: always continue at to
	to, alt *block // successors when cond holds / does not; nil returns
	loop    *loop  // the loop this block is the body of, run in place
}

// loop is a block that is its own successor: by its own test, or
// rotated — a body whose only successor is a header of nothing but a
// test takes that test as its tail. exec runs it in place (iterate).
type loop struct {
	n, hn  int64 // fuel for a whole iteration; the header's share of it
	test   bexpr
	back   bool // what test says when the loop goes round again
	exit   *block
	kernel func(*Machine) bool // whole iterations in one closure; true: exited
}

// form is a statement, a branch test or an int operand's value in a
// shape a loop kernel runs without a closure; the zero form is none.
// An operand's fAffine form leaves k to its add.
//
//	fAffine   r[a] = r[b]*kb + r[c]*kc + k
//	fLoad     v[src].B[r[c]+kc]
//	fLoadAdd  r[a] += v[src].B[r[c]+kc]
//	fCopy     v[dst].B[r[b]+kb] = v[src].B[r[c]+kc], the buffer popped
//	fEq, fLt, fLe  r[b] ==, <, <= r[c]*kc + k
type form struct {
	op                uint8
	a, b, c, dst, src int
	kb, kc, k         int64
}

const (
	fAffine = 1 + iota
	fLoad
	fLoadAdd
	fCopy
	fEq
	fLt
	fLe
)

// Compile builds the program's executable form if it has none yet. Run
// does so on first use; a site that loads shipped code calls it up
// front to keep the cost out of the first tuple.
func (p *Program) Compile() error {
	if p.verified == nil {
		return fmt.Errorf("vm: program %q is not verified", p.Name)
	}
	p.verified.code(p)
	return nil
}

func (vi *VerifyInfo) code(p *Program) *code {
	vi.once.Do(func() {
		c := &code{funcs: make([]cfunc, len(p.Funcs))}
		comps := make([]fcomp, len(p.Funcs))
		for i := range comps { // frame shapes first: a call site needs its callee's
			comps[i] = newFcomp(p, c, vi.flow, i)
			c.regs += c.funcs[i].size
		}
		c.regs++ // the deepest frame's view of the next
		for i := range comps {
			comps[i].compile()
		}
		vi.compiled, vi.flow = c, nil
	})
	return vi.compiled
}

// Where an operand's value is.
const (
	locExpr   = iota // not evaluated yet: one of operand.i, f, b
	locImm           // the immediate operand.imm
	locReg           // register n, in the file its class says
	locGlobal        // global n
	locPool          // constant pool entry n
)

// operand is one entry of the compile-time operand stack.
type operand struct {
	k    absKind
	loc  uint8
	n    int
	imm  int64 // locImm: the int, the bool or the float64's bits
	add  int64 // a proven int is what the rest says plus add
	form form  // the value's shape, when a loop kernel can compute it
	i    iexpr
	f    fexpr
	b    bexpr // a comparison not yet turned into 0/1; neg: its negation
	neg  bool
	pure bool // evaluating it cannot trap
}

func reg(k absKind, n int) operand { return operand{k: k, loc: locReg, n: n, pure: true} }

// static reports that reading the operand cannot trap: it is pure and of
// a kind the verifier proved.
func (o *operand) static() bool { return o.pure && o.k != akAny }

// kind is the runtime kind of the operand's value. absKind and VKind
// number the five concrete kinds alike.
func (o *operand) kind(m *Machine) VKind {
	if o.k != akAny {
		return VKind(o.k)
	}
	return m.box(o.n, o.loc == locGlobal).K
}

// fcomp compiles one function.
type fcomp struct {
	p      *Program
	code   *code
	fn     *cfunc
	flow   []funcFlow
	ff     *funcFlow
	scalar []bool // register class: unboxed in Machine.r
	stack  []operand
	b      *block
	at     int               // instruction being compiled
	end    int               // one past the block's last instruction
	forms  map[*block][]form // per statement, for loops to find kernels in
	tests  map[*block]form
}

func isScalar(k absKind) bool { return k == akInt || k == akFloat || k == akBool }

// newFcomp fixes the function's frame: its size, and for every register
// whether it is scalar — holding an int, bool or float at every
// instruction boundary, so no path ever needs its kind at run time.
func newFcomp(p *Program, c *code, flow []funcFlow, fi int) fcomp {
	f, ff := &p.Funcs[fi], &flow[fi]
	fn := &c.funcs[fi]
	*fn = cfunc{name: f.Name, nargs: f.NArgs, nlocals: f.NLocals,
		offs: make([]int32, len(ff.ins)), bend: make([]int32, len(ff.ins))}
	depth := 0
	for i, in := range ff.ins {
		fn.offs[i] = int32(in.off)
		depth = max(depth, len(ff.states[i].stack))
	}
	fn.size = f.NArgs + f.NLocals + depth
	scalar := make([]bool, fn.size+1)
	for i := f.NArgs; i < fn.size; i++ {
		scalar[i] = true
	}
	for _, st := range ff.states {
		for i, k := range st.locals {
			scalar[f.NArgs+i] = scalar[f.NArgs+i] && isScalar(k)
		}
		for d, k := range st.stack {
			s := f.NArgs + f.NLocals + d
			scalar[s] = scalar[s] && isScalar(k)
		}
	}
	return fcomp{p: p, code: c, fn: fn, flow: flow, ff: ff, scalar: scalar}
}

// compile cuts the function into blocks and compiles each.
func (c *fcomp) compile() {
	ins := c.ff.ins
	lead := make([]bool, len(ins)+1)
	lead[0], lead[len(ins)] = true, true
	for i, in := range ins {
		switch in.op {
		case OpJmp, OpJz, OpJnz:
			lead[in.operand], lead[i+1] = true, true
		case OpRet, OpCall, OpBCopy:
			lead[i+1] = true
		}
	}
	blockAt := make([]*block, len(ins)+1)
	for i := range ins {
		if lead[i] {
			blockAt[i] = &block{first: i}
			c.fn.blocks = append(c.fn.blocks, blockAt[i])
		}
	}
	c.forms, c.tests = map[*block][]form{}, map[*block]form{}
	for _, b := range c.fn.blocks {
		for c.end = b.first + 1; !lead[c.end]; c.end++ {
		}
		b.n = int64(c.end - b.first)
		for i := b.first; i < c.end; i++ {
			c.fn.bend[i] = int32(c.end)
		}
		c.block(b, blockAt)
	}
	for _, b := range c.fn.blocks {
		c.loop(b)
	}
}

// loop makes b a loop when its test sends it back to itself, or when its
// only successor is a header of nothing but a test that does: rotated.
// A body ending in a call or a bcopy spends fuel of its own: not a loop.
func (c *fcomp) loop(b *block) {
	h := b
	if b.cond == nil {
		if h = b.to; h == nil || len(h.stmts) > 0 || h.cond == nil {
			return
		}
		if op := c.ff.ins[b.first+int(b.n)-1].op; op == OpCall || op == OpBCopy {
			return
		}
	}
	if h.to != b && h.alt != b {
		return
	}
	l := &loop{n: b.n, test: h.cond, back: h.to == b, exit: h.to}
	if l.back {
		l.exit = h.alt
	}
	if h != b {
		l.n, l.hn = b.n+h.n, h.n
	}
	l.kernel = c.kernel(b, c.tests[h], l.n, l.back)
	b.loop = l
}

// kernel compiles a counted loop to one closure: a byte access, then
// steps r[x] += r[c]*kc + k of its offset registers — the counters — by
// what the loop does not write, and a test of a counter against that or
// a constant. It holds counters (and a sum) in Go variables, runs whole
// iterations in order, each after its own preconditions — the buffers'
// kinds and W, both offsets in range, fuel for all of it — and says if
// the loop exited. Where one fails, the block's statements run that
// iteration and trap as the reference does; short of fuel, the blocks.
func (c *fcomp) kernel(b *block, t form, n int64, back bool) func(*Machine) bool {
	fs := c.forms[b]
	if len(fs) == 0 || fs[0].op != fLoadAdd && fs[0].op != fCopy {
		return nil
	}
	acc, sum := fs[0], fs[0].op == fLoadAdd
	if sum {
		acc.b = acc.c // one counter
	}
	counter := func(x int) bool { return x == acc.b || x == acc.c }
	written := func(x int) bool { return counter(x) || sum && x == acc.a }
	steps := map[int]form{} // by counter; none: a zero step
	for _, f := range fs[1:] {
		if _, twice := steps[f.a]; twice || f.op != fAffine || f.b != f.a || f.kb != 1 || !counter(f.a) || f.kc != 0 && written(f.c) {
			return nil
		}
		steps[f.a] = f
	}
	if t.op < fEq || !counter(t.b) || t.kc != 0 && written(t.c) || sum && counter(acc.a) {
		return nil
	}
	so, si, st := steps[acc.b], steps[acc.c], steps[t.b]
	inc := func(r []int64, f form) int64 { return r[f.c]*f.kc + f.k }
	a, ob, kb, ic, kc, dst, src, op, tb, tc, tkc, tk := acc.a, acc.b, acc.kb, acc.c, acc.kc, acc.dst, acc.src, t.op, t.b, t.c, t.kc, t.k
	if sum { // a byte reduction
		return func(m *Machine) bool {
			r, s := m.r, &m.v[src]
			if s.K != VBytes {
				return false
			}
			sb, fuel, done := s.B, m.fuel, false
			total, i, x, di, dx := r[a], r[ic], r[tb], inc(r, si), inc(r, st)
			for fuel >= n && uint64(i+kc) < uint64(len(sb)) {
				fuel -= n
				total += int64(sb[i+kc])
				if i, x = i+di, x+dx; passes(op, x, r[tc]*tkc+tk) != back {
					done = true
					break
				}
			}
			r[a], r[ic], m.fuel = total, i, fuel
			return done
		}
	}
	return func(m *Machine) bool { // a strided copy
		r, d, s := m.r, &m.v[dst], &m.v[src]
		if d.K != VBytes || !d.W || s.K != VBytes {
			return false
		}
		db, sb, fuel, done := d.B, s.B, m.fuel, false
		o, i, x, do, di, dx := r[ob], r[ic], r[tb], inc(r, so), inc(r, si), inc(r, st)
		for fuel >= n && uint64(o+kb) < uint64(len(db)) && uint64(i+kc) < uint64(len(sb)) {
			fuel -= n
			db[o+kb] = sb[i+kc]
			if o, i, x = o+do, i+di, x+dx; passes(op, x, r[tc]*tkc+tk) != back {
				done = true
				break
			}
		}
		r[ob], r[ic], m.fuel = o, i, fuel
		return done
	}
}

// passes evaluates test form op on x and y.
func passes(op uint8, x, y int64) bool {
	switch op {
	case fLt:
		return x < y
	case fLe:
		return x <= y
	}
	return x == y
}

// stmt is an fAffine form as one closure, specialised to its shape.
func (f form) stmt() stmt {
	a, b, c, kb, kc, k := f.a, f.b, f.c, f.kb, f.kc, f.k
	switch {
	case kc == 0 && kb == 1 && b == a: // a counter's step
		return func(m *Machine) { m.r[a] += k }
	case kb == 1 && kc == 1 && b == a && k == 0:
		return func(m *Machine) { m.r[a] += m.r[c] }
	}
	return func(m *Machine) { m.r[a] = m.r[b]*kb + m.r[c]*kc + k }
}

// block compiles one block. On entry every operand-stack slot is in its
// own register, and so it is again on every way out.
func (c *fcomp) block(b *block, blockAt []*block) {
	c.b, c.stack = b, c.stack[:0]
	for d, k := range c.ff.states[b.first].stack {
		c.push(reg(k, c.slot(d)))
	}
	for c.at = b.first; c.at < c.end; c.at++ {
		switch in := c.ff.ins[c.at]; in.op {
		case OpJmp:
			c.flush()
			b.to = blockAt[in.operand]
			return
		case OpJz, OpJnz:
			o := c.pop()
			c.flush()
			cond, neg := o.b, o.neg
			c.tests[b] = o.form
			if cond == nil {
				x := c.ival(o, VBool, c.typeFail("conditional jump needs a bool"))
				cond = func(m *Machine) bool { return x(m) != 0 }
			}
			b.cond, b.to, b.alt = cond, blockAt[in.operand], blockAt[c.at+1]
			if neg != (in.op == OpJz) {
				b.to, b.alt = b.alt, b.to
			}
			return
		case OpRet:
			bx := func(m *Machine, dst *Value) { *dst = Value{} }
			if len(c.stack) > 0 {
				bx = c.into(c.pop())
			}
			c.flush() // what stays on the stack is dropped, but was computed
			c.emit(func(m *Machine) { bx(m, &m.v[0]) })
			return
		case OpCall:
			c.call(in.operand)
			b.to = blockAt[c.at+1]
			return
		default:
			c.instr(in)
		}
	}
	c.flush()
	b.to = blockAt[c.end]
}

func (c *fcomp) site() site        { return site{c.fn, c.at} }
func (c *fcomp) slot(d int) int    { return c.fn.nargs + c.fn.nlocals + d }
func (c *fcomp) push(o operand)    { c.stack = append(c.stack, o) }
func (c *fcomp) emit(s stmt)       { c.emitAs(s, form{}) }
func (c *fcomp) top() int          { return c.slot(len(c.stack)) }
func (c *fcomp) pushReg(k absKind) { c.push(reg(k, c.top())) }

// emitAs emits a statement that has form f.
func (c *fcomp) emitAs(s stmt, f form) {
	c.b.stmts, c.forms[c.b] = append(c.b.stmts, s), append(c.forms[c.b], f)
}

func (c *fcomp) pop() operand {
	o := c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
	return o
}

func (c *fcomp) typeFail(msg string) stmt {
	st := c.site()
	return func(m *Machine) { st.trap(m, TrapType, msg) }
}

// flush evaluates every operand still on the compile-time stack into
// its slot's register, bottom up — the order the reference interpreter
// computed them in. Every instruction with an effect flushes first, so
// no pending expression is ever evaluated after something that could
// change its value, trap before it, or belong to a later fuel charge.
func (c *fcomp) flush() {
	for d, o := range c.stack {
		if s := c.slot(d); o.loc != locReg || o.n != s || o.add != 0 {
			c.assign(s, o)
			c.stack[d] = reg(o.k, s)
		}
	}
}

// settle is called by an instruction about to consume the top n operands
// as scalars. A dynamically kinded one is checked where it is read,
// which is only as good as the reference's check at the instruction if
// nothing evaluated in between can trap first; otherwise the operands
// are flushed and become plain register reads.
func (c *fcomp) settle(n int) {
	top := c.stack[len(c.stack)-n:]
	for i, o := range top {
		for _, later := range top[i+1:] {
			if o.k == akAny && !later.pure {
				c.flush()
				return
			}
		}
	}
}

// breg is the scalar register operand o is o.add away from, or -1.
func (c *fcomp) breg(o operand) int {
	if o.loc == locReg && c.scalar[o.n] {
		return o.n
	}
	return -1
}

// sreg is the scalar register that is all of operand o, or -1.
func (c *fcomp) sreg(o operand) int {
	if o.add == 0 {
		return c.breg(o)
	}
	return -1
}

// ireg is scalar register r of the running frame, or x where there is
// none (r < 0); freg is the same for a float.
func (m *Machine) ireg(r int, x iexpr) int64 {
	if r >= 0 {
		return m.r[r]
	}
	return x(m)
}

func (m *Machine) freg(r int, x fexpr) float64 {
	if r >= 0 {
		return math.Float64frombits(uint64(m.r[r]))
	}
	return x(m)
}

// span is boxed register n from offset o on when it is a buffer with w
// bytes there; where reading them would trap, what at returns: it traps.
func (m *Machine) span(n int, o, w int64, at func(*Machine) []byte) []byte {
	if v := &m.v[n]; v.K == VBytes && o >= 0 && o <= int64(len(v.B))-w {
		return v.B[o:]
	}
	return at(m)
}

// ival reads o as an int or bool. A dynamically kinded o must hold a
// want; fail raises the consuming instruction's type trap.
func (c *fcomp) ival(o operand, want VKind, fail stmt) iexpr {
	x, k := c.ibase(o, want, fail), o.add
	if k == 0 {
		return x
	}
	return func(m *Machine) int64 { return x(m) + k }
}

// ibase is ival without o.add, for a caller that adds it in itself.
func (c *fcomp) ibase(o operand, want VKind, fail stmt) iexpr {
	n, global := o.n, o.loc == locGlobal
	switch {
	case o.i != nil:
		return o.i
	case o.b != nil:
		b, neg := o.b, o.neg
		return func(m *Machine) int64 {
			if b(m) != neg {
				return 1
			}
			return 0
		}
	case o.loc == locImm:
		k := o.imm
		return func(*Machine) int64 { return k }
	case o.k == akAny:
		return func(m *Machine) int64 {
			p := m.box(n, global)
			if p.K != want {
				fail(m)
			}
			return p.I
		}
	case c.scalar[n]:
		return func(m *Machine) int64 { return m.r[n] }
	}
	return func(m *Machine) int64 { return m.v[n].I }
}

// fval reads o as a float.
func (c *fcomp) fval(o operand, fail stmt) fexpr {
	n, global := o.n, o.loc == locGlobal
	switch {
	case o.f != nil:
		return o.f
	case o.loc == locImm:
		k := math.Float64frombits(uint64(o.imm))
		return func(*Machine) float64 { return k }
	case o.k == akAny:
		return func(m *Machine) float64 {
			p := m.box(n, global)
			if p.K != VFloat {
				fail(m)
			}
			return p.F
		}
	case c.scalar[n]:
		return func(m *Machine) float64 { return math.Float64frombits(uint64(m.r[n])) }
	}
	return func(m *Machine) float64 { return m.v[n].F }
}

// ptr locates a bytes, string or dynamically kinded operand. Such a
// value is never computed by an expression: it is an argument, a global,
// a constant or something a statement put in a boxed register.
func (c *fcomp) ptr(o operand) vexpr {
	n, global := o.n, o.loc == locGlobal
	if o.loc == locPool {
		p := &c.p.Consts[n]
		return func(*Machine) *Value { return p }
	}
	return func(m *Machine) *Value { return m.box(n, global) }
}

// into evaluates o to the Value the reference interpreter would hold,
// in place at dst: a Value is 64 bytes, worth moving once.
func (c *fcomp) into(o operand) func(m *Machine, dst *Value) {
	switch o.k {
	case akInt, akBool:
		e, k := c.ival(o, 0, nil), VKind(o.k)
		return func(m *Machine, dst *Value) { *dst = Value{K: k, I: e(m)} }
	case akFloat:
		e := c.fval(o, nil)
		return func(m *Machine, dst *Value) { *dst = Value{K: VFloat, F: e(m)} }
	}
	p := c.ptr(o)
	return func(m *Machine, dst *Value) { *dst = *p(m) }
}

// lin is int operand o as an fAffine form, when it is one.
func (c *fcomp) lin(o operand) (form, bool) {
	f := o.form
	if r := c.breg(o); r >= 0 && o.k != akFloat {
		f = form{op: fAffine, b: r, kb: 1, c: r}
	}
	f.k = o.add
	return f, f.op == fAffine
}

// assign emits the statement that stores o in register n: an fAffine
// form is a register-file statement of one closure.
func (c *fcomp) assign(n int, o operand) {
	f, lin := c.lin(o)
	switch {
	case !c.scalar[n]:
		bx := c.into(o)
		c.emit(func(m *Machine) { bx(m, &m.v[n]) })
	case o.k == akFloat:
		e := c.fval(o, nil)
		c.emit(func(m *Machine) { m.r[n] = int64(math.Float64bits(e(m))) })
	case lin:
		f.a = n
		c.emitAs(f.stmt(), f)
	default:
		if f = o.form; f.op != fLoadAdd || f.a != n || o.add != 0 {
			f = form{}
		}
		e := c.ival(o, 0, nil)
		c.emitAs(func(m *Machine) { m.r[n] = e(m) }, f)
	}
}

// call evaluates the arguments straight into the callee's frame, which
// starts where the caller's ends, and runs the callee there.
func (c *fcomp) call(fi int) {
	callee := &c.code.funcs[fi]
	args := make([]func(*Machine, *Value), callee.nargs)
	for i := len(args) - 1; i >= 0; i-- {
		args[i] = c.into(c.pop())
	}
	c.flush()
	st, size := c.site(), c.fn.size
	c.emit(func(m *Machine) {
		r, v := m.r, m.v
		cv := v[size : size+len(args)]
		for i, a := range args {
			a(m, &cv[i])
		}
		st.live(m)
		m.enter(callee, r[size:cap(r)], v[size:cap(v)])
		m.exec(callee)
		m.r, m.v = r, v
	})
	c.push(reg(c.flow[fi].ret, size))
	c.flush()
}
