package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// This file and compile_expr.go are the MVM's one execution engine. A
// verified program is compiled once into closure-threaded code: every
// basic block becomes a list of Go closures over a *Machine, run by
// Machine.exec. The verifier's facts are the compiler's inputs: exact
// stack depths turn operand-stack slots into fixed registers, the kinds
// proven at each instruction put ints, bools and floats unboxed in
// Machine.r and everything else as whole Values in Machine.v, and stack
// traffic without effects (load, pushi, arithmetic, byte loads,
// comparisons) never touches a register: it folds into the expression
// closure of the statement that consumes it. What the verifier cannot
// know stays dynamic — the kind of an argument, a global or a merged
// value, buffer bounds, math domains, the allocation budget, fuel — and
// every such check carries the index of its bytecode instruction, so
// traps and LastRunInstrs are exactly the reference interpreter's
// (reference_test.go).

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
	float  bool                // the kernel is a float kernel (floatKernel)
}

// form is a statement, a branch test or an int operand's value in a
// shape a loop kernel runs without a closure; the zero form is none.
// An operand's fAffine and fGather forms leave k and ka to its add.
//
//	fAffine   r[a] = r[b]*kb + r[c]*kc + k
//	fLoad     v[src].B[r[c]+kc]
//	fLoadAdd  r[a] += v[src].B[r[c]+kc]
//	fCopy     v[dst].B[r[b]+kb] = v[src].B[r[c]+kc], the buffer popped
//	fGather   r[a] = ldi32 v[src].B at r[b]*kb + r[c]*kc + k, times km, plus ka
//	fFloat    r[a] = x, a float
//	fEq, fLt, fLe  r[b] ==, <, <= r[c]*kc + k
type form struct {
	op                uint8
	a, b, c, dst, src int
	kb, kc, k, km, ka int64
	x                 *fx
}

const (
	fAffine = 1 + iota
	fLoad
	fLoadAdd
	fCopy
	fGather
	fFloat
	fEq
	fLt
	fLe
)

// fx is a float operand's value in the shape a float kernel computes it
// in: a tree of mulf, subf, addf and host sqrt over ldf32 and ldf64 reads
// of v[src].B at r[reg]+k and float registers r[reg]. A node's op is the
// instruction that makes it — OpLoad for a register.
type fx struct {
	op       Op
	reg, src int
	k        int64
	a, b     *fx
}

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
	x    *fx   // a float's shape, when a float kernel can compute it
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
	p    *Program
	code *code
	fn   *cfunc
	flow []funcFlow
	ff   *funcFlow
	// cls is every register's class at the instruction being compiled:
	// the int, bool or float it holds unboxed in Machine.r, or akAny — a
	// Value in Machine.v.
	cls   []absKind
	stack []operand
	b     *block
	at    int               // instruction being compiled
	end   int               // one past the block's last instruction
	forms map[*block][]form // per statement, for loops to find kernels in
	tests map[*block]form
}

func isScalar(k absKind) bool { return k == akInt || k == akFloat || k == akBool }

// class is the register class a value of kind k takes.
func class(k absKind) absKind {
	if isScalar(k) {
		return k
	}
	return akAny
}

// newFcomp fixes the function's frame: one register per argument, local
// and operand-stack slot, and one past them.
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
	return fcomp{p: p, code: c, fn: fn, flow: flow, ff: ff, cls: make([]absKind, fn.size+1)}
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
	if l.kernel = c.kernel(b, c.tests[h], l.n, l.back); l.kernel == nil {
		l.kernel = floatKernel(c.forms[b], c.tests[h], l.n, l.back)
		l.float = l.kernel != nil
	}
	b.loop = l
}

// kernel compiles a counted loop to one closure: a byte access, then
// steps r[x] += r[c]*kc + k of its offset registers — the counters — by
// what the loop does not write, and a test of a counter against that or
// a constant. It runs, unchecked, what the run rule (runLen) and both
// offsets' room allow; the statements run the next iteration and trap.
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
	return func(m *Machine) bool {
		r, d, s := m.r, &m.v[dst], &m.v[src]
		if s.K != VBytes || !sum && (d.K != VBytes || !d.W) {
			return false
		}
		o, do, i, di, x, dx, y := r[ob], inc(r, so), r[ic], inc(r, si), r[tb], inc(r, st), r[tc]*tkc+tk
		db, sb, k := d.B, s.B, runLen(m.fuel, n, op, back, x, dx, y)
		if k = room(i+kc, di, int64(len(sb))-1, k); !sum {
			k = room(o+kb, do, int64(len(db))-1, k)
		}
		if sum { // a byte reduction
			total, p, j := r[a], i+kc, k
			for ; di == 1 && j >= 8; p, j = p+8, j-8 { // eight bytes at a time: a sum's order is free
				w := binary.LittleEndian.Uint64(sb[p:])
				w = w&0x00ff00ff00ff00ff + w>>8&0x00ff00ff00ff00ff
				w = w&0x0000ffff0000ffff + w>>16&0x0000ffff0000ffff
				total += int64(w&0xffffffff + w>>32)
			}
			for ; j > 0; j-- {
				total += int64(sb[p])
				p += di
			}
			r[a] = total
		} else { // a strided copy, in order: a source aliasing the destination reads what was written
			for po, pi, j := o+kb, i+kc, k; j > 0; j-- {
				db[po] = sb[pi]
				po, pi = po+do, pi+di
			}
			r[ob] = o + k*do
		}
		r[ic], m.fuel = i+k*di, m.fuel-k*n
		return k > 0 && passes(op, x+k*dx, y) != back
	}
}

// runLen is the run rule: how many whole iterations a loop kernel may
// run unchecked — what the fuel covers at n each, up to the first whose
// test, counter x stepped by dx against y, may not say back: x stays on
// its side of y, unwrapped, for what one division says, or less.
func runLen(fuel, n int64, op uint8, back bool, x, dx, y int64) int64 {
	if x += dx; fuel < n || passes(op, x, y) != back {
		return min(fuel/n, 1)
	}
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64) // the values about x the test goes round on
	switch {
	case op == fEq && back:
		lo, hi = y, y
	case op == fEq && x < y, back:
		if hi = y; op != fLe {
			hi--
		}
	default:
		if lo = y; op != fLt {
			lo++
		}
	}
	c := uint64(math.MaxUint64) // further steps that stay in [lo, hi]
	switch {
	case dx == 1: // no division for the commonest step
		c = uint64(hi) - uint64(x)
	case dx > 0:
		c = (uint64(hi) - uint64(x)) / uint64(dx)
	case dx < 0:
		c = (uint64(x) - uint64(lo)) / -uint64(dx)
	}
	if h, l := bits.Mul64(c+2, uint64(n)); c < math.MaxUint64-1 && h == 0 && l <= uint64(fuel) {
		return int64(c) + 2 // the fuel covers them
	}
	return fuel / n
}

// room is how many of k iterations an access at p, moved by dp each,
// keeps in [0, last]: all, when the last does and dp·(k−1) is small.
func room(p, dp, last, k int64) int64 {
	switch e := p + dp*(k-1); {
	case p < 0 || p > last:
		return 0
	case dp == 0 || -1<<31 < dp && dp < 1<<31 && k < 1<<31 && 0 <= e && e <= last:
		return k
	case dp > 0:
		return min(k, (last-p)/dp+1)
	}
	return min(k, int64(uint64(p)/-uint64(dp))+1)
}

// floatKernel compiles a float loop to one closure. Its body is, in
// order: at most two offsets, each an fAffine or fGather of the counter
// and registers the loop does not write; fFloat statements in one of
// the shapes fshape knows, whose reads are of one buffer at an int
// register plus a constant; at most one copy r[a] = r[b] of what the
// floats read before it — the previous vertex; and the step of the
// counter the test reads, by what the loop does not write.
//
// It runs what the run rule and room allow in a loop chosen here (floop,
// else each): a ring's reads are affine from the second iteration on;
// gathers run in each, which checks every read.
func floatKernel(fs []form, t form, n int64, back bool) func(*Machine) bool {
	if len(fs) < 2 || t.op < fEq {
		return nil
	}
	st, fs := fs[len(fs)-1], fs[:len(fs)-1]
	ctr := st.a
	if st.op != fAffine || st.b != ctr || st.kb != 1 || t.b != ctr {
		return nil
	}
	written, fdst := map[int]bool{ctr: true}, map[int]bool{}
	for _, f := range fs {
		if f.op == fFloat {
			fdst[f.a] = true
		} else if written[f.a] {
			return nil // an int register written twice
		}
		written[f.a] = true
	}
	fixed := func(x int) bool { return !written[x] || x == ctr } // what an offset may read
	if fdst[ctr] || st.kc != 0 && written[st.c] || t.kc != 0 && written[t.c] {
		return nil
	}
	src := -1
	buffer := func(b int) bool {
		if src < 0 {
			src = b
		}
		return b == src && !written[b]
	}
	i := 0
	for ; i < len(fs) && fs[i].op != fFloat; i++ {
		f := fs[i]
		if f.op != fAffine && (f.op != fGather || !buffer(f.src)) || !fixed(f.b) || f.kc != 0 && !fixed(f.c) {
			return nil
		}
	}
	j := i
	for j < len(fs) && fs[j].op == fFloat {
		j++
	}
	offs, floats, rest := fs[:i], fs[i:j], fs[j:]
	sh, ok := fshapeOf(floats)
	if !ok || len(offs) > 2 || len(rest) > 1 {
		return nil
	}
	if len(rest) == 1 {
		if c := rest[0]; c.op != fAffine || c.kb != 1 || c.kc != 0 || c.k != 0 || fdst[c.b] ||
			!fixed(c.b) && !slices.ContainsFunc(offs, func(o form) bool { return o.a == c.b }) {
			return nil
		}
	}
	gather := slices.ContainsFunc(offs, func(f form) bool { return f.op == fGather })
	at := func(g int) int { return slices.IndexFunc(offs, func(f form) bool { return f.a == g }) }
	step := func(g int) (s int64) { // how far register g moves an iteration, in counter steps
		f := form{b: g, kb: 1}
		if i := at(g); i >= 0 {
			f = offs[i]
		}
		if f.b == ctr {
			s += f.kb
		}
		if f.c == ctr {
			s += f.kc
		}
		return s
	}
	fk := &fkern{sh: sh, ko: offs, ca: -1, cs: ctr}
	f32 := true
	for i, l := range sh.leaves {
		if !buffer(l.src) || fdst[l.reg] {
			return nil
		}
		fk.lr[i], fk.lo[i], fk.lk[i], fk.lw[i], fk.lc[i] = l.reg, at(l.reg), l.k, 4, step(l.reg)
		if len(rest) == 1 && l.reg == rest[0].a { // a copy moves as what it copies
			fk.lc[i] = step(rest[0].b)
		}
		if l.op == OpLdF64 {
			fk.lw[i], f32 = 8, false
		}
	}
	if len(rest) == 1 {
		fk.ca, fk.cb = rest[0].a, rest[0].b
	}
	lr, lk, ca, cb := fk.lr, fk.lk, fk.ca, fk.cb // a ring: two reads are the other two's, an iteration on
	switch {
	case !f32 || gather:
	case sh.hyp && lr == [4]int{cb, ca, cb, ca} && lk[0] == lk[1] && lk[2] == lk[3]:
		fk.loop = floopHyp32
	case !sh.hyp && lr == [4]int{ca, cb, cb, ca} && lk[0] == lk[2] && lk[1] == lk[3]:
		fk.loop = floopCross32
	}
	top, tc, tkc, tk, sc, skc, sk := t.op, t.c, t.kc, t.k, st.c, st.kc, st.k
	return func(m *Machine) bool {
		v := &m.v[src]
		if v.K != VBytes || len(v.B) < 8 { // a read of none of it
			return false
		}
		r, buf, last := m.r, v.B, int64(len(v.B))
		c, y, inc := r[ctr], r[tc]*tkc+tk, r[sc]*skc+sk
		k, j := runLen(m.fuel, n, top, back, c, inc, y), int64(0) // j: iterations run
		acc, t, u := math.Float64frombits(uint64(r[sh.s])), 0.0, 0.0
		if fk.loop == nil {
			j, acc, t, u = fk.each(r, buf, k, inc, acc)
		} else { // the first iteration on its own, as a copy reads apart; then from the second
			j, acc, t, u = fk.each(r, buf, min(k, 1), inc, acc)
			var p, d [4]int64 // where the loop starts reading, and how far that moves an iteration
			for i := range p {
				if p[i], d[i] = r[fk.lr[i]]+fk.lk[i], inc*fk.lc[i]; fk.lo[i] >= 0 {
					p[i] += d[i] // the offset the first iteration left, moved on
				}
				k = min(k, room(p[i], d[i], last-fk.lw[i], k-1)+1)
			}
			if j == 1 && k > 1 {
				acc, t, u = fk.loop(fk, buf, k-1, p, d, acc)
				j = k
			}
		}
		if j == 0 {
			return false
		}
		r[ctr] = c + (j-1)*inc // the registers as the last iteration left them
		for i := range fk.ko {
			fk.ko[i].set(r, buf)
		}
		fk.step(r, inc)
		r[sh.s] = int64(math.Float64bits(acc))
		if sh.hyp {
			r[sh.t], r[sh.u] = int64(math.Float64bits(t)), int64(math.Float64bits(u))
		}
		m.fuel -= j * n
		return j == k && passes(top, r[ctr], y) != back
	}
}

// fkern is what compiling a float kernel fixes.
type fkern struct {
	sh         fshape
	ko         []form   // the offsets
	lr, lo     [4]int   // each read's register, and the offset that is, or -1
	lk, lw, lc [4]int64 // its constant, its width, how far it moves
	ca, cb, cs int      // the copy's registers, or -1; the counter
	loop       floop    // nil: each
}

// A floop runs n iterations of a float kernel of its shape and layout
// from reads at p, moved by d an iteration, and says the sum and the
// last t and u.
type floop func(k *fkern, b []byte, n int64, p, d [4]int64, acc float64) (float64, float64, float64)

func floopCross32(k *fkern, b []byte, n int64, p, d [4]int64, acc float64) (float64, float64, float64) {
	p1, p2, step, left, op := p[1], p[2], d[1], k.sh.left, k.sh.op
	va, vd := fload(b, p[0], 4), fload(b, p[3], 4) // then what reads 2 and 1 read an iteration before
	for j := n; j > 0; j-- {
		vb, vc := fload(b, p1, 4), fload(b, p2, 4)
		acc = fsum(left, op, acc, fcross(va, vb, vc, vd))
		va, vd, p1, p2 = vc, vb, p1+step, p2+step
	}
	return acc, 0, 0
}

func floopHyp32(k *fkern, b []byte, n int64, p, d [4]int64, acc float64) (float64, float64, float64) {
	p0, p2, step, left, op := p[0], p[2], d[0], k.sh.left, k.sh.op
	vb, vd := fload(b, p[1], 4), fload(b, p[3], 4) // then what reads 0 and 2 read an iteration before
	var q, t, u float64
	for j := n; j > 0; j-- {
		va, vc := fload(b, p0, 4), fload(b, p2, 4)
		q, t, u = fhyp(va, vb, vc, vd)
		acc = fsum(left, op, acc, q)
		vb, vd, p0, p2 = va, vc, p0+step, p2+step
	}
	return acc, t, u
}

// each runs up to n iterations of any float kernel a step of registers r
// at a time, checking every read, and says how many it ran and what a
// floop says.
func (k *fkern) each(r []int64, b []byte, n, inc int64, acc float64) (j int64, _, t, u float64) {
	ko, lr, lk, lw, sh, size := k.ko, k.lr, k.lk, k.lw, k.sh, int64(len(b))
	for ; j < n && (len(ko) < 1 || ko[0].set(r, b)) && (len(ko) < 2 || ko[1].set(r, b)); j++ {
		p0, p1, p2, p3 := r[lr[0]]+lk[0], r[lr[1]]+lk[1], r[lr[2]]+lk[2], r[lr[3]]+lk[3]
		if uint64(p0) > uint64(size-lw[0]) || uint64(p1) > uint64(size-lw[1]) ||
			uint64(p2) > uint64(size-lw[2]) || uint64(p3) > uint64(size-lw[3]) {
			break
		}
		f0, f1, f2, f3 := fload(b, p0, lw[0]), fload(b, p1, lw[1]), fload(b, p2, lw[2]), fload(b, p3, lw[3])
		var q float64
		if sh.hyp {
			q, t, u = fhyp(f0, f1, f2, f3)
		} else {
			q = fcross(f0, f1, f2, f3)
		}
		acc = fsum(sh.left, sh.op, acc, q)
		k.step(r, inc)
	}
	return j, acc, t, u
}

// step runs the end of an iteration on registers r: the copy and the
// counter's step.
func (k *fkern) step(r []int64, inc int64) {
	if k.ca >= 0 {
		r[k.ca] = r[k.cb]
	}
	r[k.cs] += inc
}

// fcross and fhyp are the two shapes' terms: the shoelace's a·b − c·d,
// and the segment's sqrt(t + u·u) with t = (a−b)² and u = c−d, which it
// returns too. Each operation rounds to float64 on its own, as the
// reference's do: the conversions keep the Go compiler from fusing a
// multiply and an add into one FMA.
func fcross(a, b, c, d float64) float64 { return float64(float64(a*b) - float64(c*d)) }

func fhyp(a, b, c, d float64) (float64, float64, float64) {
	t, u := float64(a-b), float64(c-d)
	t = float64(t * t)
	return math.Sqrt(float64(t + float64(u*u))), t, u
}

// set computes a float kernel's offset, an fAffine or fGather form, into
// registers r, or reports that its read of buf would trap.
func (f *form) set(r []int64, buf []byte) bool {
	o := r[f.b]*f.kb + r[f.c]*f.kc + f.k
	if f.op == fGather {
		if uint64(o) > uint64(len(buf)-4) {
			return false
		}
		o = f.gather(buf, o)
	}
	r[f.a] = o
	return true
}

// gather is an fGather form's value where its index is at o.
func (f *form) gather(b []byte, o int64) int64 {
	return int64(int32(binary.BigEndian.Uint32(b[o:o+4])))*f.km + f.ka
}

// fshape is the shape of a float kernel's statements, one of two: the
// shoelace's sum of a cross product, s = s op (a*b - c*d); and a
// segment's length added to a sum, the four statements t = a - b;
// t = t*t; u = c - d; s = s + sqrt(t + u*u) (hyp). Either sum may have
// its operands the other way round (left false). The leaves a, b, c and
// d are float reads.
type fshape struct {
	leaves  [4]*fx
	hyp     bool
	op      Op // the cross's: addf or subf
	left    bool
	s, t, u int
}

func fshapeOf(fs []form) (sh fshape, ok bool) {
	load := func(x *fx) bool { return x.op == OpLdF32 || x.op == OpLdF64 }
	pair := func(x *fx, op Op) bool { return x.op == op && load(x.a) && load(x.b) }
	isReg := func(x *fx, r int) bool { return *x == fx{op: OpLoad, reg: r} }
	square := func(x *fx, r int) bool { return x.op == OpMulF && isReg(x.a, r) && isReg(x.b, r) }
	if len(fs) == 1 { // the cross
		x, s := fs[0].x, fs[0].a
		if x.op != OpAddF && x.op != OpSubF {
			return sh, false
		}
		sh.op, sh.s, sh.left = x.op, s, isReg(x.a, s)
		c := x.a
		if sh.left {
			c = x.b
		} else if !isReg(x.b, s) {
			return sh, false
		}
		if c.op != OpSubF || !pair(c.a, OpMulF) || !pair(c.b, OpMulF) {
			return sh, false
		}
		sh.leaves = [4]*fx{c.a.a, c.a.b, c.b.a, c.b.b}
		return sh, true
	}
	if len(fs) != 4 { // the hypotenuse
		return sh, false
	}
	sh.hyp, sh.op, sh.t, sh.u, sh.s = true, OpAddF, fs[0].a, fs[2].a, fs[3].a
	x := fs[3].x
	if x.op != OpAddF {
		return sh, false
	}
	sqrt := x.a
	if sh.left = isReg(x.a, sh.s); sh.left {
		sqrt = x.b
	} else if !isReg(x.b, sh.s) {
		return sh, false
	}
	if !pair(fs[0].x, OpSubF) || fs[1].a != sh.t || !square(fs[1].x, sh.t) || !pair(fs[2].x, OpSubF) ||
		sh.t == sh.u || sh.u == sh.s || sh.s == sh.t || sqrt.op != OpHost {
		return sh, false
	}
	if y := sqrt.a; y.op != OpAddF || !isReg(y.a, sh.t) || !square(y.b, sh.u) {
		return sh, false
	}
	sh.leaves = [4]*fx{fs[0].x.a, fs[0].x.b, fs[2].x.a, fs[2].x.b}
	return sh, true
}

// fload is the float of w bytes (4 or 8) of b at o.
func fload(b []byte, o, w int64) float64 {
	if w == 8 {
		return math.Float64frombits(binary.BigEndian.Uint64(b[o : o+8]))
	}
	return float64(math.Float32frombits(binary.BigEndian.Uint32(b[o : o+4])))
}

// fsum is a shape's sum of acc and q, op addf or subf, rounded to
// float64; left, acc is its first operand.
func fsum(left bool, op Op, acc, q float64) float64 {
	if !left {
		acc, q = q, acc
	}
	if op == OpSubF {
		return float64(acc - q)
	}
	return float64(acc + q)
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
// own register, and so it is again on every way out. The registers'
// classes on entry are what the verifier proved there; in the block, a
// register takes the class of what is written to it.
func (c *fcomp) block(b *block, blockAt []*block) {
	c.b, c.stack = b, c.stack[:0]
	st := c.ff.states[b.first]
	for n := range c.cls {
		c.cls[n] = akAny
	}
	for l, k := range st.locals {
		c.cls[c.fn.nargs+l] = class(k)
	}
	for d, k := range st.stack {
		c.cls[c.slot(d)] = class(k)
		c.push(reg(k, c.slot(d)))
	}
	for c.at = b.first; c.at < c.end; c.at++ {
		switch in := c.ff.ins[c.at]; in.op {
		case OpJmp:
			c.flush()
			b.to = blockAt[in.operand]
			c.leave(b.to)
			return
		case OpJz, OpJnz:
			o := c.pop()
			c.flush()
			c.leave(blockAt[in.operand], blockAt[c.at+1])
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
			c.leave(b.to)
			return
		default:
			c.instr(in)
		}
	}
	c.flush()
	b.to = blockAt[c.end]
	c.leave(b.to)
}

// leave boxes, on the way out of a block, every register a successor
// reads boxed — it holds different kinds on different ways in — that
// the block holds unboxed; the unboxed copy stays for the others.
func (c *fcomp) leave(succs ...*block) {
	boxed := map[int]bool{}
	box := func(n int, want absKind) {
		k := c.cls[n]
		if !isScalar(k) || isScalar(want) || boxed[n] {
			return
		}
		boxed[n] = true
		if k == akFloat {
			c.emit(func(m *Machine) { m.v[n] = Value{K: VFloat, F: math.Float64frombits(uint64(m.r[n]))} })
			return
		}
		vk := VKind(k)
		c.emit(func(m *Machine) { m.v[n] = Value{K: vk, I: m.r[n]} })
	}
	for _, s := range succs {
		if s == nil {
			continue
		}
		st := c.ff.states[s.first]
		for l, k := range st.locals {
			box(c.fn.nargs+l, k)
		}
		for d, k := range st.stack {
			box(c.slot(d), k)
		}
	}
}

func (c *fcomp) site() site     { return site{c.fn, c.at} }
func (c *fcomp) slot(d int) int { return c.fn.nargs + c.fn.nlocals + d }
func (c *fcomp) push(o operand) { c.stack = append(c.stack, o) }
func (c *fcomp) emit(s stmt)    { c.emitAs(s, form{}) }
func (c *fcomp) top() int       { return c.slot(len(c.stack)) }

// pushReg pushes the value of kind k a statement has just left boxed in
// the register past the stack's top.
func (c *fcomp) pushReg(k absKind) {
	c.cls[c.top()] = akAny
	c.push(reg(k, c.top()))
}

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
	if o.loc == locReg && isScalar(c.cls[o.n]) {
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
	case isScalar(c.cls[n]):
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
	case isScalar(c.cls[n]):
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

// assign emits the statement that stores o in register n, in the file
// o's kind calls for, which is n's class from there on: an fAffine form
// is a register-file statement of one closure.
func (c *fcomp) assign(n int, o operand) {
	f, lin := c.lin(o)
	switch {
	case !isScalar(o.k):
		bx := c.into(o)
		c.emit(func(m *Machine) { bx(m, &m.v[n]) })
	case o.k == akFloat:
		f = form{}
		if x := c.fxOf(o); x != nil {
			f = form{op: fFloat, a: n, x: x}
		}
		e := c.fval(o, nil)
		c.emitAs(func(m *Machine) { m.r[n] = int64(math.Float64bits(e(m))) }, f)
	case lin:
		f.a = n
		c.emitAs(f.stmt(), f)
	default:
		switch f = o.form; {
		case f.op == fLoadAdd && f.a == n && o.add == 0:
		case f.op == fGather:
			f.a, f.ka = n, o.add
		default:
			f = form{}
		}
		e := c.ival(o, 0, nil)
		c.emitAs(func(m *Machine) { m.r[n] = e(m) }, f)
	}
	c.cls[n] = class(o.k)
}

// fxOf is float operand o's shape, when a float kernel can compute it.
func (c *fcomp) fxOf(o operand) *fx {
	if o.x == nil && o.loc == locReg && c.cls[o.n] == akFloat {
		return &fx{op: OpLoad, reg: o.n}
	}
	return o.x
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
	c.cls[size] = akAny // where ret leaves the result
	c.push(reg(c.flow[fi].ret, size))
	c.flush()
}
