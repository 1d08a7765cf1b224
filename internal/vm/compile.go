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
	kernel *kern // whole iterations in one call, or nil
}

// form is a statement, a branch test or an int operand's value in a
// shape a loop kernel runs without a closure; the zero form is none.
// An operand's fAffine and fGather forms leave k and ka to its add.
//
//	fAffine   r[a] = r[b]*kb + r[c]*kc + k
//	fLoad     v[src].B[r[c]+kc]
//	fLoadAdd  r[a] += v[src].B[r[c]+kc]
//	fCopy     v[dst].B[r[b]+kb] = v[src].B[r[c]+kc], the buffer popped; a is -1
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

// fx is a float operand's value in the shape a kernel computes it
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
	x    *fx   // a float's shape, when a kernel can compute it
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
	l.kernel = kernel(c.forms[b], c.tests[h])
	b.loop = l
}

// kern is a loop kernel: a loop whose every statement has a form, run
// whole iterations at a time by one call.
type kern struct {
	t        form     // the test, of counter t.b
	td       [2]int64 // how far t.b moves an iteration, in counter steps
	offs     []form   // the derived offsets
	body     uint8    // fLoadAdd, fCopy or fFloat
	sum      int      // the sum's register
	sh       fshape   // a float body's shape
	src, dst int      // the buffer read, and the one written: a copy's, else src
	ax       []access // a byte body's read and write; a float body's four leaves
	ca, cb   int      // the carried copy r[ca] = r[cb]; ca -1: none
	steps    []form   // the counters' steps: at most two, a byte body's offset registers
	ring     bool     // a float body over a ring of ldf32 vertices
}

// access is w bytes of buffer v[buf].B at r[reg]+k. It moves ds·(the
// counters' steps) an iteration; a read through the carried copy has ds
// zero, as a ring reads it once, on entry, and carries it on.
type access struct {
	reg, buf int
	k, w     int64
	ds       [2]int64
}

// kernel compiles a loop to a kernel, or nil, in one pass over the forms
// fs of its statements. In order: derived offsets, fAffine or fGather of
// counters and registers the loop does not write (fixed); one body, a
// byte sum (fLoadAdd), a byte copy (fCopy) or fshapeOf's fFloat shapes;
// at most one carried copy r[a] = r[b]; the counters' steps, by fixed
// registers. Test t compares a counter with a fixed register or a
// constant. A byte body's counters are its offset registers, and it has
// no derived offset or copy; a float body steps one counter. No register
// but a float's is written twice.
func kernel(fs []form, t form) *kern {
	step := func(f form) bool { return f.op == fAffine && f.a == f.b && f.kb == 1 }
	i, j := 0, 0 // fs[:i] the offsets, fs[i:j] the body
	for i < len(fs) && (fs[i].op == fGather || fs[i].op == fAffine && !step(fs[i])) {
		i++
	}
	if j = i; j < len(fs) && (fs[j].op == fLoadAdd || fs[j].op == fCopy) {
		j++
	}
	for j < len(fs) && fs[j].op == fFloat && fs[i].op == fFloat {
		j++
	}
	if i == j {
		return nil
	}
	k := &kern{t: t, offs: fs[:i], ca: -1, cb: -1, steps: fs[j:]}
	if c := fs[min(j, len(fs)-1)]; j < len(fs) && c.op == fAffine && !step(c) && c.kb == 1 && c.kc == 0 && c.k == 0 {
		k.ca, k.cb, k.steps = c.a, c.b, fs[j+1:]
	}
	written, fdst := map[int]bool{}, map[int]bool{}
	for _, f := range fs {
		if f.op != fFloat && written[f.a] {
			return nil
		}
		written[f.a], fdst[f.a] = true, fdst[f.a] || f.op == fFloat
	}
	f := fs[i]
	ctr := func(x int) bool { return x == t.b }
	if k.body, k.src, k.dst = f.op, f.src, f.dst; f.op == fLoadAdd {
		f.b, f.kb, k.dst, k.sum = f.c, f.kc, f.src, f.a
	}
	if f.op != fFloat {
		ctr = func(x int) bool { return x == f.b || x == f.c }
		if i > 0 || k.ca >= 0 || f.op == fLoadAdd && ctr(f.a) {
			return nil
		}
	}
	fixed := func(x int) bool { return !written[x] && !ctr(x) }
	if t.op < fEq || !ctr(t.b) || t.kc != 0 && !fixed(t.c) ||
		slices.ContainsFunc(k.steps, func(f form) bool { return !step(f) || !ctr(f.a) || f.kc != 0 && !fixed(f.c) }) {
		return nil
	}
	stride := func(x int) (d [2]int64) { // how far register x moves an iteration, in counter steps
		f := form{b: x, kb: 1}
		if i := slices.IndexFunc(k.offs, func(f form) bool { return f.a == x }); i >= 0 {
			f = k.offs[i]
		}
		for i, s := range k.steps {
			if s.a == f.b {
				d[i] += f.kb
			}
			if s.a == f.c {
				d[i] += f.kc
			}
		}
		return d
	}
	k.td = stride(t.b)
	if f.op != fFloat {
		k.ax = []access{{reg: f.c, buf: k.src, k: f.kc, w: 1, ds: stride(f.c)}, {reg: f.b, buf: k.dst, k: f.kb, w: 1, ds: stride(f.b)}}
		return k
	}
	sh, ok := fshapeOf(fs[i:j])
	if !ok || i > 2 || len(k.steps) != 1 || fdst[k.cb] {
		return nil
	}
	k.sh, k.sum, k.src, k.dst = sh, sh.s, sh.leaves[0].src, sh.leaves[0].src
	buffer := func(b int) bool { return b == k.src && !written[b] } // every read is of one buffer the loop does not write
	for _, f := range k.offs {
		if f.op == fGather && !buffer(f.src) || !fixed(f.b) && !ctr(f.b) || f.kc != 0 && !fixed(f.c) && !ctr(f.c) {
			return nil
		}
	}
	for _, l := range sh.leaves {
		if !buffer(l.src) || fdst[l.reg] {
			return nil
		}
		a := access{reg: l.reg, buf: k.src, k: l.k, w: 4, ds: stride(l.reg)}
		if l.op == OpLdF64 {
			a.w = 8
		}
		k.ax = append(k.ax, a)
	}
	on := func(i, j int) bool { // read i reads what read j did an iteration before
		return k.ax[i].reg == k.ca && k.ax[j].reg == k.cb && k.ax[i].k == k.ax[j].k && k.ax[i].w == 4 && k.ax[j].w == 4
	}
	k.ring = !slices.ContainsFunc(k.offs, func(f form) bool { return f.op == fGather }) &&
		(sh.hyp && on(1, 0) && on(3, 2) || !sh.hyp && on(0, 2) && on(3, 1))
	return k
}

// run runs loop l's whole iterations from where m stands, as many as the
// run rule and every access's room allow (a float body that is no ring:
// as its checks pass), and writes back registers and fuel; true: exited.
func (k *kern) run(m *Machine, l *loop) bool {
	s, d := &m.v[k.src], &m.v[k.dst]
	if s.K != VBytes || k.body == fCopy && (d.K != VBytes || !d.W) {
		return false
	}
	r, sb, sh, t := m.r, s.B, &k.sh, &k.t
	var x0, inc [2]int64 // each counter on entry, and its step
	for i := range k.steps {
		f := &k.steps[i]
		x0[i], inc[i] = r[f.a], r[f.c]*f.kc+f.k
	}
	y := r[t.c]*t.kc + t.k
	j := runLen(m.fuel, l.n, t.op, l.back, r[t.b], k.td[0]*inc[0]+k.td[1]*inc[1], y)
	acc, tt, u := math.Float64frombits(uint64(r[k.sum])), 0.0, 0.0
	if k.body == fFloat && !k.ring {
		j, acc, tt, u = k.checked(r, sb, j, inc[0], acc)
	} else {
		var p, dp [4]int64 // where each access starts, and how far it moves an iteration
		for i := range k.offs {
			k.offs[i].set(r, sb)
		}
		for i := range k.ax {
			a := &k.ax[i]
			p[i], dp[i] = r[a.reg]+a.k, a.ds[0]*inc[0]+a.ds[1]*inc[1]
			j = room(p[i], dp[i], int64(len(m.v[a.buf].B))-a.w, j)
		}
		if j > 0 {
			acc, tt, u = k.loop(r, sb, d.B, j, p, dp, acc)
		}
	}
	if j == 0 {
		return false
	}
	for i := range k.steps { // the registers as the last iteration left them
		r[k.steps[i].a] = x0[i] + (j-1)*inc[i]
	}
	for i := range k.offs {
		k.offs[i].set(r, sb)
	}
	if k.ca >= 0 {
		r[k.ca] = r[k.cb]
	}
	for i := range k.steps {
		r[k.steps[i].a] += inc[i]
	}
	if k.body == fFloat { // a cross's t and u are its sum's register, written last
		r[sh.t], r[sh.u], r[k.sum] = int64(math.Float64bits(tt)), int64(math.Float64bits(u)), int64(math.Float64bits(acc))
	}
	m.fuel -= j * l.n
	// A run cut short (room, checks, fuel) ends by runLen's iteration c+1, whose test says back.
	return passes(t.op, r[t.b], y) != l.back
}

// loop runs n ≥ 1 iterations, unchecked, in the loop the kernel's body
// and layout pick, its accesses starting at p and moving by d, and says
// a float body's sum and last t and u.
func (k *kern) loop(r []int64, sb, db []byte, n int64, p, d [4]int64, acc float64) (_, t, u float64) {
	switch sh := &k.sh; {
	case k.body == fLoadAdd:
		q, dq, total := p[0], d[0], r[k.sum]
		for ; dq == 1 && n >= 8; q, n = q+8, n-8 { // eight bytes at a time: a sum's order is free
			w := binary.LittleEndian.Uint64(sb[q:])
			w = w&0x00ff00ff00ff00ff + w>>8&0x00ff00ff00ff00ff
			w = w&0x0000ffff0000ffff + w>>16&0x0000ffff0000ffff
			total += int64(w&0xffffffff + w>>32)
		}
		for ; n > 0; n-- {
			total += int64(sb[q])
			q += dq
		}
		r[k.sum] = total
	case k.body == fCopy: // in order: a source aliasing the destination reads what was written
		for pi, po, di, do := p[0], p[1], d[0], d[1]; n > 0; n-- {
			db[po] = sb[pi]
			pi, po = pi+di, po+do
		}
	case sh.hyp: // a segment ring: reads 1 and 3 are what 0 and 2 read an iteration before
		p0, p2, step, vb, vd, left, op := p[0], p[2], d[0], fload(sb, p[1], 4), fload(sb, p[3], 4), sh.left, sh.op
		for ; n > 0; n-- {
			va, vc := fload(sb, p0, 4), fload(sb, p2, 4)
			q, qt, qu := fhyp(va, vb, vc, vd)
			acc, t, u, vb, vd, p0, p2 = fsum(left, op, acc, q), qt, qu, va, vc, p0+step, p2+step
		}
	default: // a shoelace ring: reads 0 and 3 are what 2 and 1 read an iteration before
		p1, p2, step, va, vd, left, op := p[1], p[2], d[1], fload(sb, p[0], 4), fload(sb, p[3], 4), sh.left, sh.op
		for ; n > 0; n-- {
			vb, vc := fload(sb, p1, 4), fload(sb, p2, 4)
			acc, va, vd, p1, p2 = fsum(left, op, acc, fcross(va, vb, vc, vd)), vc, vb, p1+step, p2+step
		}
	}
	return acc, t, u
}

// checked runs up to n iterations of a float body that is no ring a
// step of registers r at a time, the counter by d, checking every read,
// and says how many it ran, the sum and the last t and u.
func (k *kern) checked(r []int64, b []byte, n, d int64, acc float64) (j int64, _, t, u float64) {
	a, ko, sh, size, ca, cb, cs := [4]access(k.ax), k.offs, k.sh, int64(len(b)), k.ca, k.cb, k.steps[0].a
	for ; j < n && size >= 8 && (len(ko) < 1 || ko[0].set(r, b)) && (len(ko) < 2 || ko[1].set(r, b)); j++ {
		p0, p1, p2, p3 := r[a[0].reg]+a[0].k, r[a[1].reg]+a[1].k, r[a[2].reg]+a[2].k, r[a[3].reg]+a[3].k
		if uint64(p0) > uint64(size-a[0].w) || uint64(p1) > uint64(size-a[1].w) ||
			uint64(p2) > uint64(size-a[2].w) || uint64(p3) > uint64(size-a[3].w) {
			break
		}
		f0, f1, f2, f3 := fload(b, p0, a[0].w), fload(b, p1, a[1].w), fload(b, p2, a[2].w), fload(b, p3, a[3].w)
		var q float64
		if sh.hyp {
			q, t, u = fhyp(f0, f1, f2, f3)
		} else {
			q = fcross(f0, f1, f2, f3)
		}
		if acc = fsum(sh.left, sh.op, acc, q); ca >= 0 {
			r[ca] = r[cb]
		}
		r[cs] += d
	}
	return j, acc, t, u
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

// set computes a kernel's derived offset, an fAffine or fGather form, into
// registers r, or reports that its read of buf would trap.
func (f *form) set(r []int64, buf []byte) bool {
	o := r[f.b]*f.kb + r[f.c]*f.kc + f.k
	if f.op == fGather {
		if uint64(o) > uint64(len(buf)-4) {
			return false
		}
		o = int64(int32(binary.BigEndian.Uint32(buf[o:o+4])))*f.km + f.ka
	}
	r[f.a] = o
	return true
}

// fshape is the shape of a kernel's float body, one of two: the
// shoelace's sum of a cross product, s = s op (a*b - c*d); and a
// segment's length added to a sum, the four statements t = a - b;
// t = t*t; u = c - d; s = s + sqrt(t + u*u) (hyp). Either sum may have
// its operands the other way round (left false). The leaves a, b, c and
// d are float reads. A cross's t and u are its s.
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
	f := fs[len(fs)-1] // the sum, s = s op y
	x, y := f.x, f.x.a
	if x.op != OpAddF && x.op != OpSubF {
		return sh, false
	}
	if sh.op, sh.s, sh.t, sh.u, sh.left = x.op, f.a, f.a, f.a, isReg(x.a, f.a); sh.left {
		y = x.b
	} else if !isReg(x.b, f.a) {
		return sh, false
	}
	if len(fs) == 1 && y.op == OpSubF && pair(y.a, OpMulF) && pair(y.b, OpMulF) { // the cross
		sh.leaves = [4]*fx{y.a.a, y.a.b, y.b.a, y.b.b}
		return sh, true
	}
	if len(fs) != 4 || x.op != OpAddF || y.op != OpHost || y.a.op != OpAddF || !pair(fs[0].x, OpSubF) || !pair(fs[2].x, OpSubF) {
		return sh, false
	}
	sh.hyp, sh.t, sh.u = true, fs[0].a, fs[2].a // the hypotenuse
	if fs[1].a != sh.t || !square(fs[1].x, sh.t) || sh.t == sh.u || sh.u == sh.s || sh.s == sh.t ||
		!isReg(y.a.a, sh.t) || !square(y.a.b, sh.u) {
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

// fxOf is float operand o's shape, when a kernel can compute it.
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
