package vm

import (
	"fmt"
	"strconv"
)

// This file implements the static cost half of the verification
// ladder: after the dataflow pass has proven a program safe, the cost
// pass prices it. It builds natural loops over each function's CFG
// (dominator-based back-edge detection), classifies every loop as
// statically bounded or input-dependent, and derives:
//
//   - a per-invocation worst-case instruction budget — exact for
//     straight-line code, linear in trip count for bounded loops, and
//     saturating at the machine fuel limit otherwise (the machine
//     traps at MaxFuel, so the saturated budget stays sound);
//   - weighted cost units, split into a fixed per-invocation part and a
//     per-trip part for input-dependent loops, using the cost column of
//     opInfo and hostInfo (opcode.go) — the optimizer's CPU estimate for
//     shipped code.
//
// Scratch, allocation and effects are bounded at run time, not here:
// the machine's stack, call-depth and MaxAlloc limits trap a program
// that exceeds them.
//
// The soundness contract, pinned by FuzzCostSound against the reference
// interpreter's instruction counter: for every verified program,
// BudgetInstrs >= the number of instructions any single invocation
// executes (when run under the default fuel limit).

// Budget and unit arithmetic saturates at the machine fuel limit: the
// machine traps after MaxFuel instructions, so a saturated budget
// still upper-bounds any single invocation.
var costCap = DefaultLimits.MaxFuel

func capAdd(a, b, cap int64) int64 {
	s := a + b
	if s < a || s > cap {
		return cap
	}
	return s
}

func capMul(a, b, cap int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > cap/b {
		return cap
	}
	return a * b
}

// CostInfo is the static cost summary of a verified program: the
// per-invocation worst case over every function as an entry point. It
// is stamped into catalog release manifests alongside the digest and
// re-checked on load.
type CostInfo struct {
	// Bounded reports whether every loop in the program (including
	// through calls) has a statically known trip count. When false,
	// BudgetInstrs saturates at the machine fuel limit.
	Bounded bool
	// BudgetInstrs is the worst-case number of interpreted instructions
	// one invocation can execute, saturating at DefaultLimits.MaxFuel.
	BudgetInstrs int64
	// FixedUnits is the weighted cost (op/host cost tables) of the work
	// outside input-dependent loops — paid once per invocation.
	FixedUnits int64
	// PerTripUnits is the weighted cost of one trip through the
	// program's input-dependent loops — the per-input-byte slope the
	// optimizer multiplies by argument size.
	PerTripUnits int64
}

// String renders the canonical manifest encoding, e.g.
// "instrs=184;fixed=220;pertrip=0".
// Unbounded budgets render as "unbounded". The release manifest stores
// it, and LoadDir compares it byte-for-byte with a fresh verification.
func (c CostInfo) String() string {
	instrs := "unbounded"
	if c.Bounded {
		instrs = strconv.FormatInt(c.BudgetInstrs, 10)
	}
	return fmt.Sprintf("instrs=%s;fixed=%d;pertrip=%d", instrs, c.FixedUnits, c.PerTripUnits)
}

// funcCost accumulates the per-function cost facts, folded callees
// first like the stack-bound pass.
type funcCost struct {
	bounded bool
	budget  int64 // per-invocation instruction bound
	fixed   int64 // weighted units outside input-dependent loops
	perTrip int64 // weighted units per input-dependent-loop trip
}

// costAnalyze is the in-ladder entry point, called from Analyze after
// the dataflow pass has proven every instruction reachable and every
// jump target valid. order is callees-first.
func costAnalyze(p *Program, instrs [][]instr, order []int) ([]funcCost, CostInfo) {
	res := make([]funcCost, len(p.Funcs))
	for _, fi := range order {
		res[fi] = costFunc(p, instrs[fi], res)
	}

	// Program-level summary: the worst case over every function as an
	// entry point (any function of a shipped class may be invoked).
	prog := CostInfo{Bounded: true}
	for fi := range p.Funcs {
		fc := &res[fi]
		if !fc.bounded {
			prog.Bounded = false
		}
		if fc.budget > prog.BudgetInstrs {
			prog.BudgetInstrs = fc.budget
		}
		if fc.fixed > prog.FixedUnits {
			prog.FixedUnits = fc.fixed
		}
		if fc.perTrip > prog.PerTripUnits {
			prog.PerTripUnits = fc.perTrip
		}
	}
	return res, prog
}

// costFunc prices one function: natural-loop detection over its CFG,
// trip-count derivation for the bounded-loop idiom, and a weighted fold
// with callee costs inlined at each call site.
func costFunc(p *Program, ins []instr, res []funcCost) funcCost {
	n := len(ins)
	fc := funcCost{bounded: true}

	succs := make([][]int, n)
	preds := make([][]int, n)
	for j, in := range ins {
		var ss []int
		switch in.op {
		case OpRet:
		case OpJmp:
			ss = []int{in.operand}
		case OpJz, OpJnz:
			ss = []int{in.operand}
			if j+1 < n {
				ss = append(ss, j+1)
			}
		default:
			if j+1 < n {
				ss = append(ss, j+1)
			}
		}
		succs[j] = ss
		for _, s := range ss {
			preds[s] = append(preds[s], j)
		}
	}

	idom, rpo := dominatorTree(succs, preds)
	dominates := func(a, b int) bool {
		for {
			if b == a {
				return true
			}
			if b == 0 {
				return false
			}
			b = idom[b]
		}
	}

	// Natural loops: one per header, merging every back edge u->h where
	// h dominates u. The dataflow pass has already rejected unreachable
	// code, so every node carries a valid dominator.
	loops := findLoops(succs, preds, dominates)
	for li := range loops {
		classifyLoop(p, ins, preds, &loops[li], dominates)
	}

	// Per-instruction execution multiplier: the product of (trips+1)
	// over enclosing bounded loops — the +1 charges the final, exiting
	// guard evaluation and keeps zero-trip loops sound — and an
	// "unbounded" mark for instructions under any input-dependent loop.
	mult := make([]int64, n)
	unbounded := make([]bool, n)
	for j := range mult {
		mult[j] = 1
	}
	for li := range loops {
		l := &loops[li]
		for j := 0; j < n; j++ {
			if !l.body[j] {
				continue
			}
			if l.bounded {
				mult[j] = capMul(mult[j], l.trips+1, costCap)
			} else {
				unbounded[j] = true
			}
		}
	}
	// A cycle no header dominates is no natural loop: nothing bounds it.
	for u := range succs {
		for _, h := range succs[u] {
			if rpo[h] <= rpo[u] && !dominates(h, u) {
				fc.bounded = false
			}
		}
	}

	for j, in := range ins {
		w, step := opInfo[in.op].cost, int64(1)
		var callee *funcCost
		if in.op == OpHost {
			w += hostInfo[in.operand].cost
		}
		// A bcopy takes a unit of fuel per 8 bytes moved, on top of its
		// own. Its length is static only when the non-negative `pushi K`
		// laid out before it is the one way in.
		if in.op == OpBCopy {
			if j > 0 && ins[j-1].op == OpPushI && ins[j-1].operand >= 0 && len(preds[j]) == 1 {
				k := int64(ins[j-1].operand)
				w, step = w+k>>3, step+k>>3
			} else {
				unbounded[j] = true
			}
		}
		if in.op == OpCall {
			callee = &res[in.operand]
			if !callee.bounded {
				fc.bounded = false
			}
		}

		// Raw instruction budget: this instruction once per execution,
		// plus the callee's whole budget at call sites.
		if unbounded[j] {
			fc.bounded = false
		} else {
			if callee != nil {
				step = capAdd(step, callee.budget, costCap)
			}
			fc.budget = capAdd(fc.budget, capMul(mult[j], step, costCap), costCap)
		}

		// Weighted units: fixed work multiplies out bounded trip counts;
		// anything under an input-dependent loop lands on the per-trip
		// slope instead.
		units := w
		perTrip := int64(0)
		if callee != nil {
			units = capAdd(units, callee.fixed, costCap)
			perTrip = callee.perTrip
		}
		if unbounded[j] {
			fc.perTrip = capAdd(fc.perTrip, capAdd(units, perTrip, costCap), costCap)
		} else {
			fc.fixed = capAdd(fc.fixed, capMul(mult[j], units, costCap), costCap)
			fc.perTrip = capAdd(fc.perTrip, capMul(mult[j], perTrip, costCap), costCap)
		}
	}
	if !fc.bounded {
		fc.budget = costCap
	}
	return fc
}

// dominatorTree computes immediate dominators over an instruction-level
// CFG (Cooper-Harvey-Kennedy iterative algorithm on reverse postorder).
// Entry is node 0; idom[0] == 0.
func dominatorTree(succs, preds [][]int) (idom, rpoNum []int) {
	n := len(succs)
	rpo := make([]int, 0, n)
	seen := make([]bool, n)
	var dfs func(int)
	dfs = func(u int) {
		seen[u] = true
		for _, v := range succs[u] {
			if !seen[v] {
				dfs(v)
			}
		}
		rpo = append(rpo, u)
	}
	dfs(0)
	for i, j := 0, len(rpo)-1; i < j; i, j = i+1, j-1 {
		rpo[i], rpo[j] = rpo[j], rpo[i]
	}
	rpoNum = make([]int, n)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, u := range rpo {
		rpoNum[u] = i
	}

	idom = make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[0] = 0
	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == 0 {
				continue
			}
			newIdom := -1
			for _, q := range preds[b] {
				if idom[q] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = q
				} else {
					newIdom = intersect(q, newIdom)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom, rpoNum
}

// natLoop is one natural loop: a header plus the union of the bodies of
// every back edge targeting it.
type natLoop struct {
	header  int
	backs   []int  // back-edge sources
	body    []bool // membership by instruction index
	bounded bool
	trips   int64 // worst-case trip count when bounded
}

// findLoops detects back edges (u -> h with h dominating u) and builds
// the natural loop body of each header by backward reachability.
func findLoops(succs, preds [][]int, dominates func(a, b int) bool) []natLoop {
	n := len(succs)
	byHeader := make(map[int]*natLoop)
	var headers []int
	for u := 0; u < n; u++ {
		for _, h := range succs[u] {
			if !dominates(h, u) {
				continue
			}
			l := byHeader[h]
			if l == nil {
				l = &natLoop{header: h, body: make([]bool, n)}
				l.body[h] = true
				byHeader[h] = l
				headers = append(headers, h)
			}
			l.backs = append(l.backs, u)
			if !l.body[u] {
				l.body[u] = true
				stack := []int{u}
				for len(stack) > 0 {
					v := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					for _, q := range preds[v] {
						if !l.body[q] {
							l.body[q] = true
							stack = append(stack, q)
						}
					}
				}
			}
		}
	}
	loops := make([]natLoop, 0, len(headers))
	for _, h := range headers {
		loops = append(loops, *byHeader[h])
	}
	return loops
}

// classifyLoop matches the bounded counting-loop idiom and derives a
// worst-case trip count. The idiom is deliberately narrow — anything
// that does not match is input-dependent:
//
//	pushi I0           ; init, immediately before the header,
//	store c            ;   the loop's only entry from outside
//	h: load c          ; guard anchored at the header
//	   pushi C         ;   (or const with an int constant)
//	   lt|le|gt|ge
//	   jz|jnz t        ; exactly one successor leaves the loop
//	   ... load c; pushi K; addi|subi; store c ...   ; the only store
//	                   ;   of c in the body, dominating every back edge
//
// The update must step toward the bound (K >= 1). A path skipping the
// update cannot reach a back edge (dominance), and extra executions of
// the update inside a nested loop only move the counter faster, so the
// derived trip count upper-bounds the real one.
func classifyLoop(p *Program, ins []instr, preds [][]int, l *natLoop, dominates func(a, b int) bool) {
	n := len(ins)
	h := l.header
	if h < 2 || h+3 >= n {
		return
	}
	if ins[h].op != OpLoad {
		return
	}
	c := ins[h].operand
	limit, ok := intOperand(p, ins[h+1])
	if !ok {
		return
	}
	cmp := ins[h+2].op
	if cmp != OpLt && cmp != OpLe && cmp != OpGt && cmp != OpGe {
		return
	}
	jop := ins[h+3].op
	if jop != OpJz && jop != OpJnz {
		return
	}
	if !l.body[h+1] || !l.body[h+2] || !l.body[h+3] {
		return
	}
	t := ins[h+3].operand
	jumpOut := !l.body[t]
	fallOut := h+4 >= n || !l.body[h+4]
	if jumpOut == fallOut {
		return
	}
	// continueOnB: does staying in the loop require the comparison to
	// hold? Jz leaves on false, Jnz on true — combined with which
	// successor exits, this fixes the continuation predicate.
	continueOnB := (jop == OpJz) == jumpOut

	// Init: every entry from outside the body must be the fall-through
	// of "pushi I0; store c" laid out immediately before the header.
	for _, q := range preds[h] {
		if !l.body[q] && q != h-1 {
			return
		}
	}
	if ins[h-1].op != OpStore || ins[h-1].operand != c || l.body[h-1] {
		return
	}
	init, ok := intOperand(p, ins[h-2])
	if !ok {
		return
	}

	// Update: exactly one store of c in the body, in the strict
	// load/pushi/addi-or-subi/store shape, dominating every back edge.
	s := -1
	for j := 0; j < n; j++ {
		if l.body[j] && ins[j].op == OpStore && ins[j].operand == c {
			if s >= 0 {
				return
			}
			s = j
		}
	}
	if s < 3 || !l.body[s-3] {
		return
	}
	if ins[s-3].op != OpLoad || ins[s-3].operand != c || ins[s-2].op != OpPushI {
		return
	}
	step := int64(ins[s-2].operand)
	dir := ins[s-1].op
	if (dir != OpAddI && dir != OpSubI) || step < 1 {
		return
	}
	for _, u := range l.backs {
		if !dominates(s, u) {
			return
		}
	}

	// Normalize to "continue while c OP limit" and intersect with the
	// step direction: an ascending counter needs an upper bound, a
	// descending one a lower bound. The wrong pairing either never
	// enters (zero trips) or never terminates by counting (unbounded).
	op := cmp
	if !continueOnB {
		switch cmp {
		case OpLt:
			op = OpGe
		case OpLe:
			op = OpGt
		case OpGt:
			op = OpLe
		case OpGe:
			op = OpLt
		}
	}
	ceilDiv := func(a, b int64) int64 {
		if a <= 0 {
			return 0
		}
		return (a + b - 1) / b
	}
	switch {
	case dir == OpAddI && op == OpLt:
		l.bounded, l.trips = true, ceilDiv(limit-init, step)
	case dir == OpAddI && op == OpLe:
		l.bounded, l.trips = true, ceilDiv(limit-init+1, step)
	case dir == OpSubI && op == OpGt:
		l.bounded, l.trips = true, ceilDiv(init-limit, step)
	case dir == OpSubI && op == OpGe:
		l.bounded, l.trips = true, ceilDiv(init-limit+1, step)
	case dir == OpAddI && op == OpGt && init <= limit,
		dir == OpAddI && op == OpGe && init < limit,
		dir == OpSubI && op == OpLt && init >= limit,
		dir == OpSubI && op == OpLe && init > limit:
		// Continuation predicate false on entry: zero trips.
		l.bounded, l.trips = true, 0
	}
}

// intOperand returns the static int value an instruction pushes, for
// OpPushI and OpConst-of-int.
func intOperand(p *Program, in instr) (int64, bool) {
	switch in.op {
	case OpPushI:
		return int64(in.operand), true
	case OpConst:
		if in.operand < len(p.Consts) && p.Consts[in.operand].K == VInt {
			return p.Consts[in.operand].I, true
		}
	}
	return 0, false
}
