package vm

import (
	"fmt"
	"strconv"
	"strings"
)

// This file implements the static cost-and-resource analysis half of
// the verification ladder: after the dataflow pass has proven a program
// safe, the cost pass prices it. It builds natural loops over each
// function's CFG (dominator-based back-edge detection), classifies
// every loop as statically bounded or input-dependent, and derives:
//
//   - a per-invocation worst-case instruction budget — exact for
//     straight-line code, linear in trip count for bounded loops, and
//     saturating at the machine fuel limit otherwise (the machine
//     traps at MaxFuel, so the saturated budget stays sound);
//   - weighted cost units, split into a fixed per-invocation part and a
//     per-trip part for input-dependent loops, using the op/host cost
//     tables below — the optimizer's CPU estimate for shipped code;
//   - static scratch (operand stack + frame locals) and allocation
//     (OpBNew) bounds — the governor's admission-time reservation;
//   - a purity classification — whether an invocation can observe or
//     mutate state outside its own frame.
//
// The soundness contract, pinned by FuzzCostSound against the reference
// interpreter's instruction counter: for every verified program,
// BudgetInstrs >= the number of instructions any single invocation
// executes (when run under the default fuel limit).

// opCost is the per-opcode cost table, in abstract cost units where one
// unit is roughly one simple interpreted instruction. Every vm.Op has
// exactly one entry here and nowhere else — the costtable linter in
// internal/analysis enforces the inventory. Weights are relative, not
// nanoseconds: division, buffer allocation and call dispatch cost more
// than register-style moves.
var opCost = [numOps]int64{
	OpNop: 1, OpRet: 1, OpPop: 1, OpDup: 1, OpSwap: 1,
	OpConst: 1, OpPushI: 1, OpArg: 1, OpLoad: 1, OpStore: 1,
	OpGLoad: 2, OpGStore: 2,
	OpAddI: 1, OpSubI: 1, OpMulI: 2, OpDivI: 12, OpModI: 12, OpNegI: 1,
	OpAddF: 2, OpSubF: 2, OpMulF: 2, OpDivF: 8, OpNegF: 1,
	OpI2F: 1, OpF2I: 2,
	OpEq: 2, OpNe: 2, OpLt: 2, OpLe: 2, OpGt: 2, OpGe: 2,
	OpAnd: 1, OpOr: 1, OpNot: 1,
	OpJmp: 1, OpJz: 1, OpJnz: 1,
	OpCall: 8,
	OpBLen: 1, OpLdU8: 3, OpLdI32: 4, OpLdF32: 4, OpLdF64: 4,
	OpBNew: 12, OpStU8: 3, OpStI32: 4, OpStF32: 4,
	OpBSlice: 8, OpSLen: 1,
	OpHost:  4,
	OpBCopy: 8, // plus a unit per 8 bytes where the length is static
}

// hostCost is the per-intrinsic cost table: the extra units one OpHost
// dispatch of each capability costs on top of opCost[OpHost]. Every
// registered host intrinsic has exactly one entry (costtable linter).
var hostCost = [NumHost]int64{
	HostSqrt: 30, HostAbsF: 6, HostAbsI: 4, HostPow: 60,
	HostFloor: 8, HostCeil: 8, HostLog: 50, HostExp: 50,
}

// OpCost returns the cost-table weight of one opcode.
func OpCost(op Op) int64 {
	if int(op) >= len(opCost) {
		return 1
	}
	return opCost[op]
}

// HostCost returns the cost-table weight of one host intrinsic, on top
// of the OpHost dispatch cost.
func HostCost(id int) int64 {
	if id < 0 || id >= len(hostCost) {
		return 1
	}
	return hostCost[id]
}

// Budget and unit arithmetic saturates at the machine fuel limit: the
// machine traps after MaxFuel instructions, so a saturated budget
// still upper-bounds any single invocation. Allocation bounds saturate
// at MaxAlloc for the same reason.
var (
	costCap  = DefaultLimits.MaxFuel
	allocCap = DefaultLimits.MaxAlloc
)

// valueSlotBytes is the conservative per-slot footprint of one Value on
// the operand stack or in a frame's locals (struct header including the
// string and byte-slice views), used to convert the verifier's slot
// bounds into the byte-denominated scratch reservation the governor
// understands.
const valueSlotBytes = 64

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

// CostInfo is the static cost-and-resource summary of a verified
// program: the per-invocation worst case over every function as an
// entry point. It is stamped into catalog release manifests alongside
// the digest and re-checked on load.
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
	// ScratchBytes bounds the operand stack plus frame locals of the
	// deepest call chain, in bytes (valueSlotBytes per slot).
	ScratchBytes int64
	// AllocBounded reports whether every OpBNew size is a static
	// constant outside input-dependent loops.
	AllocBounded bool
	// AllocBytes is the worst-case bytes one invocation allocates,
	// saturating at DefaultLimits.MaxAlloc when unbounded.
	AllocBytes int64
	// Purity classifies observable effects: "pure" (reads only its
	// arguments), "writes-buffers" (may store into argument buffers),
	// or "stateful" (reads or writes aggregate globals).
	Purity string
}

// IsZero reports whether no cost analysis has been recorded.
func (c CostInfo) IsZero() bool { return c == CostInfo{} }

// String renders the canonical manifest encoding, e.g.
// "instrs=184;fixed=220;pertrip=0;scratch=1024;alloc=0;purity=pure".
// Unbounded budgets render as "unbounded". The encoding round-trips
// through ParseCostInfo and is compared byte-for-byte on LoadDir.
func (c CostInfo) String() string {
	instrs := "unbounded"
	if c.Bounded {
		instrs = strconv.FormatInt(c.BudgetInstrs, 10)
	}
	alloc := "unbounded"
	if c.AllocBounded {
		alloc = strconv.FormatInt(c.AllocBytes, 10)
	}
	return fmt.Sprintf("instrs=%s;fixed=%d;pertrip=%d;scratch=%d;alloc=%s;purity=%s",
		instrs, c.FixedUnits, c.PerTripUnits, c.ScratchBytes, alloc, c.Purity)
}

// ParseCostInfo decodes the canonical String encoding.
func ParseCostInfo(s string) (CostInfo, error) {
	var c CostInfo
	seen := make(map[string]bool, 6)
	for _, field := range strings.Split(s, ";") {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return CostInfo{}, fmt.Errorf("vm: cost info: malformed field %q", field)
		}
		if seen[k] {
			return CostInfo{}, fmt.Errorf("vm: cost info: duplicate field %q", k)
		}
		seen[k] = true
		num := func() (int64, error) {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				return 0, fmt.Errorf("vm: cost info: bad %s value %q", k, v)
			}
			return n, nil
		}
		var err error
		switch k {
		case "instrs":
			if v == "unbounded" {
				c.Bounded, c.BudgetInstrs = false, costCap
			} else if c.BudgetInstrs, err = num(); err != nil {
				return CostInfo{}, err
			} else {
				c.Bounded = true
			}
		case "fixed":
			if c.FixedUnits, err = num(); err != nil {
				return CostInfo{}, err
			}
		case "pertrip":
			if c.PerTripUnits, err = num(); err != nil {
				return CostInfo{}, err
			}
		case "scratch":
			if c.ScratchBytes, err = num(); err != nil {
				return CostInfo{}, err
			}
		case "alloc":
			if v == "unbounded" {
				c.AllocBounded, c.AllocBytes = false, allocCap
			} else if c.AllocBytes, err = num(); err != nil {
				return CostInfo{}, err
			} else {
				c.AllocBounded = true
			}
		case "purity":
			switch v {
			case "pure", "writes-buffers", "stateful":
				c.Purity = v
			default:
				return CostInfo{}, fmt.Errorf("vm: cost info: bad purity %q", v)
			}
		default:
			return CostInfo{}, fmt.Errorf("vm: cost info: unknown field %q", k)
		}
	}
	for _, k := range []string{"instrs", "fixed", "pertrip", "scratch", "alloc", "purity"} {
		if !seen[k] {
			return CostInfo{}, fmt.Errorf("vm: cost info: missing field %q", k)
		}
	}
	return c, nil
}

// CostAnalyze runs the full verification ladder and returns the
// program's static cost summary. It is a convenience wrapper: the cost
// pass always runs inside Analyze, which records the same summary in
// VerifyInfo.Cost.
func CostAnalyze(p *Program) (CostInfo, error) {
	info, err := Analyze(p)
	if err != nil {
		return CostInfo{}, err
	}
	return info.Cost, nil
}

// funcCost accumulates the per-function cost facts, folded callees
// first like the stack-bound pass.
type funcCost struct {
	bounded bool
	budget  int64 // per-invocation instruction bound
	fixed   int64 // weighted units outside input-dependent loops
	perTrip int64 // weighted units per input-dependent-loop trip
	alloc   int64 // OpBNew bytes per invocation
	allocOK bool
	slots   int64 // frame locals+args of the deepest call chain
}

// costAnalyze is the in-ladder entry point, called from Analyze after
// the dataflow pass has proven every instruction reachable and every
// jump target valid. total is the interprocedural operand-stack bound
// per function; order is callees-first.
func costAnalyze(p *Program, instrs [][]instr, index []map[int]int, order []int, total []int) ([]funcCost, CostInfo) {
	res := make([]funcCost, len(p.Funcs))
	for _, fi := range order {
		res[fi] = costFunc(p, instrs[fi], index[fi], res)
		f := &p.Funcs[fi]
		res[fi].slots += int64(f.NArgs + f.NLocals)
	}

	// Program-level summary: the worst case over every function as an
	// entry point (any function of a shipped class may be invoked).
	prog := CostInfo{Bounded: true, AllocBounded: true, Purity: costPurity(instrs)}
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
		if !fc.allocOK {
			prog.AllocBounded = false
		}
		if fc.alloc > prog.AllocBytes {
			prog.AllocBytes = fc.alloc
		}
		scratch := capMul(int64(total[fi])+fc.slots, valueSlotBytes, costCap)
		if scratch > prog.ScratchBytes {
			prog.ScratchBytes = scratch
		}
	}
	return res, prog
}

// costPurity classifies a program's observable effects by opcode scan.
func costPurity(instrs [][]instr) string {
	purity := "pure"
	for _, ins := range instrs {
		for _, in := range ins {
			switch in.op {
			case OpGLoad, OpGStore:
				return "stateful"
			case OpStU8, OpStI32, OpStF32, OpBCopy:
				purity = "writes-buffers"
			}
		}
	}
	return purity
}

// costFunc prices one function: natural-loop detection over its CFG,
// trip-count derivation for the bounded-loop idiom, and a weighted fold
// with callee costs inlined at each call site.
func costFunc(p *Program, ins []instr, idx map[int]int, res []funcCost) funcCost {
	n := len(ins)
	fc := funcCost{bounded: true, allocOK: true}
	if n == 0 {
		return fc
	}

	succs := make([][]int, n)
	preds := make([][]int, n)
	for j, in := range ins {
		var ss []int
		switch in.op {
		case OpRet:
		case OpJmp:
			ss = []int{idx[in.operand]}
		case OpJz, OpJnz:
			ss = []int{idx[in.operand]}
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

	idom, _ := dominatorTree(succs, preds)
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
		classifyLoop(p, ins, idx, &loops[li], dominates)
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

	// static is the size instruction j finds on top of the stack when
	// only the non-negative `pushi` laid out before it can have put it
	// there: what bounds a bnew's bytes and a bcopy's.
	static := func(j int) (int64, bool) {
		if j == 0 || ins[j-1].op != OpPushI || ins[j-1].operand < 0 || len(preds[j]) != 1 {
			return 0, false
		}
		return int64(ins[j-1].operand), true
	}

	for j, in := range ins {
		w, step := OpCost(in.op), int64(1)
		var callee *funcCost
		if in.op == OpHost {
			w = capAdd(w, HostCost(in.operand), costCap)
		}
		if in.op == OpBCopy { // a unit of fuel per 8 bytes moved, on top of its own
			if k, ok := static(j); ok {
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
			if chain := callee.slots; chain > fc.slots {
				fc.slots = chain
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

		// Allocation: OpBNew with a constant size multiplies out like
		// any other bounded work; a computed size, or any allocation
		// under an input-dependent loop, is unbounded.
		if in.op == OpBNew {
			if size, ok := static(j); ok && !unbounded[j] {
				fc.alloc = capAdd(fc.alloc, capMul(mult[j], size, allocCap), allocCap)
			} else {
				fc.allocOK = false
			}
		}
		if callee != nil {
			if !callee.allocOK || (unbounded[j] && callee.alloc > 0) {
				fc.allocOK = false
			} else {
				fc.alloc = capAdd(fc.alloc, capMul(mult[j], callee.alloc, allocCap), allocCap)
			}
		}
	}
	if !fc.bounded {
		fc.budget = costCap
	}
	if !fc.allocOK {
		fc.alloc = allocCap
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
func classifyLoop(p *Program, ins []instr, idx map[int]int, l *natLoop, dominates func(a, b int) bool) {
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
	t := idx[ins[h+3].operand]
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
	for _, q := range predsOutside(ins, idx, l, h) {
		if q != h-1 {
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

// predsOutside lists the CFG predecessors of node h that lie outside
// the loop body.
func predsOutside(ins []instr, idx map[int]int, l *natLoop, h int) []int {
	var out []int
	for j, in := range ins {
		if l.body[j] {
			continue
		}
		switch in.op {
		case OpRet:
		case OpJmp:
			if idx[in.operand] == h {
				out = append(out, j)
			}
		case OpJz, OpJnz:
			if idx[in.operand] == h || j+1 == h {
				out = append(out, j)
			}
		default:
			if j+1 == h {
				out = append(out, j)
			}
		}
	}
	return out
}
