package vm

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// This file implements the sound half of the MVM verifier: a dataflow
// pass that runs a fixed-point abstract interpretation of stack effects
// over each function's control-flow graph. It is the MVM analogue of the
// Java bytecode verifier the paper relies on (section 3.9.3): after this
// pass accepts a program, execution can never underflow the operand
// stack, fall through past the end of a function, call with too few
// arguments, overrun the machine's stack or call-depth limits, or
// recurse — so the compiler (compile.go) turns stack slots into fixed
// registers and emits none of those checks.
//
// The abstract domain tracks, at every instruction boundary, the exact
// operand-stack depth plus an abstract kind per slot:
//
//	int  float  bool  str  bytes        (exactly known)
//	         any                        (dynamically kinded)
//
// Kinds join to "any" at merge points; depths must agree exactly.
// Arguments and globals are "any" — operators are polymorphic and
// aggregate state persists across invocations — so kind checks routed
// through them remain dynamic; everything else is proven statically.

// absKind is an abstract value kind at an instruction boundary.
type absKind uint8

const (
	akInt absKind = iota
	akFloat
	akBool
	akStr
	akBytes
	akAny
)

func (k absKind) String() string {
	switch k {
	case akInt:
		return "int"
	case akFloat:
		return "float"
	case akBool:
		return "bool"
	case akStr:
		return "str"
	case akBytes:
		return "bytes"
	}
	return "any"
}

func kindOf(k VKind) absKind {
	switch k {
	case VInt:
		return akInt
	case VFloat:
		return akFloat
	case VBool:
		return akBool
	case VStr:
		return akStr
	case VBytes:
		return akBytes
	}
	return akAny
}

func joinKind(a, b absKind) absKind {
	if a == b {
		return a
	}
	return akAny
}

// matches reports whether a slot statically known as k may hold a value
// of kind want at runtime. akAny defers the decision to run time.
func (k absKind) matches(want absKind) bool { return k == want || k == akAny }

// VerifyInfo is the result of a successful dataflow verification: the
// program's capability manifest and its static resource bounds, plus —
// once a Machine first runs the program — its compiled form.
type VerifyInfo struct {
	// Capabilities is the sorted set of host intrinsics the program can
	// invoke — the manifest a site audits before accepting shipped code.
	Capabilities []string
	// MaxStack is the worst-case operand-stack depth any entry point can
	// reach, including nested calls.
	MaxStack int
	// CallDepth is the worst-case frame nesting from any entry point.
	CallDepth int
	// Cost is the static cost summary derived by the cost pass (see
	// cost.go): per-invocation instruction budget and weighted cost
	// units.
	Cost CostInfo
	// Funcs holds per-function verification detail, in program order.
	Funcs []FuncInfo

	// flow is what the compiler reads: per function, the decoded
	// instructions and the abstract state proven at every instruction
	// boundary. compiled is built from it exactly once (Program.Compile)
	// and shared read-only by every Machine running the program.
	flow     []funcFlow
	once     sync.Once
	compiled *code
}

// funcFlow is one function's slice of VerifyInfo.flow.
type funcFlow struct {
	ins    []instr
	states []*absState // abstract state before each instruction
	ret    absKind     // kind of the returned value
}

// FuncInfo is the per-function slice of a VerifyInfo.
type FuncInfo struct {
	Name      string
	NArgs     int
	MaxStack  int    // worst-case stack depth including callees
	CallDepth int    // worst-case frame nesting rooted at this function
	Ret       string // abstract kind of the returned value

	// Static cost facts from the cost pass (cost.go).
	Bounded      bool  // every loop reachable from here statically bounded
	BudgetInstrs int64 // per-invocation instruction budget (saturating)
}

// CapString renders the capability manifest as a comma-separated list
// for plan XML and EXPLAIN output. Empty when the program calls no host
// intrinsics.
func (vi *VerifyInfo) CapString() string { return strings.Join(vi.Capabilities, ",") }

// instr is one decoded instruction. A jump's operand is decoded once,
// by scanFunc, from a byte offset to the index of the instruction there.
type instr struct {
	off     int // byte offset of the opcode
	op      Op
	operand int
}

// absState is the abstract machine state at one instruction boundary.
type absState struct {
	stack  []absKind
	locals []absKind
}

func (s *absState) clone() *absState {
	c := &absState{
		stack:  append([]absKind(nil), s.stack...),
		locals: append([]absKind(nil), s.locals...),
	}
	return c
}

// funcResult accumulates per-function facts needed for the
// interprocedural bounds pass.
type funcResult struct {
	localPeak int // max stack depth within this frame alone
	retKind   absKind
	retSeen   bool
	callSites []callSite
	states    []*absState
}

type callSite struct {
	depth  int // stack depth at the call boundary (before args pop)
	callee int
}

// Analyze runs the full static verification ladder — structural checks,
// call-graph acyclicity, and per-function stack-effect abstract
// interpretation — and returns the program's VerifyInfo. It does not
// mutate the program; Verify is the stamping entry point.
func Analyze(p *Program) (*VerifyInfo, error) {
	if err := checkShape(p); err != nil {
		return nil, err
	}

	// Structural pass: decode every function to an instruction list,
	// checking opcodes, operand ranges and jump boundaries.
	instrs := make([][]instr, len(p.Funcs))
	for i := range p.Funcs {
		f := &p.Funcs[i]
		ins, err := scanFunc(p, f)
		if err != nil {
			return nil, fmt.Errorf("vm: program %q function %q: %w", p.Name, f.Name, err)
		}
		instrs[i] = ins
	}

	// Call-graph pass: order functions callees-first and reject any
	// recursion, direct or mutual. Acyclicity is what lets the analysis
	// assign each function a finite stack and call-depth bound.
	order, err := topoOrder(p, instrs)
	if err != nil {
		return nil, err
	}

	// Dataflow pass, callees before callers so call instructions can
	// push the callee's inferred return kind.
	results := make([]*funcResult, len(p.Funcs))
	caps := make(map[int]bool)
	for _, fi := range order {
		fr, err := analyzeFunc(p, &p.Funcs[fi], instrs[fi], results, caps)
		if err != nil {
			return nil, fmt.Errorf("vm: program %q function %q: %w", p.Name, p.Funcs[fi].Name, err)
		}
		results[fi] = fr
	}

	// Interprocedural bounds, again callees-first: a call site at depth d
	// pops the args, then the callee's frame peaks on top of what's left.
	total := make([]int, len(p.Funcs))
	depth := make([]int, len(p.Funcs))
	for _, fi := range order {
		fr := results[fi]
		total[fi] = fr.localPeak
		depth[fi] = 1
		for _, cs := range fr.callSites {
			if t := cs.depth - p.Funcs[cs.callee].NArgs + total[cs.callee]; t > total[fi] {
				total[fi] = t
			}
			if d := 1 + depth[cs.callee]; d > depth[fi] {
				depth[fi] = d
			}
		}
	}

	// Cost pass: natural loops, trip counts, instruction budgets and
	// weighted units (cost.go). Runs on the same decoded instruction
	// lists, callees-first.
	fcosts, progCost := costAnalyze(p, instrs, order)

	info := &VerifyInfo{Funcs: make([]FuncInfo, len(p.Funcs)), Cost: progCost, flow: make([]funcFlow, len(p.Funcs))}
	for i := range p.Funcs {
		ret := akAny
		if results[i].retSeen {
			ret = results[i].retKind
		}
		info.flow[i] = funcFlow{ins: instrs[i], states: results[i].states, ret: ret}
		info.Funcs[i] = FuncInfo{
			Name:         p.Funcs[i].Name,
			NArgs:        p.Funcs[i].NArgs,
			MaxStack:     total[i],
			CallDepth:    depth[i],
			Ret:          ret.String(),
			Bounded:      fcosts[i].bounded,
			BudgetInstrs: fcosts[i].budget,
		}
		if total[i] > info.MaxStack {
			info.MaxStack = total[i]
		}
		if depth[i] > info.CallDepth {
			info.CallDepth = depth[i]
		}
	}
	if info.MaxStack > DefaultLimits.MaxStack {
		return nil, fmt.Errorf("vm: program %q needs operand stack depth %d (machine limit %d)",
			p.Name, info.MaxStack, DefaultLimits.MaxStack)
	}
	if info.CallDepth > DefaultLimits.MaxCallDepth {
		return nil, fmt.Errorf("vm: program %q needs call depth %d (machine limit %d)",
			p.Name, info.CallDepth, DefaultLimits.MaxCallDepth)
	}
	for id := range caps {
		info.Capabilities = append(info.Capabilities, HostName(id))
	}
	sort.Strings(info.Capabilities)
	return info, nil
}

// topoOrder returns function indexes callees-first, rejecting call
// cycles (the MVM forbids recursion; loops use jumps).
func topoOrder(p *Program, instrs [][]instr) ([]int, error) {
	callees := make([][]int, len(p.Funcs))
	for i, ins := range instrs {
		seen := make(map[int]bool)
		for _, in := range ins {
			if in.op == OpCall && !seen[in.operand] {
				seen[in.operand] = true
				callees[i] = append(callees[i], in.operand)
			}
		}
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, len(p.Funcs))
	var order []int
	var path []int
	var visit func(i int) error
	visit = func(i int) error {
		switch color[i] {
		case black:
			return nil
		case grey:
			// Reconstruct the cycle for the error message.
			names := []string{p.Funcs[i].Name}
			for j := len(path) - 1; j >= 0 && path[j] != i; j-- {
				names = append([]string{p.Funcs[path[j]].Name}, names...)
			}
			names = append([]string{p.Funcs[i].Name}, names...)
			return fmt.Errorf("vm: program %q: recursive call cycle: %s",
				p.Name, strings.Join(names, " -> "))
		}
		color[i] = grey
		path = append(path, i)
		for _, c := range callees[i] {
			if err := visit(c); err != nil {
				return err
			}
		}
		path = path[:len(path)-1]
		color[i] = black
		order = append(order, i)
		return nil
	}
	for i := range p.Funcs {
		if err := visit(i); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// analyzeFunc runs the worklist abstract interpretation over one
// function. results holds completed callee analyses (topological order
// guarantees they exist); caps accumulates the host-intrinsic manifest.
func analyzeFunc(p *Program, f *Func, ins []instr, results []*funcResult, caps map[int]bool) (*funcResult, error) {
	fr := &funcResult{}
	states := make([]*absState, len(ins))
	entry := &absState{locals: make([]absKind, f.NLocals)}
	for i := range entry.locals {
		entry.locals[i] = akInt // zero Value is an int 0
	}
	states[0] = entry
	work := []int{0}

	// merge folds a successor state into the recorded state at boundary
	// ti, queueing it when anything changed.
	merge := func(ti int, st *absState) error {
		old := states[ti]
		if old == nil {
			states[ti] = st.clone()
			work = append(work, ti)
			return nil
		}
		if len(old.stack) != len(st.stack) {
			return fmt.Errorf("stack depth mismatch at merge point offset %d: %d vs %d",
				ins[ti].off, len(old.stack), len(st.stack))
		}
		changed := false
		for i := range old.stack {
			if j := joinKind(old.stack[i], st.stack[i]); j != old.stack[i] {
				old.stack[i] = j
				changed = true
			}
		}
		for i := range old.locals {
			if j := joinKind(old.locals[i], st.locals[i]); j != old.locals[i] {
				old.locals[i] = j
				changed = true
			}
		}
		if changed {
			work = append(work, ti)
		}
		return nil
	}

	for len(work) > 0 {
		ii := work[len(work)-1]
		work = work[:len(work)-1]
		in := ins[ii]
		st := states[ii].clone()
		sp := len(st.stack)

		// need checks static stack depth before popping.
		need := func(n int) error {
			if sp < n {
				return fmt.Errorf("stack underflow: %v at offset %d needs %d values, have %d",
					in.op, in.off, n, sp)
			}
			return nil
		}
		// want checks the slot i-from-top holds kind k (or any).
		want := func(fromTop int, k absKind) error {
			got := st.stack[sp-1-fromTop]
			if !got.matches(k) {
				return fmt.Errorf("%v at offset %d needs %v, has %v", in.op, in.off, k, got)
			}
			return nil
		}
		pop := func(n int) { st.stack = st.stack[:sp-n]; sp -= n }
		push := func(k absKind) { st.stack = append(st.stack, k); sp++ }

		terminal := false
		jumpTarget := -1 // extra successor besides fall-through

		switch in.op {
		case OpNop:

		case OpRet:
			k := akInt // empty stack returns the zero value, an int 0
			if sp > 0 {
				k = st.stack[sp-1]
			}
			if fr.retSeen {
				fr.retKind = joinKind(fr.retKind, k)
			} else {
				fr.retKind, fr.retSeen = k, true
			}
			terminal = true

		case OpPop:
			if err := need(1); err != nil {
				return nil, err
			}
			pop(1)

		case OpDup:
			if err := need(1); err != nil {
				return nil, err
			}
			push(st.stack[sp-1])

		case OpSwap:
			if err := need(2); err != nil {
				return nil, err
			}
			st.stack[sp-1], st.stack[sp-2] = st.stack[sp-2], st.stack[sp-1]

		case OpConst:
			push(kindOf(p.Consts[in.operand].K))

		case OpPushI:
			push(akInt)

		case OpArg:
			push(akAny)

		case OpLoad:
			push(st.locals[in.operand])

		case OpStore:
			if err := need(1); err != nil {
				return nil, err
			}
			st.locals[in.operand] = st.stack[sp-1]
			pop(1)

		case OpGLoad:
			push(akAny)

		case OpGStore:
			if err := need(1); err != nil {
				return nil, err
			}
			pop(1)

		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			if err := need(2); err != nil {
				return nil, err
			}
			a, b := st.stack[sp-2], st.stack[sp-1]
			if a != akAny && b != akAny {
				if a != b {
					return nil, fmt.Errorf("%v at offset %d compares %v with %v", in.op, in.off, a, b)
				}
				if a == akBytes && in.op != OpEq && in.op != OpNe {
					return nil, fmt.Errorf("%v at offset %d: bytes support only eq/ne", in.op, in.off)
				}
			}
			pop(2)
			push(akBool)

		case OpJmp:
			terminal = true
			jumpTarget = in.operand

		case OpJz, OpJnz:
			if err := need(1); err != nil {
				return nil, err
			}
			if err := want(0, akBool); err != nil {
				return nil, err
			}
			pop(1)
			jumpTarget = in.operand

		case OpCall:
			callee := &p.Funcs[in.operand]
			if sp < callee.NArgs {
				return nil, fmt.Errorf("call to %q at offset %d needs %d args, stack has %d",
					callee.Name, in.off, callee.NArgs, sp)
			}
			fr.callSites = append(fr.callSites, callSite{depth: sp, callee: in.operand})
			pop(callee.NArgs)
			ret := akAny
			if r := results[in.operand]; r != nil && r.retSeen {
				ret = r.retKind
			}
			push(ret)

		default:
			// Every other opcode has a fixed stack effect in its opInfo row.
			pops, pushes := opInfo[in.op].pops, opInfo[in.op].push
			if in.op == OpHost {
				caps[in.operand] = true
				pops, pushes = hostInfo[in.operand].pops, hostInfo[in.operand].push
			}
			if pops == nil {
				return nil, fmt.Errorf("opcode %v at offset %d not modelled by verifier", in.op, in.off)
			}
			if err := need(len(pops)); err != nil {
				return nil, err
			}
			for i, k := range pops {
				if err := want(i, k); err != nil {
					return nil, err
				}
			}
			pop(len(pops))
			push(pushes)
		}

		if sp > fr.localPeak {
			fr.localPeak = sp
		}

		if jumpTarget >= 0 {
			if err := merge(jumpTarget, st); err != nil {
				return nil, err
			}
		}
		if !terminal {
			if ii+1 == len(ins) {
				return nil, fmt.Errorf("execution falls through past end of code at offset %d", in.off)
			}
			if err := merge(ii+1, st); err != nil {
				return nil, err
			}
		}
	}

	for i := range states {
		if states[i] == nil {
			return nil, fmt.Errorf("unreachable code at offset %d", ins[i].off)
		}
	}
	fr.states = states
	return fr, nil
}
