package exec

import (
	"fmt"
	"strings"

	"mocha/internal/core"
	"mocha/internal/obs"
	"mocha/internal/types"
	"mocha/internal/vm"
)

// ---- plan→site seam ----
//
// Everything below is the single place a cut plan meets concrete sites
// (DESIGN.md §15.4). The optimizer annotates each fragment with its cut;
// this seam derives the physical consequences — one activation unit per
// site (or per surviving shard of a scattered fragment), replica choice,
// rollout (canary) code-ref pinning, the governor's static scratch
// reservation, and semi-join participation — so callers never interpret
// plan structure ad hoc.

// Unit is one physical activation of a plan: a whole fragment, or one
// shard of a fragment scattered over a partitioned table.
type Unit struct {
	FragIdx int
	Part    int // partition ID; -1 for an unpartitioned fragment
	Of      int // pre-pruning partition count; 0 for unpartitioned
	// Replicas lists the shard's candidate sites in pick order — the
	// selected primary first, siblings after — so setup and mid-stream
	// failover walk the same ladder. Unpartitioned units hold only the
	// fragment's one site.
	Replicas []string
	// Frag is the physical fragment this unit deploys. For a scattered
	// shard it is a per-unit copy naming the partition's physical table
	// and chosen replica; mutating its Site during failover is safe. For
	// an unpartitioned fragment it aliases the shared plan fragment
	// until ApplyOverrides clones it.
	Frag *core.Fragment
}

// SitePlan is a plan bound to concrete sites: the activation units one
// execution will deploy, activate and stream from.
type SitePlan struct {
	Plan  *core.Plan
	Units []*Unit
}

// BindPlan expands the plan's fragments into physical activation units,
// choosing each scattered shard's serving replica through pick (the
// health registry's load balancer; pick receives the shard's replica
// set and returns the site to serve it).
func BindPlan(plan *core.Plan, pick func(replicas []string) string) *SitePlan {
	sp := &SitePlan{Plan: plan}
	for i, frag := range plan.Fragments {
		if frag.PartsTotal == 0 {
			sp.Units = append(sp.Units, &Unit{
				FragIdx: i, Part: -1,
				Replicas: []string{frag.Site}, Frag: frag,
			})
			continue
		}
		for _, pt := range frag.Parts {
			pf := *frag
			pf.Table = pt.Table
			pf.Site = pick(pt.Replicas)
			pf.Parts, pf.PartsTotal, pf.PartKey = nil, 0, ""
			reps := []string{pf.Site}
			for _, r := range pt.Replicas {
				if r != pf.Site {
					reps = append(reps, r)
				}
			}
			sp.Units = append(sp.Units, &Unit{
				FragIdx: i, Part: pt.ID, Of: frag.PartsTotal,
				Replicas: reps, Frag: &pf,
			})
		}
	}
	return sp
}

// ApplyOverrides substitutes rollout (canary) code refs into the bound
// units' fragments, keyed by lower-cased class name. Each affected
// fragment is cloned first: unpartitioned units alias the shared plan
// fragment, and the substitution must stay local to this execution (the
// prepared plan keeps its active refs, and failover mutating the
// clone's Site never touches the plan either).
func (sp *SitePlan) ApplyOverrides(overrides map[string]core.CodeRef) {
	if len(overrides) == 0 {
		return
	}
	for _, u := range sp.Units {
		touched := false
		for _, ref := range u.Frag.Code {
			if _, ok := overrides[strings.ToLower(ref.Name)]; ok {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		pf := *u.Frag
		pf.Code = make([]core.CodeRef, len(u.Frag.Code))
		copy(pf.Code, u.Frag.Code)
		for i, ref := range pf.Code {
			if over, ok := overrides[strings.ToLower(ref.Name)]; ok {
				pf.Code[i] = over
			}
		}
		u.Frag = &pf
	}
}

// StaticScratchBytes sums the verifier's static scratch bounds over
// every class the plan ships below its cuts (with canary overrides
// applied — a canary release may bound differently than the active
// one). The governor's admission control reserves this before any setup
// work. Refs without a cost stamp contribute nothing: legacy manifests
// stay admissible.
func StaticScratchBytes(plan *core.Plan, overrides map[string]core.CodeRef) int64 {
	var total int64
	for _, frag := range plan.Fragments {
		for _, ref := range frag.Code {
			if over, ok := overrides[strings.ToLower(ref.Name)]; ok {
				ref = over
			}
			if ref.Cost == "" {
				continue
			}
			if ci, err := vm.ParseCostInfo(ref.Cost); err == nil {
				total += ci.ScratchBytes
			}
		}
	}
	return total
}

// SemiJoinParticipants returns the fragments the plan marks as 2-way
// semi-join participants (section 5.4): those whose cut keeps a
// semi-join filter column below it.
func SemiJoinParticipants(plan *core.Plan) []int {
	var out []int
	for i, f := range plan.Fragments {
		if f.SemiJoinCol >= 0 {
			out = append(out, i)
		}
	}
	return out
}

// Lowering rules (DESIGN.md §10):
//
//	DAP fragment:  scan → [semijoin] → [filter] → (hashagg | project) →
//	               [limit] → emit
//	QPC plan:      remote[i] (+prefetch[i]) → hashjoin[0..n) → [filter] →
//	               [hashagg] → project → (topk | sort | limit)? → emit
//
// Operators that evaluate user expressions share one memo per contiguous
// chain; the lowest memo user resets it per input batch. An aggregation
// boundary starts a fresh memo: group rows are new tuples, and stale
// identity-keyed entries from scan batches must not survive into them.

// opName makes a per-instance operator name ("op:hashjoin[1]") so trees
// with repeated operators stay distinguishable in traces and goldens.
func opName(base string, i int) string { return fmt.Sprintf("%s[%d]", base, i) }

// partOpName names a per-partition operator instance ("op:remote[0.2]"
// is fragment 0's stream from partition 2).
func partOpName(base string, frag, part int) string {
	return fmt.Sprintf("%s[%d.%d]", base, frag, part)
}

// colName names a schema column for error messages.
func colName(s types.Schema, i int) string {
	if i >= 0 && i < s.Arity() {
		return s.Columns[i].Name
	}
	return "?"
}

// compilePreds compiles predicate expressions against a shared memo.
func compilePreds(exprs []*core.PExpr, binder core.OpBinder, memo *core.Memo) ([]core.EvalFn, error) {
	preds := make([]core.EvalFn, len(exprs))
	for i, p := range exprs {
		fn, err := core.CompileExprMemo(p, binder, memo)
		if err != nil {
			return nil, err
		}
		preds[i] = fn
	}
	return preds, nil
}

// compileProjs compiles projection outputs against a shared memo.
func compileProjs(outs []core.Output, binder core.OpBinder, memo *core.Memo) ([]core.EvalFn, []string, error) {
	projs := make([]core.EvalFn, len(outs))
	names := make([]string, len(outs))
	for i, o := range outs {
		fn, err := core.CompileExprMemo(o.Expr, binder, memo)
		if err != nil {
			return nil, nil, err
		}
		projs[i] = fn
		names[i] = o.Name
	}
	return projs, names, nil
}

// LowerFragment lowers one DAP fragment onto a source operator: the
// semi-join filter, predicates, aggregation or projection, the pushed-
// down limit, and the emit sink, in the fragment execution order the
// plan format documents.
// gov, when non-nil, bounds the memory-hungry operators' memory (each
// gets its own grant on the shared pool) and arms their spill paths.
func LowerFragment(frag *core.Fragment, binder core.OpBinder, src Operator, semiKeys map[uint64][]types.Object, emit func(types.Tuple) error, tun Tuning, gov *Governor) (*Tree, error) {
	tun = tun.Norm()
	memo := core.NewMemo()
	needReset := true
	ops := []Operator{src}
	cur := src

	if frag.SemiJoinCol >= 0 && semiKeys != nil {
		desc := fmt.Sprintf("input column %d (%s)", frag.SemiJoinCol, colName(frag.InSchema, frag.SemiJoinCol))
		cur = NewSemiFilter(obs.OpSemiJoin, cur, frag.SemiJoinCol, semiKeys, desc, "dap")
		ops = append(ops, cur)
	}
	if len(frag.Predicates) > 0 {
		preds, err := compilePreds(frag.Predicates, binder, memo)
		if err != nil {
			return nil, err
		}
		cur = NewFilter(obs.OpFilter, cur, preds, memo, needReset, "dap")
		needReset = false
		ops = append(ops, cur)
	}
	if len(frag.Aggregates) > 0 {
		agg, err := NewHashAggregate(obs.OpHashAgg, cur, frag.GroupBy, frag.Aggregates, binder, memo, needReset, "dap", tun.BatchRows, gov.Grant(obs.OpHashAgg))
		if err != nil {
			return nil, err
		}
		cur = agg
		ops = append(ops, cur)
	} else {
		projs, names, err := compileProjs(frag.Projections, binder, memo)
		if err != nil {
			return nil, err
		}
		cur = NewProject(obs.OpProject, cur, projs, names, memo, needReset, "dap")
		ops = append(ops, cur)
	}
	if frag.Limit > 0 {
		cur = NewLimit(obs.OpLimit, cur, frag.Limit)
		ops = append(ops, cur)
	}
	cur = NewEmit(obs.OpEmit, cur, emit)
	ops = append(ops, cur)
	return &Tree{Root: cur, Ops: ops}, nil
}

// LowerPlan lowers the QPC's post-stream work onto the fragments' pull
// feeds: per-fragment sources (each behind a bounded prefetcher), the
// left-deep hash-join chain, plan predicates, aggregation, projection,
// ordering/limit, and the client emit sink.
// pulls holds one feed per fragment for unpartitioned plans; a
// scattered fragment passes one feed per partition and gets a Gather
// union over per-partition sources (each independently prefetched, so
// all partition streams flow concurrently while delivery stays in
// deterministic partition order). A fragment whose partitions were all
// pruned away passes an empty list and lowers to an empty stream.
// gov, when non-nil, bounds the memory-hungry operators' memory (each
// gets its own grant on the shared pool) and arms their spill paths.
func LowerPlan(plan *core.Plan, binder core.OpBinder, pulls [][]PullFunc, emit func(types.Tuple) error, tun Tuning, gov *Governor) (*Tree, error) {
	tun = tun.Norm()
	if len(pulls) != len(plan.Fragments) {
		return nil, fmt.Errorf("exec: %d sources for %d fragments", len(pulls), len(plan.Fragments))
	}
	var ops []Operator
	srcs := make([]Operator, len(pulls))
	for i, feeds := range pulls {
		if len(feeds) == 1 && plan.Fragments[i].PartsTotal == 0 {
			src := NewSource(opName(obs.OpRemote, i), feeds[0], tun.BatchRows)
			pre := NewPrefetch(opName(obs.OpPrefetch, i), src, tun.Prefetch)
			ops = append(ops, src, pre)
			srcs[i] = pre
			continue
		}
		children := make([]Operator, len(feeds))
		for j, pull := range feeds {
			src := NewSource(partOpName(obs.OpRemote, i, j), pull, tun.BatchRows)
			pre := NewPrefetch(partOpName(obs.OpPrefetch, i, j), src, tun.Prefetch)
			ops = append(ops, src, pre)
			children[j] = pre
		}
		g := NewGather(opName(obs.OpGather, i), children)
		ops = append(ops, g)
		srcs[i] = g
	}

	cur := srcs[0]
	for i, step := range plan.Joins {
		if step.RightFrag < 0 || step.RightFrag >= len(srcs) {
			return nil, fmt.Errorf("exec: join %d references fragment %d of %d", i, step.RightFrag, len(srcs))
		}
		frag := plan.Fragments[step.RightFrag]
		leftDesc := fmt.Sprintf("combined column %d (%s)", step.LeftCol, colName(plan.CombinedSchema, step.LeftCol))
		rightDesc := fmt.Sprintf("fragment %d at %s, output column %d (%s)",
			step.RightFrag, frag.Site, step.RightCol, colName(frag.OutSchema, step.RightCol))
		name := opName(obs.OpHashJoin, i)
		cur = NewHashJoin(name, cur, srcs[step.RightFrag],
			step.LeftCol, step.RightCol, leftDesc, rightDesc, false,
			gov.Grant(name), tun.BatchRows)
		ops = append(ops, cur)
	}

	memo := core.NewMemo()
	needReset := true
	if len(plan.Predicates) > 0 {
		preds, err := compilePreds(plan.Predicates, binder, memo)
		if err != nil {
			return nil, err
		}
		cur = NewFilter(obs.OpFilter, cur, preds, memo, needReset, "qpc")
		needReset = false
		ops = append(ops, cur)
	}
	if len(plan.Aggregates) > 0 {
		agg, err := NewHashAggregate(obs.OpHashAgg, cur, plan.GroupBy, plan.Aggregates, binder, memo, needReset, "qpc", tun.BatchRows, gov.Grant(obs.OpHashAgg))
		if err != nil {
			return nil, err
		}
		cur = agg
		ops = append(ops, cur)
		// Aggregation emits fresh rows; the projection above it starts a
		// fresh memo.
		memo = core.NewMemo()
		needReset = true
	}
	projs, names, err := compileProjs(plan.Projections, binder, memo)
	if err != nil {
		return nil, err
	}
	cur = NewProject(obs.OpProject, cur, projs, names, memo, needReset, "qpc")
	ops = append(ops, cur)

	switch {
	case len(plan.OrderBy) > 0 && plan.Limit >= 0:
		cur = NewTopK(obs.OpTopK, cur, plan.OrderBy, plan.Limit, tun.BatchRows)
		ops = append(ops, cur)
	case len(plan.OrderBy) > 0:
		cur = NewSort(obs.OpSort, cur, plan.OrderBy, tun.BatchRows)
		ops = append(ops, cur)
	case plan.Limit >= 0:
		cur = NewLimit(obs.OpLimit, cur, plan.Limit)
		ops = append(ops, cur)
	}
	cur = NewEmit(obs.OpEmit, cur, emit)
	ops = append(ops, cur)
	return &Tree{Root: cur, Ops: ops}, nil
}
