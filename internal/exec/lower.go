package exec

import (
	"fmt"

	"mocha/internal/core"
	"mocha/internal/obs"
	"mocha/internal/types"
)

// ---- plan→site seam ----
//
// Everything below is the single place a cut plan meets concrete sites
// (DESIGN.md §15.4). The optimizer annotates each fragment with its cut;
// this seam derives the physical consequences — one activation unit per
// site (or per surviving shard of a scattered fragment), replica choice
// and semi-join participation — so callers never interpret plan
// structure ad hoc.

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
	// an unpartitioned fragment it aliases the plan's fragment.
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
//	QPC plan:      remote[i] (+prefetch[i]) → [stage[i]: filter, project] →
//	               hashjoin[0..n) → [filter] → [hashagg] → project →
//	               (topk | sort | limit)? → emit
//
// A partitioned fragment's remotes meet in gather[i] before its stage. A
// stage (core.Stage) exists only in a multi-table plan: the single-table
// predicates its table's cut left above and the data-reducing calls the
// planner stages, run on the table's own stream so the joins hold narrow
// rows; the filter above the joins then holds only multi-table
// predicates.
//
// Operators that evaluate user expressions share one memo per contiguous
// chain; the lowest memo user resets it per input batch. A DAP chain's
// expressions are one lane set (lanes.go): each lane compiles them in the
// same order against its own memo and binder fork. An aggregation
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

// Forwarded reports whether a DAP fragment lowers to no operator: no
// semi-join filter, predicate, grouping, aggregate or shipped code, and
// every projection a bare column reference, so that the fragment emits
// its extracted columns as they are. A pushed LIMIT only stops it. Such
// a fragment's output is its source rows' column bytes — LowerFragment
// would build a scan, an identity project and an emit — so the DAP
// forwards the wire-format columns its driver yields undecoded (DESIGN
// §10). out[i] is the extracted column that output column i is.
func Forwarded(frag *core.Fragment) (out []int, ok bool) {
	if frag.SemiJoinCol >= 0 || len(frag.Predicates) > 0 || len(frag.GroupBy) > 0 ||
		len(frag.Aggregates) > 0 || len(frag.Code) > 0 {
		return nil, false
	}
	out = make([]int, len(frag.Projections))
	for i, o := range frag.Projections {
		if o.Expr == nil || o.Expr.Kind != core.ExprCol || o.Expr.Col < 0 || o.Expr.Col >= len(frag.Cols) {
			return nil, false
		}
		out[i] = o.Expr.Col
	}
	return out, true
}

// LowerFragment lowers one DAP fragment onto a source operator: the
// semi-join filter, predicates, aggregation or projection, the pushed-
// down limit, and the emit sink, in the fragment execution order the
// plan format documents.
// gov, when non-nil, bounds the memory-hungry operators' memory (each
// gets its own grant on the shared pool) and arms their spill paths.
func LowerFragment(frag *core.Fragment, binder core.OpBinder, src Operator, semiKeys map[uint64][]types.Object, emit func(types.Tuple) error, gov *Governor) (*Tree, error) {
	memo := core.NewMemo()
	needReset := true
	ops := []Operator{src}
	cur := src
	// The chain's expressions are one lane set: lane 0 is compiled here,
	// and further lanes the same way against a binder fork.
	set := soloLanes(&lane{memo: memo})

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
		f := NewFilter(obs.OpFilter, cur, preds, memo, needReset, "dap")
		set.ls[0].preds, f.set = preds, set
		cur = f
		needReset = false
		ops = append(ops, cur)
	}
	if len(frag.Aggregates) > 0 {
		agg, err := NewHashAggregate(obs.OpHashAgg, cur, frag.GroupBy, frag.Aggregates, binder, memo, needReset, "dap", DefaultBatchRows, gov.Grant(obs.OpHashAgg))
		if err != nil {
			return nil, err
		}
		set.ls[0].args, agg.set = agg.set.ls[0].args, set
		cur = agg
		ops = append(ops, cur)
	} else {
		projs, names, err := compileProjs(frag.Projections, binder, memo)
		if err != nil {
			return nil, err
		}
		p := NewProject(obs.OpProject, cur, projs, names, memo, needReset, "dap")
		set.ls[0].projs, p.set = projs, set
		cur = p
		ops = append(ops, cur)
	}
	set.fork = forkLanes(frag, binder)
	if frag.Limit > 0 {
		cur = NewLimit(obs.OpLimit, cur, frag.Limit)
		ops = append(ops, cur)
	}
	cur = NewEmit(obs.OpEmit, cur, emit)
	ops = append(ops, cur)
	return &Tree{Root: cur, Ops: ops}, nil
}

// forkLanes returns how a fragment's lane set compiles another lane — the
// fragment's expressions in lowering's order, so the memo shares the same
// call sites — or nil when it never fans out: the binder cannot fork, or
// nothing in the chain calls a bound operator (a chain of column
// references is cheaper than the fork).
func forkLanes(frag *core.Fragment, binder core.OpBinder) func() (*lane, error) {
	fb, ok := binder.(laneForker)
	if !ok {
		return nil
	}
	calls := len(frag.Aggregates) > 0 || callsOperator(frag.Predicates...)
	for _, o := range frag.Projections {
		calls = calls || callsOperator(o.Expr)
	}
	if !calls {
		return nil
	}
	return func() (*lane, error) {
		b := fb.Fork()
		ln := &lane{memo: core.NewMemo()}
		var err error
		if ln.preds, err = compilePreds(frag.Predicates, b, ln.memo); err != nil {
			return nil, err
		}
		if len(frag.Aggregates) > 0 {
			ln.args, err = compileAggArgs(frag.Aggregates, b, ln.memo)
		} else {
			ln.projs, _, err = compileProjs(frag.Projections, b, ln.memo)
		}
		return ln, err
	}
}

// LowerPlan lowers the QPC's post-stream work onto the fragments' pull
// feeds: per-fragment sources (each behind a bounded prefetcher) and
// stages, the left-deep hash-join chain, plan predicates, aggregation,
// projection, ordering/limit, and the client emit sink.
// pulls holds one feed per fragment for unpartitioned plans; a
// scattered fragment passes one feed per partition and gets a Gather
// union over per-partition sources (each independently prefetched, so
// all partition streams flow concurrently while delivery stays in
// deterministic partition order). A fragment whose partitions were all
// pruned away passes an empty list and lowers to an empty stream.
// gov, when non-nil, bounds the memory-hungry operators' memory (each
// gets its own grant on the shared pool) and arms their spill paths.
func LowerPlan(plan *core.Plan, binder core.OpBinder, pulls [][]PullFunc, emit func(types.Tuple) error, gov *Governor) (*Tree, error) {
	if len(pulls) != len(plan.Fragments) {
		return nil, fmt.Errorf("exec: %d sources for %d fragments", len(pulls), len(plan.Fragments))
	}
	var ops []Operator
	srcs := make([]Operator, len(pulls))
	for i, feeds := range pulls {
		if len(feeds) == 1 && plan.Fragments[i].PartsTotal == 0 {
			src := NewSource(opName(obs.OpRemote, i), feeds[0], DefaultBatchRows)
			pre := NewPrefetch(opName(obs.OpPrefetch, i), src, DefaultPrefetch)
			ops = append(ops, src, pre)
			srcs[i] = pre
			continue
		}
		children := make([]Operator, len(feeds))
		for j, pull := range feeds {
			src := NewSource(partOpName(obs.OpRemote, i, j), pull, DefaultBatchRows)
			pre := NewPrefetch(partOpName(obs.OpPrefetch, i, j), src, DefaultPrefetch)
			ops = append(ops, src, pre)
			children[j] = pre
		}
		g := NewGather(opName(obs.OpGather, i), children)
		ops = append(ops, g)
		srcs[i] = g
	}

	// Each fragment's stage runs on its own stream, below the joins, with
	// a memo of its own.
	for i, frag := range plan.Fragments {
		st := frag.Stage
		if st == nil {
			continue
		}
		memo := core.NewMemo()
		if len(st.Predicates) > 0 {
			preds, err := compilePreds(st.Predicates, binder, memo)
			if err != nil {
				return nil, err
			}
			srcs[i] = NewFilter(opName(obs.OpFilter, i), srcs[i], preds, memo, true, "qpc")
			ops = append(ops, srcs[i])
		}
		projs, names, err := compileProjs(st.Projections, binder, memo)
		if err != nil {
			return nil, err
		}
		srcs[i] = NewProject(opName(obs.OpProject, i), srcs[i], projs, names, memo, len(st.Predicates) == 0, "qpc")
		ops = append(ops, srcs[i])
	}

	cur := srcs[0]
	for i, step := range plan.Joins {
		if step.RightFrag < 0 || step.RightFrag >= len(srcs) {
			return nil, fmt.Errorf("exec: join %d references fragment %d of %d", i, step.RightFrag, len(srcs))
		}
		frag := plan.Fragments[step.RightFrag]
		leftDesc := fmt.Sprintf("combined column %d (%s)", step.LeftCol, colName(plan.CombinedSchema, step.LeftCol))
		rightDesc := fmt.Sprintf("fragment %d at %s, output column %d (%s)",
			step.RightFrag, frag.Site, step.RightCol, colName(frag.QPCSchema(), step.RightCol))
		name := opName(obs.OpHashJoin, i)
		cur = NewHashJoin(name, cur, srcs[step.RightFrag],
			step.LeftCol, step.RightCol, leftDesc, rightDesc, false,
			gov.Grant(name), DefaultBatchRows)
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
		agg, err := NewHashAggregate(obs.OpHashAgg, cur, plan.GroupBy, plan.Aggregates, binder, memo, needReset, "qpc", DefaultBatchRows, gov.Grant(obs.OpHashAgg))
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
		cur = NewTopK(obs.OpTopK, cur, plan.OrderBy, plan.Limit, DefaultBatchRows)
		ops = append(ops, cur)
	case len(plan.OrderBy) > 0:
		cur = NewSort(obs.OpSort, cur, plan.OrderBy, DefaultBatchRows)
		ops = append(ops, cur)
	case plan.Limit >= 0:
		cur = NewLimit(obs.OpLimit, cur, plan.Limit)
		ops = append(ops, cur)
	}
	cur = NewEmit(obs.OpEmit, cur, emit)
	ops = append(ops, cur)
	return &Tree{Root: cur, Ops: ops}, nil
}
