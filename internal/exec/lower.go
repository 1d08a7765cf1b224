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
//	chain:         [filter] → [hashagg] → [project]
//	DAP fragment:  scan → [semijoin] → chain → [limit] → emit
//	QPC plan:      remote[i] (+prefetch[i]) → [chain[i]] → hashjoin[0..n) →
//	               chain → (topk | sort | limit)? → emit
//
// A core.Chain is the one shape the section 3.8 operators run as, and
// lowerChain its one lowering: a filter when it has predicates, a hash
// aggregate when it aggregates, and a projection unless it aggregates and
// projects nothing (a fragment's pushed aggregation emits its group rows).
// A fragment's body is a chain; so is table i's stage, chain[i], which
// exists only in a multi-table plan and runs on the table's own stream,
// below the joins, the single-table predicates its cut left above and the
// data-reducing calls the planner stages; and so is the QPC's work above
// the joins, whose filter then holds only multi-table predicates. A
// partitioned fragment's remotes meet in gather[i] before its stage.
//
// A chain's operators share one memo; the lowest memo user resets it per
// input batch. Their expressions are one lane set (lanes.go): each lane
// compiles them in the same order against its own memo and binder fork,
// and only a DAP's binder forks. An aggregation boundary starts a fresh
// memo: group rows are new tuples, and stale identity-keyed entries from
// scan batches must not survive into them.

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

// compileExprs compiles expressions against a shared memo.
func compileExprs(exprs []*core.PExpr, binder core.OpBinder, memo *core.Memo) ([]core.EvalFn, error) {
	fns := make([]core.EvalFn, len(exprs))
	for i, e := range exprs {
		fn, err := core.CompileExprMemo(e, binder, memo)
		if err != nil {
			return nil, err
		}
		fns[i] = fn
	}
	return fns, nil
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
// semi-join filter, the fragment's chain, the pushed-down limit, and the
// emit sink, in the fragment execution order the plan format documents.
// gov, when non-nil, bounds the memory-hungry operators' memory (each
// gets its own grant on the shared pool) and arms their spill paths.
func LowerFragment(frag *core.Fragment, binder core.OpBinder, src Operator, semiKeys map[uint64][]types.Object, emit func(types.Tuple) error, gov *Governor) (*Tree, error) {
	ops := []Operator{src}
	cur := src
	if frag.SemiJoinCol >= 0 && semiKeys != nil {
		desc := fmt.Sprintf("input column %d (%s)", frag.SemiJoinCol, colName(frag.InSchema, frag.SemiJoinCol))
		cur = NewSemiFilter(obs.OpSemiJoin, cur, frag.SemiJoinCol, semiKeys, desc, "dap")
		ops = append(ops, cur)
	}
	cur, ops, err := lowerChain(&frag.Chain, cur, ops, binder, gov, "", "dap")
	if err != nil {
		return nil, err
	}
	if frag.Limit > 0 {
		cur = NewLimit(obs.OpLimit, cur, frag.Limit)
		ops = append(ops, cur)
	}
	cur = NewEmit(obs.OpEmit, cur, emit)
	ops = append(ops, cur)
	return &Tree{Root: cur, Ops: ops}, nil
}

// lowerChain lowers one chain onto cur and appends its operators to ops:
// a filter over its predicates, a hash aggregate when it aggregates, and
// a projection unless it aggregates and projects nothing. Up to the
// aggregate the operators share one memo, which the lowest of them
// resets per batch, and one lane set, which fans out when binder can
// fork (a DAP's can, the QPC's cannot); the aggregate emits fresh rows,
// so the projection over them starts a memo and a set of its own. tag
// suffixes each operator's name ("[i]" in table i's stage), and site
// prefixes its errors.
func lowerChain(ch *core.Chain, cur Operator, ops []Operator, binder core.OpBinder, gov *Governor, tag, site string) (Operator, []Operator, error) {
	memo := core.NewMemo()
	// set is the first operator's own lane set, which the others join.
	var set *laneSet
	if len(ch.Predicates) > 0 {
		preds, err := compileExprs(ch.Predicates, binder, memo)
		if err != nil {
			return nil, nil, err
		}
		f := NewFilter(obs.OpFilter+tag, cur, preds, memo, true, site)
		set, cur = f.set, f
		ops = append(ops, cur)
	}
	aggregates := len(ch.Aggregates) > 0
	if aggregates {
		agg, err := NewHashAggregate(obs.OpHashAgg+tag, cur, ch.GroupBy, ch.Aggregates, binder, memo, set == nil, site, DefaultBatchRows, gov.Grant(obs.OpHashAgg+tag))
		if err != nil {
			return nil, nil, err
		}
		if set == nil {
			set = agg.set
		} else {
			set.ls[0].args, agg.set = agg.set.ls[0].args, set
		}
		cur = agg
		ops = append(ops, cur)
	}
	if !aggregates || len(ch.Projections) > 0 {
		if aggregates {
			memo = core.NewMemo()
		}
		projs, names, err := compileProjs(ch.Projections, binder, memo)
		if err != nil {
			return nil, nil, err
		}
		p := NewProject(obs.OpProject+tag, cur, projs, names, memo, set == nil || aggregates, site)
		switch {
		case set == nil:
			set = p.set
		case !aggregates:
			set.ls[0].projs, p.set = projs, set
		}
		cur = p
		ops = append(ops, cur)
	}
	set.fork = forkLanes(ch, binder)
	return cur, ops, nil
}

// forkLanes returns how a chain's lane set compiles another lane — the
// chain's expressions in lowering's order, so the memo shares the same
// call sites — or nil when it never fans out: the binder cannot fork, or
// nothing in the chain calls a bound operator (a chain of column
// references is cheaper than the fork).
func forkLanes(ch *core.Chain, binder core.OpBinder) func() (*lane, error) {
	fb, ok := binder.(laneForker)
	if !ok {
		return nil
	}
	calls := false
	ch.Calls(func(string) { calls = true })
	if !calls {
		return nil
	}
	return func() (*lane, error) {
		b := fb.Fork()
		ln := &lane{memo: core.NewMemo()}
		var err error
		if ln.preds, err = compileExprs(ch.Predicates, b, ln.memo); err != nil {
			return nil, err
		}
		if len(ch.Aggregates) > 0 {
			ln.args, err = compileAggArgs(ch.Aggregates, b, ln.memo)
		} else {
			ln.projs, _, err = compileProjs(ch.Projections, b, ln.memo)
		}
		return ln, err
	}
}

// LowerPlan lowers the QPC's post-stream work onto the fragments' pull
// feeds: per-fragment sources (each behind a bounded prefetcher) and
// stages, the left-deep hash-join chain, the plan's chain, ordering or
// limit, and the client emit sink.
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

	// Each fragment's stage runs on its own stream, below the joins.
	for i, frag := range plan.Fragments {
		if frag.Stage == nil {
			continue
		}
		var err error
		if srcs[i], ops, err = lowerChain(frag.Stage, srcs[i], ops, binder, gov, opName("", i), "qpc"); err != nil {
			return nil, err
		}
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

	cur, ops, err := lowerChain(&plan.Chain, cur, ops, binder, gov, "", "qpc")
	if err != nil {
		return nil, err
	}
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
