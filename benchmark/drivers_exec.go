package main

import (
	"context"
	"fmt"

	"mocha/internal/core"
	"mocha/internal/exec"
	"mocha/internal/obs"
	"mocha/internal/ops"
	"mocha/internal/types"
)

// The exec drivers feed each operator from exec.NewSource over rows
// derived from the generated Graphs table — (row number, row number mod
// aggGroups, name, total length) — and drain it with exec.Run. The
// expressions are cheap built-in arithmetic on purpose: the ops.*
// metrics time the user-defined operators, these time the machinery.
const (
	// The aggregate reads the first aggRows rows in aggGroups groups:
	// more group state than spillBudget, so the governed variant spills.
	// The spill path runs at a few thousand rows/s, so the input is kept
	// short: one spilled iteration takes ~70 ms.
	aggRows   = 768
	aggGroups = 384
	// buildShare: the join's build side is every 4th row.
	buildShare = 4
	execBatch  = exec.DefaultBatchRows
)

func execRows(c *driverCtx) ([]types.Tuple, error) {
	graphs, err := c.table(0, "Graphs")
	if err != nil {
		return nil, err
	}
	rows := make([]types.Tuple, len(graphs))
	for i, g := range graphs {
		rows[i] = types.Tuple{
			types.Int(int32(i)), types.Int(int32(i % aggGroups)),
			g[0], types.Double(g[1].(types.Graph).TotalLength()),
		}
	}
	return rows, nil
}

func slicePull(rows []types.Tuple) exec.PullFunc {
	i := 0
	return func() (types.Tuple, error) {
		if i >= len(rows) {
			return nil, nil
		}
		t := rows[i]
		i++
		return t, nil
	}
}

func source(i int, rows []types.Tuple) *exec.Source {
	return exec.NewSource(fmt.Sprintf("%s[%d]", obs.OpRemote, i), slicePull(rows), execBatch)
}

// drain runs root to completion and returns the rows it produced.
func drain(root exec.Operator) (int64, error) {
	var got int64
	tree := &exec.Tree{Root: exec.NewEmit(obs.OpEmit, root, func(types.Tuple) error {
		got++
		return nil
	})}
	return got, exec.Run(context.Background(), tree, nil)
}

// driveExecOperators times every operator of the shared executor; each
// iteration builds the operator afresh over the same rows, drains it and
// checks the output cardinality. Throughput is input rows per second.
func driveExecOperators(c *driverCtx) (map[string]float64, error) {
	rows, err := execRows(c)
	if err != nil {
		return nil, err
	}
	n := len(rows)
	var build []types.Tuple
	for i := 0; i < n; i += buildShare {
		build = append(build, rows[i])
	}
	aggIn := rows
	if len(aggIn) > aggRows {
		aggIn = aggIn[:aggRows]
	}
	binder := core.NativeBinder{Reg: ops.Builtins()}
	binop := func(op string, ret types.Kind, l, r *core.PExpr) *core.PExpr {
		return &core.PExpr{Kind: core.ExprBinop, Op: op, Ret: ret, Args: []*core.PExpr{l, r}}
	}
	byLength := []core.OrderSpec{{Col: 3}}
	gov := exec.NewGovernor(spillBudget, obs.NewRegistry())

	type opCase struct {
		metric string
		in     int // input rows per iteration
		want   int64
		make   func() (exec.Operator, error)
		// spills is what the operator's stats must say about spilling.
		spills bool
	}
	join := func(grant func() *exec.Grant) func() (exec.Operator, error) {
		return func() (exec.Operator, error) {
			return exec.NewHashJoin(obs.OpHashJoin, source(0, rows), source(1, build), 0, 0,
				"probe row", "build row", false, grant(), execBatch), nil
		}
	}
	agg := func(grant func() *exec.Grant) func() (exec.Operator, error) {
		return func() (exec.Operator, error) {
			return exec.NewHashAggregate(obs.OpHashAgg, source(0, aggIn), []int{1}, []core.AggSpec{
				{Name: "n", Func: "Count", Ret: types.KindInt, Args: []*core.PExpr{core.NewCol(0, types.KindInt)}},
				{Name: "len", Func: "Sum", Ret: types.KindDouble, Args: []*core.PExpr{core.NewCol(3, types.KindDouble)}},
			}, binder, core.NewMemo(), true, "bench", execBatch, grant())
		}
	}
	noGrant := func() *exec.Grant { return nil }
	cases := []opCase{
		{metric: "exec.filter_rows_s", in: n, want: int64(n / 2), make: func() (exec.Operator, error) {
			memo := core.NewMemo()
			pred, err := core.CompileExprMemo(binop("<", types.KindBool,
				core.NewCol(0, types.KindInt), core.NewConst(types.Int(int32(n/2)))), binder, memo)
			if err != nil {
				return nil, err
			}
			return exec.NewFilter(obs.OpFilter, source(0, rows), []core.EvalFn{pred}, memo, true, "bench"), nil
		}},
		{metric: "exec.project_rows_s", in: n, want: int64(n), make: func() (exec.Operator, error) {
			memo := core.NewMemo()
			scaled, err := core.CompileExprMemo(binop("*", types.KindInt,
				core.NewCol(0, types.KindInt), core.NewConst(types.Int(10))), binder, memo)
			if err != nil {
				return nil, err
			}
			length, err := core.CompileExprMemo(core.NewCol(3, types.KindDouble), binder, memo)
			if err != nil {
				return nil, err
			}
			return exec.NewProject(obs.OpProject, source(0, rows), []core.EvalFn{scaled, length},
				[]string{"x", "len"}, memo, true, "bench"), nil
		}},
		{metric: "exec.hashjoin_rows_s", in: n + len(build), want: int64(len(build)), make: join(noGrant)},
		{metric: "exec.hashjoin_spill_rows_s", in: n + len(build), want: int64(len(build)), spills: true,
			make: join(func() *exec.Grant { return gov.Grant(obs.OpHashJoin) })},
		{metric: "exec.hashagg_rows_s", in: len(aggIn), want: aggGroups, make: agg(noGrant)},
		{metric: "exec.hashagg_spill_rows_s", in: len(aggIn), want: aggGroups, spills: true,
			make: agg(func() *exec.Grant { return gov.Grant(obs.OpHashAgg) })},
		{metric: "exec.sort_rows_s", in: n, want: int64(n), make: func() (exec.Operator, error) {
			return exec.NewSort(obs.OpSort, source(0, rows), byLength, execBatch), nil
		}},
		{metric: "exec.topk_rows_s", in: n, want: 10, make: func() (exec.Operator, error) {
			return exec.NewTopK(obs.OpTopK, source(0, rows), byLength, 10, execBatch), nil
		}},
		{metric: "exec.gather_rows_s", in: n, want: int64(n), make: func() (exec.Operator, error) {
			const parts = 4
			children := make([]exec.Operator, parts)
			for p := range children {
				children[p] = source(p, rows[p*n/parts:(p+1)*n/parts])
			}
			return exec.NewGather(obs.OpGather, children), nil
		}},
		{metric: "exec.prefetch_rows_s", in: n, want: int64(n), make: func() (exec.Operator, error) {
			return exec.NewPrefetch(obs.OpPrefetch, source(0, rows), exec.DefaultPrefetch), nil
		}},
	}

	out := make(map[string]float64)
	for _, oc := range cases {
		iters, el, err := c.loop(func() error {
			op, err := oc.make()
			if err != nil {
				return err
			}
			got, err := drain(op)
			if err != nil {
				return err
			}
			if got != oc.want {
				return fmt.Errorf("produced %d rows, want %d", got, oc.want)
			}
			if spilled := op.Stats().Spills > 0; spilled != oc.spills {
				return fmt.Errorf("spilled=%v, want %v", spilled, oc.spills)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", oc.metric, err)
		}
		out[oc.metric] = perS(int64(oc.in), iters, el)
	}
	if gov.Granted() != 0 {
		return nil, fmt.Errorf("governor still holds %d bytes after every operator closed", gov.Granted())
	}
	return out, nil
}

// driveGovernor times one uncontended Acquire/Release pair on a grant.
func driveGovernor(c *driverCtx) (map[string]float64, error) {
	const perIter, bytes = 1000, 64
	gr := exec.NewGovernor(spillBudget, obs.NewRegistry()).Grant("bench")
	defer gr.Close()
	ctx := context.Background()
	n, el, err := c.loop(func() error {
		for i := 0; i < perIter; i++ {
			if err := gr.Acquire(ctx, bytes); err != nil {
				return err
			}
			gr.Release(bytes)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{"exec.governor_acquire_ns": nsPer(int64(n)*perIter, el)}, nil
}
