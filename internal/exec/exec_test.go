package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mocha/internal/core"
	"mocha/internal/ops"
	"mocha/internal/types"
)

// slicePull returns a PullFunc over fixed rows.
func slicePull(rows []types.Tuple) PullFunc {
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

func intRows(vals ...int) []types.Tuple {
	rows := make([]types.Tuple, len(vals))
	for i, v := range vals {
		rows[i] = types.Tuple{types.Int(v)}
	}
	return rows
}

// collect drives a tree and gathers every emitted tuple.
func collect(t *testing.T, root Operator, ops []Operator) []types.Tuple {
	t.Helper()
	var got []types.Tuple
	tree := &Tree{Root: NewEmit("op:emit", root, func(tup types.Tuple) error {
		got = append(got, tup)
		return nil
	}), Ops: ops}
	if err := Run(context.Background(), tree, nil); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSourceBatching(t *testing.T) {
	src := NewSource("op:remote[0]", slicePull(intRows(1, 2, 3, 4, 5)), 2)
	if err := src.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for {
		b, err := src.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		sizes = append(sizes, len(b))
	}
	if fmt.Sprint(sizes) != "[2 2 1]" {
		t.Errorf("batch sizes = %v", sizes)
	}
	st := src.Stats()
	if st.RowsOut != 5 || st.Batches != 3 {
		t.Errorf("stats = %+v", st)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchBound pins the prefetcher's read-ahead bound: with a
// stalled consumer it pulls at most depth buffered batches plus the one
// blocked in flight.
func TestPrefetchBound(t *testing.T) {
	var pulls atomic.Int64
	pull := func() (types.Tuple, error) {
		pulls.Add(1)
		return types.Tuple{types.Int(1)}, nil
	}
	const depth = 2
	p := NewPrefetch("op:prefetch[0]", NewSource("op:remote[0]", pull, 1), depth)
	if err := p.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// One-row batches, so each pull is one buffered batch. Wait for the
	// prefetcher to saturate, then verify it goes no further.
	deadline := time.Now().Add(2 * time.Second)
	for pulls.Load() < depth+1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if n := pulls.Load(); n != depth+1 {
		t.Errorf("prefetcher pulled %d batches ahead; bound is %d", n, depth+1)
	}
	// Consuming one batch frees exactly one slot.
	if _, err := p.NextBatch(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for pulls.Load() < depth+2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if n := pulls.Load(); n != depth+2 {
		t.Errorf("after one consume prefetcher pulled %d; want %d", n, depth+2)
	}
}

// barrierPull blocks every puller until all expected pullers have
// arrived, then replays rows. A tree whose build sides run sequentially
// deadlocks on it; concurrent builds pass.
func barrierPull(barrier *sync.WaitGroup, rows []types.Tuple) PullFunc {
	inner := slicePull(rows)
	var once sync.Once
	return func() (types.Tuple, error) {
		once.Do(func() {
			barrier.Done()
			barrier.Wait()
		})
		return inner()
	}
}

// TestHashJoinBuildsConcurrent pins the tentpole concurrency property:
// in a two-join tree both build sides are building at the same time.
// Each build source blocks until the other has started; sequential
// builds would deadlock (caught by the watchdog timeout).
func TestHashJoinBuildsConcurrent(t *testing.T) {
	var barrier sync.WaitGroup
	barrier.Add(2)
	left := NewSource("op:remote[0]", slicePull(intRows(1, 2, 3)), 8)
	b1 := NewSource("op:remote[1]", barrierPull(&barrier, intRows(2, 3, 4)), 8)
	b2 := NewSource("op:remote[2]", barrierPull(&barrier, intRows(3, 4, 5)), 8)
	j1 := NewHashJoin("op:hashjoin[0]", left, b1, 0, 0, "l", "r", false, nil, 4)
	j2 := NewHashJoin("op:hashjoin[1]", j1, b2, 0, 0, "l", "r", false, nil, 4)

	done := make(chan []types.Tuple, 1)
	go func() {
		var got []types.Tuple
		tree := &Tree{Root: j2, Ops: []Operator{left, b1, b2, j1, j2}}
		err := Run(context.Background(), &Tree{Root: NewEmit("op:emit", tree.Root, func(tup types.Tuple) error {
			got = append(got, tup)
			return nil
		}), Ops: tree.Ops}, nil)
		if err != nil {
			t.Error(err)
		}
		done <- got
	}()
	select {
	case got := <-done:
		// 3 joins 1-col rows: rows surviving both joins are {3}.
		if len(got) != 1 || got[0][0] != types.Int(3) {
			t.Errorf("joined rows = %v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("build sides did not run concurrently (rendezvous deadlock)")
	}
}

// TestHashJoinSerialMatches checks the serial fallback produces the same
// rows as the concurrent path.
func TestHashJoinSerialMatches(t *testing.T) {
	run := func(serial bool) []types.Tuple {
		left := NewSource("op:remote[0]", slicePull(intRows(1, 2, 2, 3)), 2)
		build := NewSource("op:remote[1]", slicePull(intRows(2, 3, 3)), 2)
		j := NewHashJoin("op:hashjoin[0]", left, build, 0, 0, "l", "r", serial, nil, 4)
		return collect(t, j, []Operator{left, build, j})
	}
	conc, ser := run(false), run(true)
	if fmt.Sprint(conc) != fmt.Sprint(ser) {
		t.Errorf("serial %v != concurrent %v", ser, conc)
	}
	if len(conc) != 4 { // 2,2 match once each; 3 matches twice
		t.Errorf("rows = %v", conc)
	}
}

func TestHashJoinKeyKindErrors(t *testing.T) {
	raster := types.Tuple{types.NewRaster(1, 1, []byte{9})}
	// Build-side kind error names the right description.
	left := NewSource("op:remote[0]", slicePull(intRows(1)), 8)
	build := NewSource("op:remote[1]", slicePull([]types.Tuple{raster}), 8)
	j := NewHashJoin("op:hashjoin[0]", left, build, 0, 0,
		"combined column 0 (a)", "fragment 1 at site2, output column 0 (img)", false, nil, 4)
	err := Run(context.Background(), &Tree{Root: j, Ops: []Operator{left, build, j}}, nil)
	if err == nil || !strings.Contains(err.Error(), "fragment 1 at site2, output column 0 (img)") {
		t.Errorf("build key error = %v", err)
	}
	// Probe-side kind error names the left description.
	left = NewSource("op:remote[0]", slicePull([]types.Tuple{raster}), 8)
	build = NewSource("op:remote[1]", slicePull(intRows(1)), 8)
	j = NewHashJoin("op:hashjoin[0]", left, build, 0, 0,
		"combined column 0 (a)", "fragment 1 at site2, output column 0 (img)", false, nil, 4)
	err = Run(context.Background(), &Tree{Root: j, Ops: []Operator{left, build, j}}, nil)
	if err == nil || !strings.Contains(err.Error(), "combined column 0 (a)") {
		t.Errorf("probe key error = %v", err)
	}
}

func TestTopKMatchesSortTruncate(t *testing.T) {
	vals := []int{5, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	keys := []core.OrderSpec{{Col: 0, Desc: true}}
	for _, k := range []int{0, 1, 3, len(vals), len(vals) + 5} {
		src := NewSource("op:remote[0]", slicePull(intRows(vals...)), 3)
		topk := NewTopK("op:topk", src, keys, k, 4)
		got := collect(t, topk, []Operator{src, topk})

		want := intRows(vals...)
		if err := core.SortTuples(want, keys); err != nil {
			t.Fatal(err)
		}
		if k < len(want) {
			want = want[:k]
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("k=%d: topk = %v, want %v", k, got, want)
		}
	}
}

// TestTopKStability checks ties keep first-seen order, matching the
// stable sort + truncate the executor previously used.
func TestTopKStability(t *testing.T) {
	rows := []types.Tuple{
		{types.Int(1), types.String_("a")},
		{types.Int(1), types.String_("b")},
		{types.Int(1), types.String_("c")},
		{types.Int(0), types.String_("d")},
	}
	src := NewSource("op:remote[0]", slicePull(rows), 2)
	topk := NewTopK("op:topk", src, []core.OrderSpec{{Col: 0}}, 3, 4)
	got := collect(t, topk, []Operator{src, topk})
	want := "[(0, d) (1, a) (1, b)]"
	if fmt.Sprint(got) != want {
		t.Errorf("topk = %v, want %v", got, want)
	}
}

func TestTopKUnorderable(t *testing.T) {
	rows := []types.Tuple{{types.NewRaster(1, 1, []byte{1})}, {types.NewRaster(1, 1, []byte{2})}}
	src := NewSource("op:remote[0]", slicePull(rows), 2)
	topk := NewTopK("op:topk", src, []core.OrderSpec{{Col: 0}}, 1, 4)
	err := Run(context.Background(), &Tree{Root: topk, Ops: []Operator{src, topk}}, nil)
	if err == nil || !strings.Contains(err.Error(), "cannot order by") {
		t.Errorf("err = %v", err)
	}
}

// TestScanSourceStop checks early tree shutdown (a satisfied LIMIT)
// stops the scan goroutine cleanly: the scan body sees ErrStopped and
// reads only a bounded prefix.
func TestScanSourceStop(t *testing.T) {
	var read atomic.Int64
	var scanErr error
	src := NewScanSource("op:scan", func(emit func(types.Tuple) error) error {
		for i := 0; i < 100000; i++ {
			read.Add(1)
			if err := emit(types.Tuple{types.Int(i)}); err != nil {
				scanErr = err
				return err
			}
		}
		return nil
	}, 4, 2)
	lim := NewLimit("op:limit", src, 5)
	got := collect(t, lim, []Operator{src, lim})
	if len(got) != 5 {
		t.Fatalf("rows = %d", len(got))
	}
	if !errors.Is(scanErr, ErrStopped) {
		t.Errorf("scan body got %v, want ErrStopped", scanErr)
	}
	// Bounded overshoot: limit + (depth+2 in-flight batches) rows.
	if n := read.Load(); n > 5+4*4 {
		t.Errorf("scan read %d rows past a LIMIT 5", n)
	}
}

func TestScanSourceError(t *testing.T) {
	boom := errors.New("disk on fire")
	src := NewScanSource("op:scan", func(emit func(types.Tuple) error) error {
		if err := emit(types.Tuple{types.Int(1)}); err != nil {
			return err
		}
		return boom
	}, 8, 2)
	err := Run(context.Background(), &Tree{Root: src, Ops: []Operator{src}}, nil)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

func TestFilterProjectExpressions(t *testing.T) {
	binder := core.NativeBinder{Reg: ops.Builtins()}
	memo := core.NewMemo()
	// WHERE $0 < 3
	pred, err := core.CompileExprMemo(&core.PExpr{
		Kind: core.ExprBinop, Op: "<", Ret: types.KindBool,
		Args: []*core.PExpr{core.NewCol(0, types.KindInt), core.NewConst(types.Int(3))},
	}, binder, memo)
	if err != nil {
		t.Fatal(err)
	}
	// SELECT $0 * 10
	proj, err := core.CompileExprMemo(&core.PExpr{
		Kind: core.ExprBinop, Op: "*", Ret: types.KindInt,
		Args: []*core.PExpr{core.NewCol(0, types.KindInt), core.NewConst(types.Int(10))},
	}, binder, memo)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSource("op:remote[0]", slicePull(intRows(1, 5, 2, 4, 0)), 2)
	f := NewFilter("op:filter", src, []core.EvalFn{pred}, memo, true, "qpc")
	p := NewProject("op:project", f, []core.EvalFn{proj}, []string{"x"}, memo, false, "qpc")
	got := collect(t, p, []Operator{src, f, p})
	if fmt.Sprint(got) != "[(10) (20) (0)]" {
		t.Errorf("rows = %v", got)
	}
	if f.Stats().RowsIn != 5 || f.Stats().RowsOut != 3 {
		t.Errorf("filter stats = %+v", f.Stats())
	}
}

func TestHashAggregateGroups(t *testing.T) {
	binder := core.NativeBinder{Reg: ops.Builtins()}
	memo := core.NewMemo()
	// SELECT $0, Count($1) GROUP BY $0 over two-column rows.
	rows := []types.Tuple{
		{types.Int(2), types.Int(10)},
		{types.Int(1), types.Int(11)},
		{types.Int(2), types.Int(12)},
		{types.Int(1), types.Int(13)},
		{types.Int(2), types.Int(14)},
	}
	src := NewSource("op:remote[0]", slicePull(rows), 2)
	agg, err := NewHashAggregate("op:hashagg", src, []int{0}, []core.AggSpec{{
		Name: "n", Func: "Count", Ret: types.KindInt,
		Args: []*core.PExpr{core.NewCol(1, types.KindInt)},
	}}, binder, memo, true, "qpc", 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, agg, []Operator{src, agg})
	// Deterministic emission: sorted by encoded group key.
	if fmt.Sprint(got) != "[(1, 2) (2, 3)]" {
		t.Errorf("groups = %v", got)
	}
}

// TestAggregateRouteAllocatesNothing: route builds a row's group key
// into a buffer the aggregate keeps and looks the group up without a
// key string, so a row of a group that exists costs route nothing; only
// a new group pays for its key and its tuple. (Five while every row
// built its own key tuple, key bytes and key string.)
func TestAggregateRouteAllocatesNothing(t *testing.T) {
	binder := core.NativeBinder{Reg: ops.Builtins()}
	src := NewSource("op:remote[0]", slicePull(nil), 4)
	agg, err := NewHashAggregate("op:hashagg", src, []int{0, 2}, []core.AggSpec{{
		Name: "n", Func: "Count", Ret: types.KindInt,
		Args: []*core.PExpr{core.NewCol(1, types.KindInt)},
	}}, binder, core.NewMemo(), true, "qpc", 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	row := types.Tuple{types.String_("landuse-7"), types.Int(3), types.Int(1 << 20)}
	first, err := agg.route(row)
	if err != nil || first == nil {
		t.Fatalf("first row: group %v, %v", first, err)
	}
	var again *aggGroup
	if allocs := testing.AllocsPerRun(100, func() { again, _ = agg.route(row) }); allocs != 0 {
		t.Errorf("a row of an existing group costs route %.0f allocations, want 0", allocs)
	}
	if again != first || len(agg.groups) != 1 {
		t.Errorf("the row found group %p of %d, want %p", again, len(agg.groups), first)
	}
}

// TestRunOnErrCancels checks the error hook fires between the first
// error and Close, so callers can cancel outstanding I/O.
func TestRunOnErrCancels(t *testing.T) {
	boom := errors.New("probe failed")
	n := 0
	src := NewSource("op:remote[0]", func() (types.Tuple, error) {
		n++
		if n > 2 {
			return nil, boom
		}
		return types.Tuple{types.Int(n)}, nil
	}, 1)
	var hooked error
	err := Run(context.Background(), &Tree{Root: src, Ops: []Operator{src}}, func(e error) { hooked = e })
	if !errors.Is(err, boom) || !errors.Is(hooked, boom) {
		t.Errorf("err = %v, hook = %v", err, hooked)
	}
}

func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	src := NewSource("op:remote[0]", func() (types.Tuple, error) {
		n++
		if n == 3 {
			cancel()
		}
		return types.Tuple{types.Int(n)}, nil
	}, 1)
	err := Run(ctx, &Tree{Root: src, Ops: []Operator{src}}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v", err)
	}
}

func TestSortOperator(t *testing.T) {
	vals := []int{5, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	keys := []core.OrderSpec{{Col: 0}}
	src := NewSource("op:remote[0]", slicePull(intRows(vals...)), 3)
	sort := NewSort("op:sort", src, keys, 4)
	got := collect(t, sort, []Operator{src, sort})

	want := intRows(vals...)
	if err := core.SortTuples(want, keys); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("sort = %v, want %v", got, want)
	}
}

func TestSortUnorderable(t *testing.T) {
	raster := types.Tuple{types.NewRaster(1, 1, []byte{1})}
	src := NewSource("op:remote[0]", slicePull([]types.Tuple{raster, raster}), 8)
	sort := NewSort("op:sort", src, []core.OrderSpec{{Col: 0}}, 4)
	err := Run(context.Background(), &Tree{Root: sort, Ops: []Operator{src, sort}}, nil)
	if err == nil {
		t.Error("sorting unorderable values succeeded")
	}
}
