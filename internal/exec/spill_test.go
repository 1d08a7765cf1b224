package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"mocha/internal/core"
	"mocha/internal/obs"
	"mocha/internal/ops"
	"mocha/internal/types"
)

// checkLeaks fails the test if goroutines started during it are still
// alive shortly after it ends, or if it leaves a spill file open
// (stdlib-only leak check: operators must join their build and prefetch
// goroutines and close their spill file on Close, on every path). The
// descriptor half is skipped where /proc is absent; the collector is off
// meanwhile, so no finalizer closes a leaked file behind the count.
func checkLeaks(t *testing.T) {
	t.Helper()
	gc := debug.SetGCPercent(-1)
	base, files := runtime.NumGoroutine(), openSpillFiles()
	t.Cleanup(func() {
		open := openSpillFiles()
		debug.SetGCPercent(gc)
		if open > files {
			t.Errorf("descriptor leak: %d spill files open, started with %d", open, files)
		}
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= base {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d live, started with %d\n%s",
			runtime.NumGoroutine(), base, buf[:n])
	})
}

// openSpillFiles counts the process's descriptors open on a spill file,
// or -1 without /proc.
func openSpillFiles() int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink("/proc/self/fd/" + fd.Name()); err == nil && strings.Contains(target, "mocha-spill-") {
			n++
		}
	}
	return n
}

// kvRows builds (key, payload) tuples with padded string payloads, big
// enough that a few dozen rows overflow a sub-kilobyte budget.
func kvRows(n, keyMod int) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := 0; i < n; i++ {
		rows[i] = types.Tuple{
			types.Int(i % keyMod),
			types.String_(fmt.Sprintf("payload-%04d-%s", i, strings.Repeat("x", 48))),
		}
	}
	return rows
}

// joinShape is one spilled-join input: probe ⋈ build on column 0 and,
// when stacked is set, that join's output probing stacked on column 0
// through a second join under the same governor (Q6's shape).
type joinShape struct {
	name                  string
	budget                int64
	probe, build, stacked []types.Tuple
	// minSpills is the least number of runs the spilled joins must write.
	minSpills int64
}

// runJoin executes the shape under gov (nil: ungoverned) and returns the
// emitted rows plus the joins' stats.
func runJoin(t *testing.T, sh joinShape, gov *Governor) ([]types.Tuple, []*OpStats) {
	t.Helper()
	left := NewSource("op:remote[0]", slicePull(sh.probe), 8)
	right := NewSource("op:remote[1]", slicePull(sh.build), 8)
	j := NewHashJoin("op:hashjoin[0]", left, right, 0, 0, "probe key", "build key", false, gov.Grant("op:hashjoin[0]"), 8)
	ops, joins := []Operator{left, right, j}, []*HashJoin{j}
	if sh.stacked != nil {
		top := NewSource("op:remote[2]", slicePull(sh.stacked), 8)
		j = NewHashJoin("op:hashjoin[1]", j, top, 0, 0, "probe key", "build key", false, gov.Grant("op:hashjoin[1]"), 8)
		ops, joins = append(ops, top, j), append(joins, j)
	}
	got := collect(t, j, ops)
	var st []*OpStats
	for _, j := range joins {
		st = append(st, j.Stats())
	}
	return got, st
}

// keyRows builds n (key, payload) rows on one key with payloads of width
// bytes, numbered from first.
func keyRows(key, n, first, width int) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(key), types.String_(fmt.Sprintf("row-%04d-%s", first+i, strings.Repeat("p", width)))}
	}
	return rows
}

// rasterRows builds n (key, raster) rows with 64×64 rasters (4 KB of
// pixels each), keys cycling through keyMod.
func rasterRows(n, keyMod int) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(i % keyMod), types.NewRaster(64, 64, bytes.Repeat([]byte{byte(i)}, 64*64))}
	}
	return rows
}

// encodeRows is rows' wire bytes: every payload byte compared, where
// printing a raster shows only its size.
func encodeRows(rows []types.Tuple) []byte {
	var b []byte
	for _, r := range rows {
		b = r.AppendTo(b)
	}
	return b
}

// TestHashJoinSpillMatchesInMemory pins the spill path's byte-identical
// guarantee: with a budget that forces a Grace-style partition spill,
// the join emits exactly the same rows in exactly the same order as the
// ungoverned in-memory build — over the shapes a run of row references
// must survive.
func TestHashJoinSpillMatchesInMemory(t *testing.T) {
	checkLeaks(t)
	// Two keys in different partitions: the second has build rows only,
	// so its probe partition is empty, and the other two partitions are
	// empty on both sides.
	k1, k2 := 1, 2
	for types.Int(k2).Hash()%spillPartitions == types.Int(k1).Hash()%spillPartitions {
		k2++
	}
	shapes := []joinShape{
		{name: "wide_key_range", budget: 1024, probe: kvRows(80, 13), build: kvRows(60, 13)},
		// Each chunk holds one build row, so the probe row's six matches
		// come from six chunk passes: six runs referring to one row.
		{name: "one_probe_row_many_chunks", budget: 200,
			probe: keyRows(1, 1, 0, 8), build: keyRows(1, 6, 100, 64), minSpills: 2 + 6},
		{name: "one_build_row_many_probes", budget: 1024,
			probe: append(kvRows(40, 5), keyRows(3, 50, 500, 48)...), build: append(keyRows(3, 1, 900, 48), kvRows(30, 5)...)},
		{name: "raster_payloads", budget: 16 << 10, probe: rasterRows(20, 6), build: rasterRows(12, 4)},
		{name: "empty_partitions", budget: 512,
			probe: keyRows(k1, 12, 0, 40), build: append(keyRows(k1, 5, 100, 40), keyRows(k2, 9, 200, 40)...)},
		{name: "spilled_join_probes_spilled_join", budget: 2048,
			probe: kvRows(60, 7), build: kvRows(21, 7), stacked: kvRows(14, 7)},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			want, wantSt := runJoin(t, sh, nil)
			for _, st := range wantSt {
				if st.Spills != 0 {
					t.Fatalf("ungoverned join spilled: %+v", st)
				}
			}
			if len(want) == 0 {
				t.Fatal("shape joins nothing")
			}
			g := NewGovernor(sh.budget, obs.NewRegistry())
			got, sts := runJoin(t, sh, g)
			for _, st := range sts {
				if st.Spills == 0 || st.Spills < sh.minSpills {
					t.Errorf("%s wrote %d runs under a %d B budget, want ≥ max(1, %d)", st.Name, st.Spills, sh.budget, sh.minSpills)
				}
				if st.SpillBytes == 0 || st.SpillTuples == 0 {
					t.Errorf("spill accounting empty: %+v", st)
				}
			}
			if !bytes.Equal(encodeRows(got), encodeRows(want)) {
				t.Errorf("spilled join diverged from in-memory:\n got %d rows %v\nwant %d rows %v",
					len(got), got[:min(3, len(got))], len(want), want[:min(3, len(want))])
			}
			if g.Granted() != 0 {
				t.Errorf("granted = %d after close", g.Granted())
			}
			if g.HighWater() > g.Budget() {
				t.Errorf("high water %d over budget %d", g.HighWater(), g.Budget())
			}
		})
	}
}

// runAgg executes SELECT $0, Count($1), Sum($1) GROUP BY $0.
func runAgg(t *testing.T, rows []types.Tuple, gr *Grant) ([]types.Tuple, *OpStats) {
	t.Helper()
	binder := core.NativeBinder{Reg: ops.Builtins()}
	memo := core.NewMemo()
	src := NewSource("op:remote[0]", slicePull(rows), 8)
	agg, err := NewHashAggregate("op:hashagg", src, []int{0}, []core.AggSpec{
		{Name: "n", Func: "Count", Ret: types.KindInt,
			Args: []*core.PExpr{core.NewCol(1, types.KindString)}},
	}, binder, memo, true, "qpc", 8, gr)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, agg, []Operator{src, agg})
	return got, agg.Stats()
}

// TestHashAggSpillMatchesInMemory: the hybrid aggregate spill must not
// change the result — same groups, same values, same order.
func TestHashAggSpillMatchesInMemory(t *testing.T) {
	checkLeaks(t)
	rows := kvRows(300, 97) // 97 wide groups overflow a 1 KiB table
	want, wantSt := runAgg(t, rows, nil)
	if wantSt.Spills != 0 {
		t.Fatalf("ungoverned aggregate spilled: %+v", wantSt)
	}
	if len(want) != 97 {
		t.Fatalf("baseline groups = %d", len(want))
	}

	g := NewGovernor(1024, obs.NewRegistry())
	got, st := runAgg(t, rows, g.Grant("op:hashagg"))
	if st.Spills == 0 {
		t.Fatal("1 KiB budget did not force an aggregate spill")
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("spilled aggregate diverged from in-memory:\n got %v\nwant %v", got, want)
	}
	if g.Granted() != 0 {
		t.Errorf("granted = %d after close", g.Granted())
	}
	if g.HighWater() > g.Budget() {
		t.Errorf("high water %d over budget %d", g.HighWater(), g.Budget())
	}
}

// TestHashJoinCancelMidBuildCleans: cancelling the query mid-build
// stops the build goroutine, Close joins it and closes the spill file,
// and the grant drains — no goroutine or descriptor leak, no memory
// held.
func TestHashJoinCancelMidBuildCleans(t *testing.T) {
	checkLeaks(t)
	g := NewGovernor(1024, obs.NewRegistry())
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	buildPull := func() (types.Tuple, error) {
		n++
		if n == 40 {
			cancel() // mid-build, after every partition wrote a block
		}
		if n > 200 {
			return nil, nil
		}
		return types.Tuple{types.Int(n % 7), types.String_(strings.Repeat("y", 256))}, nil
	}
	left := NewSource("op:remote[0]", slicePull(kvRows(50, 7)), 8)
	right := NewSource("op:remote[1]", buildPull, 8)
	j := NewHashJoin("op:hashjoin[0]", left, right, 0, 0, "l", "r", false, g.Grant("op:hashjoin[0]"), 8)
	err := Run(ctx, &Tree{Root: j, Ops: []Operator{left, right, j}}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if g.Granted() != 0 {
		t.Errorf("granted = %d after cancelled query closed", g.Granted())
	}
}

// TestHashJoinCancelMidProbeCleans cancels after rows have started
// flowing out of a spilled join, exercising teardown with an open spill
// file and a live merge.
func TestHashJoinCancelMidProbeCleans(t *testing.T) {
	checkLeaks(t)
	g := NewGovernor(512, obs.NewRegistry())
	ctx, cancel := context.WithCancel(context.Background())
	probe, build := kvRows(100, 11), kvRows(80, 11)
	left := NewSource("op:remote[0]", slicePull(probe), 8)
	right := NewSource("op:remote[1]", slicePull(build), 8)
	j := NewHashJoin("op:hashjoin[0]", left, right, 0, 0, "l", "r", false, g.Grant("op:hashjoin[0]"), 8)
	emitted := 0
	tree := &Tree{Root: NewEmit("op:emit", j, func(types.Tuple) error {
		emitted++
		if emitted == 5 {
			cancel()
		}
		return nil
	}), Ops: []Operator{left, right, j}}
	err := Run(ctx, tree, nil)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled (emitted %d)", err, emitted)
	}
	if g.Granted() != 0 {
		t.Errorf("granted = %d after cancelled query closed", g.Granted())
	}
}

// TestSpillOverBudgetSingleRecord: when even one record exceeds the
// whole budget the query fails with the typed OverBudgetError instead
// of looping or deadlocking.
func TestSpillOverBudgetSingleRecord(t *testing.T) {
	checkLeaks(t)
	g := NewGovernor(64, obs.NewRegistry())
	big := []types.Tuple{{types.Int(1), types.String_(strings.Repeat("z", 4096))}}
	left := NewSource("op:remote[0]", slicePull(big), 8)
	right := NewSource("op:remote[1]", slicePull(big), 8)
	j := NewHashJoin("op:hashjoin[0]", left, right, 0, 0, "l", "r", false, g.Grant("op:hashjoin[0]"), 8)
	err := Run(context.Background(), &Tree{Root: j, Ops: []Operator{left, right, j}}, nil)
	var obe *OverBudgetError
	if !errors.As(err, &obe) {
		t.Fatalf("err = %v, want OverBudgetError", err)
	}
	if g.Granted() != 0 {
		t.Errorf("granted = %d after failed query closed", g.Granted())
	}
}
