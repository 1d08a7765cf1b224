package mocha

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mocha/internal/exec"
	"mocha/internal/obs"
	"mocha/internal/sequoia"
	"mocha/internal/storage"
)

// laneRecord is what one run of every ladder statement shows: per
// statement and strategy, the result rows' wire bytes, CVDT, the DAPs'
// instruction and fast-run counts, and every operator's rows in and out.
func laneRecord(t *testing.T, w int) []string {
	t.Helper()
	restore := exec.ForceLanes(w)
	defer restore()
	var lines []string
	run := func(name, label string, cl *Cluster) {
		for _, strat := range []Strategy{StrategyCodeShip, StrategyDataShip, StrategyAuto} {
			cl.SetStrategy(strat)
			instrs := cl.Metrics().Counter(obs.MVMInstructions)
			fast := cl.Metrics().Counter(obs.MVMFastpathRuns)
			i0, f0 := instrs.Value(), fast.Value()
			res, err := cl.Execute(label)
			if err != nil {
				t.Fatalf("W=%d %s under %v: %v", w, name, strat, err)
			}
			var rows []byte
			for _, r := range res.Rows {
				rows = r.AppendTo(rows)
			}
			var ops []string
			for _, sp := range res.Trace.Spans() {
				// The spill pseudo-spans are not operators: how much of a
				// join the QPC spills depends on which of its concurrent
				// builds reaches the shared grant first, at any W.
				if strings.HasPrefix(sp.Name, "op:") && sp.Name != obs.OpSpillJoin && sp.Name != obs.OpSpillAgg {
					ops = append(ops, fmt.Sprintf("%s@%s %d→%d", sp.Name, sp.Site, sp.RowsIn, sp.Tuples))
				}
			}
			sort.Strings(ops)
			lines = append(lines, fmt.Sprintf("%s %v: rows %x cvdt %d instrs %d fast %d ops %s",
				name, strat, rows, res.Stats.CVDT, instrs.Value()-i0, fast.Value()-f0, strings.Join(ops, " ")))
		}
	}
	ladder := func(name string, cl *Cluster, queries []struct{ label, sql string }) {
		for _, q := range queries {
			run(name+" "+q.label, q.sql, cl)
		}
	}

	plain, scale := testCluster(t, ClusterConfig{})
	ladder("dagcut", plain, dagCutLadderQueries(t, plain, scale))
	governed, _ := testCluster(t, ClusterConfig{Exec: Tuning{MemBudgetBytes: spillBudget}})
	ladder("spill48k", governed, spillLadderQueries(scale))
	part, _, _ := partitionedPair(t, func(src *storage.Table) *PartitionSpec {
		return RangePlacement("Rasters", "time", timeCuts(t, src, 3),
			[][]string{partitionSites(0), partitionSites(1), partitionSites(2)})
	}, ClusterConfig{})
	ladder("range3", part, partitionLadderQueries(partitionScale()))
	shapes, scale := testCluster(t, ClusterConfig{})
	for _, st := range paperStatements(t, shapes, scale) {
		if st.cal != nil {
			shapes.SetSelectivity("NumVertices", "Graphs", st.cal.VertSelectivity)
			shapes.SetSelectivity("TotalLength", "Graphs", st.cal.LenSelectivity)
		}
		run("shapes "+st.label, st.sql, shapes)
	}
	return lines
}

// TestLaneParity runs the dag-cut, spill (48 KiB), range3 and paper-shape
// ladders under all three strategies with every DAP fan-out pinned to 1,
// 2 and 4 lanes: rows byte for byte, CVDT, the DAPs' instruction and
// fast-run counts and every operator's rows in and out must not depend
// on W.
func TestLaneParity(t *testing.T) {
	want := laneRecord(t, 1)
	for _, w := range []int{2, 4} {
		got := laneRecord(t, w)
		if len(got) != len(want) {
			t.Fatalf("W=%d: %d records, W=1 has %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				at := 0
				for at < len(got[i]) && at < len(want[i]) && got[i][at] == want[i][at] {
					at++
				}
				t.Errorf("W=%d differs from W=1 at byte %d of\n %.120s:\n got  …%.300s\n want …%.300s",
					w, at, want[i], got[i][max(0, at-60):], want[i][max(0, at-60):])
			}
		}
	}
}

// TestHelperTokensUnderLoad runs code-shipped Q1 and Q3 from 16 clients
// at once against the data-shipped oracle: every result is the oracle's,
// the helper pool (GOMAXPROCS−1 tokens, counted when the process
// started) is full again afterwards, and no goroutine outlives the run.
func TestHelperTokensUnderLoad(t *testing.T) {
	cl, _ := testCluster(t, ClusterConfig{})
	queries := []string{sequoia.Q1, sequoia.Q3}
	cl.SetStrategy(StrategyDataShip)
	oracle := make([][]string, len(queries))
	for i, sql := range queries {
		res, err := cl.Execute(sql)
		if err != nil {
			t.Fatal(err)
		}
		oracle[i] = rowsKey(res.Rows)
	}
	cl.SetStrategy(StrategyCodeShip)
	before := runtime.NumGoroutine()

	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				qi := (c + r) % len(queries)
				res, err := cl.ExecuteContext(context.Background(), queries[qi])
				if err != nil {
					errs <- fmt.Errorf("client %d: %w", c, err)
					return
				}
				if got := rowsKey(res.Rows); strings.Join(got, "\n") != strings.Join(oracle[qi], "\n") {
					errs <- fmt.Errorf("client %d: query %d differs from the oracle", c, qi)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// take never gives out more than is free, so a pool that is full
	// again gave out no more than its size; an over-give would leave
	// more free than that.
	if size, free := exec.HelperTokens(); free != size {
		t.Errorf("%d of %d helper tokens free after the run", free, size)
	}
	// Sessions wind down asynchronously; give them a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the run, %d before", n, before)
	}
}
