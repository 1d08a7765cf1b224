//go:build !race

package mocha

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mocha/internal/obs"
	"mocha/internal/sequoia"
	"mocha/internal/storage"
)

var updateWorkLedger = flag.Bool("update-work-ledger", false, "rewrite testdata/work_ledger.golden")

// allocSlack is how far a query's allocation count may move from its
// pinned figure before the ledger fails: above it the query does more
// work, below it a gain went unpinned.
const allocSlack = 1.05

// workRow is one query's work: the exact axes, which every run must
// reproduce, and its allocations, the minimum over the warm runs.
type workRow struct {
	instrs, framesOut, framesIn, cvdt, rows int64
	allocs                                  uint64
}

func (r workRow) exact() string {
	return fmt.Sprintf("instrs %d frames-out %d frames-in %d cvdt %d rows %d",
		r.instrs, r.framesOut, r.framesIn, r.cvdt, r.rows)
}

// TestWorkLedger counts the work Q1–Q6 and the rest of the DAG-cut
// ladder do under all three strategies, a data-shipped selective join,
// data-shipped Q5/Q6 under the 48 KiB spill budget, and the partition
// ladder over a 3-way range-partitioned Rasters. Per query it
// pins exactly the MVM instructions (Σ span Instrs), the frames the QPC
// sent and received, CVDT and the result rows, and the process-wide
// allocations, the minimum of 5 warm runs, within allocSlack either
// way. A count is a work figure a wall clock on a shared host cannot
// give: a query that allocates more fails, and one that allocates less
// asks for `-update-work-ledger`, so every gain is pinned. The race
// detector's allocator differs, so the file builds without it. The
// allocations also depend on how wide a fragment's lanes fan out, which
// the process's GOMAXPROCS at start sets, so the golden file records the
// GOMAXPROCS it was pinned at and a run under another checks only the
// exact axes (CI runs it with GOMAXPROCS=2).
func TestWorkLedger(t *testing.T) {
	const warmRuns = 5
	var got []string
	rows := map[string]workRow{}
	measure := func(name string, cl *Cluster, label, sql string, strat Strategy) {
		cl.SetStrategy(strat)
		key := fmt.Sprintf("%s %s %v", name, label, strat)
		if _, err := cl.Execute(sql); err != nil { // warm the code caches
			t.Fatalf("%s: %v", key, err)
		}
		var row workRow
		for i := 0; i < warmRuns; i++ {
			reg := cl.Metrics()
			out0 := reg.Counter("qpc_wire" + obs.MWireFramesSentSuffix).Value()
			in0 := reg.Counter("qpc_wire" + obs.MWireFramesRecvSuffix).Value()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := cl.Execute(sql)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			r := workRow{
				framesOut: reg.Counter("qpc_wire"+obs.MWireFramesSentSuffix).Value() - out0,
				framesIn:  reg.Counter("qpc_wire"+obs.MWireFramesRecvSuffix).Value() - in0,
				cvdt:      res.Stats.CVDT,
				rows:      int64(len(res.Rows)),
				allocs:    after.Mallocs - before.Mallocs,
			}
			res.Trace.Each(func(s obs.Span) { r.instrs += s.Instrs })
			if i > 0 && r.exact() != row.exact() {
				t.Fatalf("%s: exact axes moved between warm runs: %s, then %s", key, row.exact(), r.exact())
			}
			if i == 0 || r.allocs < row.allocs {
				row = r
			}
		}
		rows[key] = row
		got = append(got, fmt.Sprintf("%s: %s allocs %d", key, row.exact(), row.allocs))
	}

	plain, scale := testCluster(t, ClusterConfig{})
	for _, q := range []struct{ label, sql string }{
		{"Q1", sequoia.Q1},
		{"Q2", sequoia.Q2(scale)},
		{"Q3", sequoia.Q3},
		{"Q4", sequoia.Q4(12, 300)},
		{"Q5", sequoia.Q5},
		{"Q6", sequoia.Q6},
	} {
		for _, strat := range []Strategy{StrategyCodeShip, StrategyDataShip, StrategyAuto} {
			measure("plain", plain, q.label, q.sql, strat)
		}
	}
	measure("plain", plain, "selective", selectiveJoin, StrategyDataShip)
	// The DAG-cut ladder's statements the rows above lack: Q4 at its
	// 50 % calibration, the composed-expression queries and wide_where.
	for _, q := range dagCutLadderQueries(t, plain, scale) {
		switch q.label {
		case "Q1", "Q2", "Q3", "Q5", "Q6":
			continue
		case "Q4":
			q.label = "Q4_cal50"
		}
		for _, strat := range []Strategy{StrategyCodeShip, StrategyDataShip, StrategyAuto} {
			measure("plain", plain, q.label, q.sql, strat)
		}
	}
	governed, _ := testCluster(t, ClusterConfig{Exec: Tuning{MemBudgetBytes: spillBudget}})
	measure("spill48k", governed, "Q5", sequoia.Q5, StrategyDataShip)
	measure("spill48k", governed, "Q6", sequoia.Q6, StrategyDataShip)
	part, _, _ := partitionedPair(t, func(src *storage.Table) *PartitionSpec {
		return RangePlacement("Rasters", "time", timeCuts(t, src, 3),
			[][]string{partitionSites(0), partitionSites(1), partitionSites(2)})
	}, ClusterConfig{})
	for _, q := range partitionLadderQueries(partitionScale()) {
		for _, strat := range []Strategy{StrategyCodeShip, StrategyDataShip, StrategyAuto} {
			measure("range3", part, q.label, q.sql, strat)
		}
	}

	path := filepath.Join("testdata", "work_ledger.golden")
	procs := fmt.Sprintf("gomaxprocs %d", runtime.GOMAXPROCS(0))
	if *updateWorkLedger {
		if err := os.WriteFile(path, []byte(procs+"\n"+strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-work-ledger): %v", err)
	}
	header, body, _ := strings.Cut(string(want), "\n")
	checkAllocs := header == procs
	if !checkAllocs {
		t.Logf("allocations pinned at %q, running at %q: checking only the exact axes", header, procs)
	}
	pinned := 0
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		key, rest, _ := strings.Cut(line, ": ")
		exact, allocs, _ := strings.Cut(rest, " allocs ")
		var wantAllocs uint64
		if _, err := fmt.Sscan(allocs, &wantAllocs); err != nil {
			t.Fatalf("golden line %q: %v", line, err)
		}
		row, ok := rows[key]
		if !ok {
			t.Errorf("%s: pinned but not measured", key)
			continue
		}
		pinned++
		if row.exact() != exact {
			t.Errorf("%s:\n got  %s\n want %s", key, row.exact(), exact)
		}
		switch a, w := float64(row.allocs), float64(wantAllocs); {
		case !checkAllocs:
		case a > w*allocSlack:
			t.Errorf("%s: %d allocations, pinned %d (+%.1f%%)", key, row.allocs, wantAllocs, 100*(a/w-1))
		case a < w/allocSlack:
			t.Errorf("%s: %d allocations, pinned %d (%.1f%%): pin the gain with -update-work-ledger", key, row.allocs, wantAllocs, 100*(a/w-1))
		}
	}
	if pinned != len(rows) {
		t.Errorf("%d queries measured, %d pinned: rewrite with -update-work-ledger", len(rows), pinned)
	}
}
