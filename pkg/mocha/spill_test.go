package mocha

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mocha/internal/obs"
	"mocha/internal/sequoia"
)

// spillBudget is small enough that the Q5/Q6 data-shipped join builds
// (raster tuples of ~4 KiB each, hundreds of kilobytes in total) and
// the wide aggregates must spill, yet comfortably above any single
// record, so no query can fail with OverBudgetError.
const spillBudget = 48 << 10

// aggOverJoinSQL aggregates over a joined stream: a spilling join
// feeding a spilling aggregate.
const aggOverJoinSQL = `SELECT R1.band AS b, Count(R2.time) AS n
FROM Rasters1 R1, Rasters2 R2 WHERE R1.location = R2.location
GROUP BY R1.band ORDER BY b`

// spillLadderQueries is the Sequoia ladder the spill differential runs:
// every benchmark query plus the 3-fragment multi-join and an aggregate
// over a joined stream.
func spillLadderQueries(scale sequoia.Config) []struct{ label, sql string } {
	return []struct{ label, sql string }{
		{"Q1", sequoia.Q1},
		{"Q2", sequoia.Q2(scale)},
		{"Q3", sequoia.Q3},
		{"Q4", sequoia.Q4(12, 300)},
		{"Q5", sequoia.Q5},
		{"Q6", sequoia.Q6},
		{"agg_over_join", aggOverJoinSQL},
	}
}

// TestDifferentialSpillLadder is the spill-path differential: the whole
// Sequoia ladder under a budget tiny enough to force joins and
// aggregates through the spill path must produce results identical —
// same rows, same order — to an ungoverned in-memory cluster, under
// both placement strategies.
func TestDifferentialSpillLadder(t *testing.T) {
	baseline, scale := testCluster(t, ClusterConfig{})
	governed, _ := testCluster(t, ClusterConfig{Exec: Tuning{MemBudgetBytes: spillBudget}})

	for _, q := range spillLadderQueries(scale) {
		t.Run(q.label, func(t *testing.T) {
			for _, strat := range []Strategy{StrategyCodeShip, StrategyDataShip} {
				baseline.SetStrategy(strat)
				want, err := baseline.Execute(q.sql)
				if err != nil {
					t.Fatalf("%s baseline under %v: %v", q.label, strat, err)
				}
				governed.SetStrategy(strat)
				got, err := governed.Execute(q.sql)
				if err != nil {
					t.Fatalf("%s governed under %v: %v", q.label, strat, err)
				}
				if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
					t.Errorf("%s under %v: spill path diverged from in-memory (%d vs %d rows)",
						q.label, strat, len(got.Rows), len(want.Rows))
				}
			}
		})
	}

	// The ladder must actually have exercised the spill path, and the
	// governed pools must have stayed pinned under their budgets.
	if n := governed.Metrics().Counter(obs.MExecSpillEvents).Value(); n == 0 {
		t.Errorf("no spill events under a %d B budget", int64(spillBudget))
	}
	if gov := governed.QPCGovernor(); gov == nil {
		t.Fatal("governed cluster has no QPC governor")
	} else if gov.HighWater() > gov.Budget() {
		t.Errorf("QPC high water %d exceeds budget %d", gov.HighWater(), gov.Budget())
	}
	for _, site := range []string{"site1", "site2", "site3"} {
		gov, err := governed.DAPGovernor(site)
		if err != nil {
			t.Fatal(err)
		}
		if gov.HighWater() > gov.Budget() {
			t.Errorf("%s high water %d exceeds budget %d", site, gov.HighWater(), gov.Budget())
		}
	}
	if n := baseline.Metrics().Counter(obs.MExecSpillEvents).Value(); n != 0 {
		t.Errorf("ungoverned baseline spilled %d times", n)
	}
}

// TestDifferentialSpillRecovery combines the spill path with mid-stream
// recovery: the governed join query keeps its exact result when site2's
// link dies halfway through the stream and the DAP runs the fragment
// again, sending only what the QPC does not hold yet.
func TestDifferentialSpillRecovery(t *testing.T) {
	// 16 KiB: tighter than the ladder budget because this test runs Q5
	// alone — the budget must sit below Q5's own data-shipped build
	// (a few raster tuples of ~4 KiB) to force the spill.
	cl, _ := testCluster(t, ClusterConfig{Exec: Tuning{MemBudgetBytes: 16 << 10}})
	cl.SetStrategy(StrategyDataShip) // ship rasters: big stream, QPC-side join
	want, err := cl.Execute(sequoia.Q5)
	if err != nil {
		t.Fatal(err)
	}

	// Fail site2's next connection halfway through the volume the
	// baseline moved; the stream must resume and the spilled join must
	// still reproduce the exact baseline rows.
	cl.SetFault("site2", &FaultPlan{DropFirstConnAfterBytes: want.Stats.CVDT / 2})
	got, err := cl.Execute(sequoia.Q5)
	cl.SetFault("site2", nil)
	if err != nil {
		t.Fatalf("recovery run: %v", err)
	}
	if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
		t.Errorf("recovered spill run diverged (%d vs %d rows)", len(got.Rows), len(want.Rows))
	}
	if got.Stats.CVDT != want.Stats.CVDT || got.Stats.CVDA != want.Stats.CVDA || got.Trace.NetBytes() != got.Stats.CVDT {
		t.Errorf("recovered run: CVDT %d CVDA %d span net bytes %d, clean run %d / %d",
			got.Stats.CVDT, got.Stats.CVDA, got.Trace.NetBytes(), want.Stats.CVDT, want.Stats.CVDA)
	}
	if n := cl.Metrics().Counter(obs.MDapStreamResumes).Value(); n == 0 {
		t.Error("fault injected but no stream resume happened")
	}
	if n := cl.Metrics().Counter(obs.MExecSpillEvents).Value(); n == 0 {
		t.Error("no spill events under the tiny budget")
	}
}

// TestDifferentialSpillConcurrentStress floods a governed, admission-
// controlled cluster from 64 concurrent workers. Every result must match
// its sequential baseline, the governor's high-water mark must respect
// the budget (the bounded-RSS pin), and the pool must drain to zero.
func TestDifferentialSpillConcurrentStress(t *testing.T) {
	const workers = 64

	t.Run("embedded", func(t *testing.T) {
		cl, _ := testCluster(t, ClusterConfig{
			Exec:          Tuning{MemBudgetBytes: 256 << 10},
			MaxConcurrent: 8,
			QueueDepth:    128,
		})
		queries := []string{
			"SELECT time, band FROM Rasters WHERE band < 2",
			"SELECT landuse, TotalArea(polygon) AS area FROM Polygons GROUP BY landuse",
			sequoia.Q5,
			aggOverJoinSQL,
		}
		want := make([]string, len(queries))
		for i, sql := range queries {
			res, err := cl.Execute(sql)
			if err != nil {
				t.Fatalf("baseline %d: %v", i, err)
			}
			want[i] = fmt.Sprint(res.Rows)
		}
		runConcurrently(t, workers, func(w int) error {
			qi := w % len(queries)
			res, err := cl.ExecuteContext(context.Background(), queries[qi])
			if err != nil {
				return fmt.Errorf("query %d: %w", qi, err)
			}
			if fmt.Sprint(res.Rows) != want[qi] {
				return fmt.Errorf("query %d: result diverged", qi)
			}
			return nil
		})
		checkGovernorsDrained(t, cl)
	})

	// Wire clients of two tenants, two queries each, data shipping under
	// a budget below one Q5 build, while every 7th connection to site2
	// dies at its first I/O: admission, spilling, retries and stream
	// recovery all stay busy for the whole run. The oracle is an
	// ungoverned, unfaulted cluster.
	t.Run("wire_tenants_faulted", func(t *testing.T) {
		queries := []string{
			"SELECT time, location FROM Rasters",
			sequoia.Q1,
			"SELECT name, TotalLength(graph) FROM Graphs",
			`SELECT R1.time AS t1, R2.time AS t2
FROM Rasters1 AS R1, Rasters2 AS R2
WHERE R1.location = R2.location ORDER BY t1, t2 LIMIT 64`,
			aggOverJoinSQL,
			sequoia.Q5,
		}
		canon := func(rows []Tuple) string {
			keys := rowsKey(rows)
			sort.Strings(keys)
			return strings.Join(keys, "\n")
		}
		oracle, _ := testCluster(t, ClusterConfig{})
		oracle.SetStrategy(StrategyDataShip)
		want := make([]string, len(queries))
		for i, sql := range queries {
			res, err := oracle.Execute(sql)
			if err != nil {
				t.Fatalf("oracle %d: %v", i, err)
			}
			want[i] = canon(res.Rows)
		}

		const budget = 16 << 10
		cl, _ := testCluster(t, ClusterConfig{
			Exec:          Tuning{MemBudgetBytes: budget},
			MaxConcurrent: 8,
			QueueDepth:    4096,
		})
		cl.SetStrategy(StrategyDataShip)
		cl.SetFault("site2", &FaultPlan{DropEveryNthConn: 7})
		tenants := []string{"tenant-a", "tenant-b"}
		runConcurrently(t, workers, func(w int) error {
			c, err := cl.ConnectTenant(tenants[w%len(tenants)])
			if err != nil {
				return fmt.Errorf("connect: %w", err)
			}
			defer c.Close()
			for j := 0; j < 2; j++ {
				qi := (w + j) % len(queries)
				rows, err := c.Query(queries[qi])
				if err != nil {
					return fmt.Errorf("query %d: %w", qi, err)
				}
				tups, err := rows.All()
				if err != nil {
					return fmt.Errorf("query %d drain: %w", qi, err)
				}
				if canon(tups) != want[qi] {
					return fmt.Errorf("query %d: result diverged (%d rows)", qi, len(tups))
				}
			}
			return nil
		})

		snap := cl.Metrics().Snapshot()
		if snap[obs.MExecSpillEvents] == 0 {
			t.Errorf("no spill events under a %d B budget", budget)
		}
		if snap[obs.MQpcRetries] == 0 {
			t.Error("recurring connection drops caused no retry")
		}
		if n := snap[obs.MQpcQueriesFailed]; n != 0 {
			t.Errorf("%d queries failed", n)
		}
		if hw := cl.QPCGovernor().HighWater(); hw == 0 {
			t.Error("QPC governor granted nothing; the budget pin would be vacuous")
		}
		checkGovernorsDrained(t, cl)
	})
}

// runConcurrently runs fn(0..n-1) on n goroutines, waits for all of
// them and reports every error.
func runConcurrently(t *testing.T, n int, fn func(w int) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := fn(w); err != nil {
				errs <- fmt.Errorf("worker %d: %w", w, err)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// checkGovernorsDrained asserts that the QPC's and every DAP's governor
// stayed within its budget and holds no grant once the queries are done.
func checkGovernorsDrained(t *testing.T, cl *Cluster) {
	t.Helper()
	check := func(who string, gov *Governor) {
		if gov.HighWater() > gov.Budget() {
			t.Errorf("%s high water %d exceeds budget %d", who, gov.HighWater(), gov.Budget())
		}
		if g := gov.Granted(); g != 0 {
			t.Errorf("%s granted = %d after all queries finished", who, g)
		}
	}
	check("QPC", cl.QPCGovernor())
	for _, site := range []string{"site1", "site2", "site3"} {
		dg, err := cl.DAPGovernor(site)
		if err != nil {
			t.Fatal(err)
		}
		check(site, dg)
	}
}

// TestDifferentialSpillTenantFairness saturates a one-slot QPC from two
// wire-protocol tenants with asymmetric demand (six clients vs two).
// The admission queue's round-robin must keep the light tenant at a
// fair share: both tenants complete at least 40% of the work.
func TestDifferentialSpillTenantFairness(t *testing.T) {
	cl, _ := testCluster(t, ClusterConfig{
		MaxConcurrent: 1,
		QueueDepth:    64,
	})
	const sql = "SELECT name FROM Graphs LIMIT 3"

	var aDone, bDone atomic.Int64
	deadline := time.Now().Add(1500 * time.Millisecond)
	var wg sync.WaitGroup
	worker := func(tenant string, counter *atomic.Int64) {
		defer wg.Done()
		c, err := cl.ConnectTenant(tenant)
		if err != nil {
			t.Errorf("%s connect: %v", tenant, err)
			return
		}
		defer c.Close()
		for time.Now().Before(deadline) {
			rows, err := c.Query(sql)
			if err != nil {
				t.Errorf("%s query: %v", tenant, err)
				return
			}
			if _, err := rows.All(); err != nil {
				t.Errorf("%s drain: %v", tenant, err)
				return
			}
			counter.Add(1)
		}
	}
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go worker("tenant-a", &aDone)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go worker("tenant-b", &bDone)
	}
	wg.Wait()

	a, b := aDone.Load(), bDone.Load()
	total := a + b
	if total < 20 {
		t.Fatalf("only %d queries completed; window too short to judge fairness", total)
	}
	for _, tc := range []struct {
		tenant string
		n      int64
	}{{"tenant-a", a}, {"tenant-b", b}} {
		if share := float64(tc.n) / float64(total); share < 0.40 {
			t.Errorf("%s completed %d/%d = %.0f%%; round-robin should hold each tenant at >= 40%%",
				tc.tenant, tc.n, total, share*100)
		}
	}
}
