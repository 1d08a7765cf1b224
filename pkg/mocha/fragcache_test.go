package mocha

import (
	"fmt"
	"testing"

	"mocha/internal/obs"
	"mocha/internal/storage"
)

// fragmentCacheDelta runs sql once and returns how many of its STARTs
// found their fragment in the serving DAP's cache and how many did not.
func fragmentCacheDelta(t *testing.T, cl *Cluster, label, sql string) (hits, misses int64, res *Result) {
	t.Helper()
	m := cl.Metrics()
	h0, m0 := m.Counter(obs.MDapFragmentCacheHits).Value(), m.Counter(obs.MDapFragmentCacheMisses).Value()
	res, err := cl.Execute(sql)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return m.Counter(obs.MDapFragmentCacheHits).Value() - h0, m.Counter(obs.MDapFragmentCacheMisses).Value() - m0, res
}

// TestFragmentCacheLadders: every START of a ladder query's first run
// decodes its fragment, and every START of the same query run again
// finds it cached — on the dag-cut ladder, the spill ladder under a
// 48 KiB budget and the 3-way range-partitioned ladder, under every
// strategy. A query whose fragments an earlier query already started
// may hit on its first run. On the partitioned ladder the QPC spreads a
// shard over its replicas (least-picked first), and a fragment names the
// site it runs at, so a run may place a shard on a sibling that has not
// run it yet: there a re-run may miss once per START, and within three
// re-runs every START hits.
func TestFragmentCacheLadders(t *testing.T) {
	all := []Strategy{StrategyCodeShip, StrategyDataShip, StrategyAuto}
	ladder := func(name string, cl *Cluster, queries []struct{ label, sql string }, replicated bool) {
		for _, q := range queries {
			for _, strat := range all {
				cl.SetStrategy(strat)
				label := fmt.Sprintf("%s %s %v", name, q.label, strat)
				hits, misses, first := fragmentCacheDelta(t, cl, label, q.sql)
				starts := hits + misses
				if starts == 0 {
					t.Fatalf("%s: no START counted", label)
				}
				var missedAgain int64
				for run := 2; ; run++ {
					hits, misses, again := fragmentCacheDelta(t, cl, fmt.Sprintf("%s run %d", label, run), q.sql)
					if fmt.Sprint(again.Rows) != fmt.Sprint(first.Rows) {
						t.Errorf("%s run %d: rows differ from the first run's", label, run)
					}
					if hits+misses != starts {
						t.Fatalf("%s run %d: %d STARTs, the first run had %d", label, run, hits+misses, starts)
					}
					if missedAgain += misses; misses == 0 {
						break
					}
					if !replicated || run == 4 || missedAgain > starts {
						t.Errorf("%s run %d: %d of %d STARTs missed (%d since the first run)", label, run, misses, starts, missedAgain)
						break
					}
				}
			}
		}
	}
	plain, scale := testCluster(t, ClusterConfig{})
	ladder("dagcut", plain, dagCutLadderQueries(t, plain, scale), false)

	governed, _ := testCluster(t, ClusterConfig{Exec: Tuning{MemBudgetBytes: spillBudget}})
	ladder("spill48k", governed, spillLadderQueries(scale), false)

	part, _, _ := partitionedPair(t, func(src *storage.Table) *PartitionSpec {
		return RangePlacement("Rasters", "time", timeCuts(t, src, 3),
			[][]string{partitionSites(0), partitionSites(1), partitionSites(2)})
	}, ClusterConfig{})
	ladder("range3", part, partitionLadderQueries(partitionScale()), true)
}

// TestFragmentCacheFailoverMisses: a shard re-placed on its sibling
// replica names that site in its fragment, so the sibling's START is a
// document the cache has not seen — it misses, decodes it, and the
// query returns the oracle's rows with its span volumes summing to CVDT.
func TestFragmentCacheFailoverMisses(t *testing.T) {
	part, oracle, _ := partitionedPair(t, func(src *storage.Table) *PartitionSpec {
		return RangePlacement("Rasters", "time", timeCuts(t, src, 3),
			[][]string{partitionSites(0), partitionSites(1), partitionSites(2)})
	}, ClusterConfig{})
	const sql = "SELECT time, band, image FROM Rasters WHERE AvgEnergy(image) < 999"
	want, err := oracle.Execute(sql)
	if err != nil {
		t.Fatal(err)
	}
	part.SetStrategy(StrategyCodeShip)
	_, _, warm := fragmentCacheDelta(t, part, "warm-up", sql)
	if fmt.Sprint(warm.Rows) != fmt.Sprint(want.Rows) {
		t.Fatal("the partitioned run diverges from the oracle before any fault")
	}
	if _, misses, _ := fragmentCacheDelta(t, part, "warm", sql); misses != 0 {
		t.Fatalf("a warm run missed %d fragments", misses)
	}

	// Ties in replica choice go to the first-listed site, so every run so
	// far placed shard 0 on site1 and none on its sibling site2. Now site1
	// dies inside the result stream and refuses every redial, so the shard
	// fails over to site2, which has never run it.
	failovers := part.Metrics().Counter(obs.MQpcReplicaFailovers).Value()
	part.SetFault("site1", &FaultPlan{DropAfterBytes: warm.Stats.CVDT / 10})
	defer part.SetFault("site1", nil)
	_, misses, res := fragmentCacheDelta(t, part, "failover", sql)
	if part.Metrics().Counter(obs.MQpcReplicaFailovers).Value() == failovers {
		t.Fatal("no shard failed over")
	}
	if misses == 0 {
		t.Error("the re-placed shard's START hit the cache; its site attribute should make it a new document")
	}
	if fmt.Sprint(res.Rows) != fmt.Sprint(want.Rows) {
		t.Errorf("failover run returned %d rows that differ from the oracle's %d", len(res.Rows), len(want.Rows))
	}
	if res.Trace.NetBytes() != res.Stats.CVDT {
		t.Errorf("span NetBytes %d != CVDT %d", res.Trace.NetBytes(), res.Stats.CVDT)
	}
}

// TestSpanInstrsMatchVMCounter: under code shipping, a fragment's MVM
// instruction count rides its report (the DAP's flush span), so a
// query's trace sums to exactly what the DAPs added to vm_instructions
// while it ran — for every TestPaperShapes statement.
func TestSpanInstrsMatchVMCounter(t *testing.T) {
	cl, scale := testCluster(t, ClusterConfig{})
	cl.SetStrategy(StrategyCodeShip)
	counter := cl.Metrics().Counter(obs.MVMInstructions)
	var shipped int
	for _, st := range paperStatements(t, cl, scale) {
		if st.cal != nil {
			cl.SetSelectivity("NumVertices", "Graphs", st.cal.VertSelectivity)
			cl.SetSelectivity("TotalLength", "Graphs", st.cal.LenSelectivity)
		}
		before := counter.Value()
		res, err := cl.Execute(st.sql)
		if err != nil {
			t.Fatalf("%s: %v", st.label, err)
		}
		var sum int64
		for _, sp := range res.Trace.Spans() {
			sum += sp.Instrs
		}
		if delta := counter.Value() - before; sum != delta {
			t.Errorf("%s: spans carry %d instructions, vm_instructions grew by %d", st.label, sum, delta)
		}
		if sum > 0 {
			shipped++
		}
	}
	if shipped == 0 {
		t.Error("no statement ran shipped code; the check is vacuous")
	}
}
