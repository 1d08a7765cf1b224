package mocha

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mocha/internal/storage"
)

var updateLedger = flag.Bool("update-ledger", false, "rewrite testdata/ledger_volumes.golden")

// TestLedgerVolumesPinned pins what a query's stats say it read, moved
// and shipped — CVDA, CVDT, classes and code bytes shipped, cache hits —
// and the digest of its result, for Q1–Q6 and the composed-operator
// queries under all three strategies, the same ladder under a 48 KiB
// memory budget (the spill path), and the partition ladder over a 3-way
// range-partitioned Rasters. The golden file was written by the commit
// before the stats became a view of the trace, so it is the independent
// record of these figures: a change to how they are derived must
// reproduce every line, and `-update-ledger` is for a change that means
// to move one. Each cluster is fresh and the statement order fixed, so
// the code caches warm the same way on every run.
func TestLedgerVolumesPinned(t *testing.T) {
	var b strings.Builder
	ladder := func(name string, cl *Cluster, queries []struct{ label, sql string }, strategies ...Strategy) {
		for _, q := range queries {
			for _, strat := range strategies {
				cl.SetStrategy(strat)
				res, err := cl.Execute(q.sql)
				if err != nil {
					t.Fatalf("%s %s under %v: %v", name, q.label, strat, err)
				}
				s := res.Stats
				fmt.Fprintf(&b, "%s %s %v: cvda %d cvdt %d classes %d code-bytes %d cache-hits %d result %d/%d digest %s\n",
					name, q.label, strat, s.CVDA, s.CVDT, s.CodeClassesShipped, s.CodeBytesShipped,
					s.CacheHits, s.ResultTuples, s.ResultBytes, s.ResultDigest)
			}
		}
	}
	all := []Strategy{StrategyCodeShip, StrategyDataShip, StrategyAuto}

	plain, scale := testCluster(t, ClusterConfig{})
	ladder("dagcut", plain, dagCutLadderQueries(t, plain, scale), all...)

	governed, _ := testCluster(t, ClusterConfig{Exec: Tuning{MemBudgetBytes: spillBudget}})
	ladder("spill48k", governed, spillLadderQueries(scale), all...)

	part, _, _ := partitionedPair(t, func(src *storage.Table) *PartitionSpec {
		return RangePlacement("Rasters", "time", timeCuts(t, src, 3),
			[][]string{partitionSites(0), partitionSites(1), partitionSites(2)})
	}, ClusterConfig{})
	ladder("range3", part, partitionLadderQueries(partitionScale()), all...)

	path := filepath.Join("testdata", "ledger_volumes.golden")
	if *updateLedger {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-ledger): %v", err)
	}
	got := strings.Split(b.String(), "\n")
	for i, line := range strings.Split(string(want), "\n") {
		if i >= len(got) || got[i] != line {
			g := "<nothing>"
			if i < len(got) {
				g = got[i]
			}
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, line)
		}
	}
}
