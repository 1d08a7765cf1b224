package mocha

import (
	"fmt"
	"strings"
	"testing"

	"mocha/internal/sequoia"
	"mocha/internal/storage"
)

// wideWhereQuery has sixteen free single-table nodes (fourteen
// comparisons, a call predicate and its call), more than the exhaustive
// cut search enumerates, so it plans through the greedy guard — the
// path a production query with a long WHERE clause takes.
const wideWhereQuery = `SELECT time, band FROM Rasters
WHERE time >= 0 AND time < 1000 AND time <> 999 AND time + 1 > 0 AND time - 1 < 1000
AND time * 2 >= 0 AND time <= 998
AND band >= 0 AND band < 100 AND band <> 99 AND band + 1 > 0 AND band - 1 < 100
AND band * 2 >= 0 AND band <= 98
AND AvgEnergy(image) < 1000000.0`

// dagCutLadderQueries is the cut differential's workload: the paper's
// Q1–Q5, the three-site Q6 multi-join, composed-expression queries
// whose operator DAGs admit mid-expression cuts (Diff over AvgEnergy,
// a two-call arithmetic predicate), and a WHERE clause too wide to
// enumerate.
func dagCutLadderQueries(t *testing.T, cl *Cluster, scale sequoia.Config) []struct{ label, sql string } {
	t.Helper()
	cals, err := sequoia.CalibrateQ4(cl.stores["site1"], []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	cal := cals[0]
	return []struct{ label, sql string }{
		{"Q1", sequoia.Q1},
		{"Q2", sequoia.Q2(scale)},
		{"Q3", sequoia.Q3},
		{"Q4", sequoia.Q4(cal.MaxVerts, cal.MaxLength)},
		{"Q5", sequoia.Q5},
		{"Q6", sequoia.Q6},
		{"composed_join", `SELECT R1.time, Diff(AvgEnergy(R1.image), AvgEnergy(R2.image))
FROM Rasters1 AS R1, Rasters2 AS R2 WHERE R1.location = R2.location`},
		{"composed_proj", `SELECT time, Diff(AvgEnergy(image), 0.0) FROM Rasters`},
		{"composed_pred", `SELECT name FROM Graphs
WHERE NumVertices(graph) + TotalLength(graph) < 100000`},
		{"wide_where", wideWhereQuery},
	}
}

// TestDifferentialDagCutLadder is the cut search's oracle differential:
// whatever cut the search picks under the automatic strategy, and the
// maximal cut forced code shipping picks, must return results
// byte-identical to forced data shipping, where every table's cut is
// scan-only and the QPC evaluates everything. The cut search moves work
// between sites; it must never change a single byte of output, nor ship
// more than shipping the data would.
func TestDifferentialDagCutLadder(t *testing.T) {
	cl, scale := testCluster(t, ClusterConfig{})
	for _, q := range dagCutLadderQueries(t, cl, scale) {
		t.Run(q.label, func(t *testing.T) {
			cl.SetStrategy(StrategyDataShip)
			want, err := cl.Execute(q.sql)
			if err != nil {
				t.Fatalf("%s data-ship oracle: %v", q.label, err)
			}
			if len(want.Rows) == 0 {
				t.Fatalf("%s returned no rows; the differential would be vacuous", q.label)
			}
			for _, strat := range []Strategy{StrategyAuto, StrategyCodeShip} {
				cl.SetStrategy(strat)
				got, err := cl.Execute(q.sql)
				if err != nil {
					t.Fatalf("%s under %v: %v", q.label, strat, err)
				}
				if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
					t.Errorf("%s under %v: cut diverged from the data-ship oracle (%d vs %d rows)",
						q.label, strat, len(got.Rows), len(want.Rows))
				}
				if strat == StrategyAuto && got.Stats.CVDT > want.Stats.CVDT {
					t.Errorf("%s: chosen cut ships %d bytes, more than data shipping's %d",
						q.label, got.Stats.CVDT, want.Stats.CVDT)
				}
			}
		})
	}

	// The wide query must have taken the guard: it prices one cut per
	// free node, where enumeration would have priced thousands.
	cl.SetStrategy(StrategyAuto)
	out, err := cl.Explain(wideWhereQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(17 cut(s) priced)") || !strings.Contains(out, "    filter ") {
		t.Errorf("wide WHERE did not plan through the greedy guard:\n%s", out)
	}
}

// TestDifferentialDagCutPartitioned runs the cut differential over 2-
// and 3-way range-partitioned Rasters: the partitioned cluster must
// match the single-site oracle on scatter scans, pruned scans, pushed
// aggregates and composed-operator queries — cut search ×
// partition-aware planning must compose.
func TestDifferentialDagCutPartitioned(t *testing.T) {
	queries := []struct{ label, sql string }{
		{"scatter_scan", `SELECT time, band FROM Rasters`},
		{"pruned_range", `SELECT time, band FROM Rasters WHERE time <= 1`},
		{"shard_agg", `SELECT band, Count(time) FROM Rasters GROUP BY band`},
		{"composed_call", `SELECT time, Diff(AvgEnergy(image), 0.0) FROM Rasters`},
		{"call_pred", `SELECT time FROM Rasters WHERE AvgEnergy(image) < 128.0`},
	}
	for _, ways := range []int{2, 3} {
		t.Run(fmt.Sprintf("range%d", ways), func(t *testing.T) {
			part, oracle, _ := partitionedPair(t, func(src *storage.Table) *PartitionSpec {
				sets := make([][]string, ways)
				for i := range sets {
					sets[i] = partitionSites(i)
				}
				return RangePlacement("Rasters", "time", timeCuts(t, src, ways), sets)
			}, ClusterConfig{})
			for _, q := range queries {
				for _, strat := range []Strategy{StrategyCodeShip, StrategyDataShip} {
					part.SetStrategy(strat)
					got, err := part.Execute(q.sql)
					if err != nil {
						t.Fatalf("%s partitioned under %v: %v", q.label, strat, err)
					}
					oracle.SetStrategy(strat)
					want, err := oracle.Execute(q.sql)
					if err != nil {
						t.Fatalf("%s oracle under %v: %v", q.label, strat, err)
					}
					if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
						t.Errorf("%s under %v: partitioned cut diverged from the single-site oracle (%d vs %d rows)",
							q.label, strat, len(got.Rows), len(want.Rows))
					}
				}
			}
		})
	}
}

// TestDifferentialDagCutComposedShipping pins the tentpole's headline
// end-to-end: Q5's Diff(AvgEnergy, AvgEnergy) splits mid-expression
// under code shipping — each fragment's EXPLAIN shows a below-join cut
// pushing AvgEnergy to its DAP — and the shipped plan's results are
// byte-identical to forced data shipping.
func TestDifferentialDagCutComposedShipping(t *testing.T) {
	cl, _ := testCluster(t, ClusterConfig{})

	cl.SetStrategy(StrategyCodeShip)
	out, err := cl.Explain(sequoia.Q5)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out, "cut: below=[call AvgEnergy]"); n < 1 {
		t.Errorf("no below-join cut pushing AvgEnergy in the shipped plan:\n%s", out)
	}
	code, err := cl.Execute(sequoia.Q5)
	if err != nil {
		t.Fatal(err)
	}

	cl.SetStrategy(StrategyDataShip)
	data, err := cl.Execute(sequoia.Q5)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(code.Rows) != fmt.Sprint(data.Rows) {
		t.Errorf("mid-expression code shipping changed Q5's results (%d vs %d rows)",
			len(code.Rows), len(data.Rows))
	}
	// The split pays: shipping the inner AvgEnergy calls moves 8-byte
	// doubles instead of raster images, so shipped CVDT must be below
	// data shipping's.
	if code.Stats.CVDT >= data.Stats.CVDT {
		t.Errorf("shipped composed plan CVDT %d not below data shipping's %d",
			code.Stats.CVDT, data.Stats.CVDT)
	}
}
