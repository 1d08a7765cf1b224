package mocha

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"mocha/internal/obs"
	"mocha/internal/sequoia"
)

// qpcSpans indexes a result's QPC-side operator spans by name.
func qpcSpans(res *Result) map[string]obs.Span {
	out := map[string]obs.Span{}
	res.Trace.Each(func(sp obs.Span) {
		if sp.Site == "" && strings.HasPrefix(sp.Name, "op:") {
			out[sp.Name] = sp
		}
	})
	return out
}

// TestStageDataShippedJoinsSpillNothing: a data-shipped Q5 and Q6 run
// each table's AvgEnergy in its stage, below the joins, so the joins
// hold (location, 8-byte result) rows and a 48 KiB budget spills
// nothing. Each stage's projection reads exactly its fragment's rows,
// and the result is the code-shipped one.
func TestStageDataShippedJoinsSpillNothing(t *testing.T) {
	governed, _ := testCluster(t, ClusterConfig{Exec: Tuning{MemBudgetBytes: spillBudget}})
	oracle, _ := testCluster(t, ClusterConfig{Strategy: StrategyCodeShip})
	governed.SetStrategy(StrategyDataShip)
	for _, q := range []struct {
		label string
		sql   string
		frags int
	}{{"Q5", sequoia.Q5, 2}, {"Q6", sequoia.Q6, 3}} {
		spills := governed.Metrics().Counter(obs.MExecSpillEvents).Value()
		res, err := governed.Execute(q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.label, err)
		}
		if n := governed.Metrics().Counter(obs.MExecSpillEvents).Value() - spills; n != 0 {
			t.Errorf("%s spilled %d times under a %d B budget", q.label, n, int64(spillBudget))
		}
		want, err := oracle.Execute(q.sql)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.Rows) != fmt.Sprint(want.Rows) {
			t.Errorf("%s: data-shipped rows diverged from code shipping", q.label)
		}
		spans := qpcSpans(res)
		for i := 0; i < q.frags; i++ {
			remote, project := spans[fmt.Sprintf("op:remote[%d]", i)], spans[fmt.Sprintf("op:project[%d]", i)]
			if project.Name == "" {
				t.Errorf("%s: fragment %d has no stage projection", q.label, i)
				continue
			}
			if project.RowsIn != remote.Tuples || project.RowsIn != 9 {
				t.Errorf("%s: stage %d read %d rows, fragment shipped %d (want 9)", q.label, i, project.RowsIn, remote.Tuples)
			}
		}
	}
}

// sorted sorts row keys in place, for comparing row multisets.
func sorted(keys []string) []string {
	sort.Strings(keys)
	return keys
}

// TestStageFiltersBeforeJoin: a data-shipped single-table predicate on a
// call runs in its table's stage, so the join reads only the rows that
// pass it, and the rows are those code shipping returns.
func TestStageFiltersBeforeJoin(t *testing.T) {
	const join = `SELECT R1.time, R2.time FROM Rasters1 R1, Rasters2 R2 WHERE R1.location = R2.location`
	const filtered = join + ` AND AvgEnergy(R1.image) > 56.0`
	cl, _ := testCluster(t, ClusterConfig{})
	cl.SetStrategy(StrategyCodeShip)
	want, err := cl.Execute(filtered)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetStrategy(StrategyDataShip)
	plain, err := cl.Execute(join)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Execute(filtered)
	if err != nil {
		t.Fatal(err)
	}
	// The strategies join in different orders, so compare row multisets.
	if g, w := rowsKey(got.Rows), rowsKey(want.Rows); fmt.Sprint(sorted(g)) != fmt.Sprint(sorted(w)) {
		t.Errorf("data-shipped rows diverged from code shipping (%d vs %d)", len(g), len(w))
	}
	spans := qpcSpans(got)
	var filter obs.Span
	for name, sp := range spans {
		if strings.HasPrefix(name, "op:filter[") {
			filter = sp
		}
	}
	if filter.Name == "" || filter.RowsIn != 9 || filter.Tuples >= filter.RowsIn {
		t.Fatalf("no stage filter cutting 9 rows before the join: %+v", filter)
	}
	if _, ok := spans[obs.OpFilter]; ok {
		t.Error("the predicate still runs above the join")
	}
	if in, was := spans["op:hashjoin[0]"].RowsIn, qpcSpans(plain)["op:hashjoin[0]"].RowsIn; in != was-(filter.RowsIn-filter.Tuples) {
		t.Errorf("hash join read %d rows, %d without the predicate and %d filtered out", in, was, filter.RowsIn-filter.Tuples)
	}
}

// selectiveJoin keeps one Rasters2 row, so the join drops most of
// Rasters1: each Rasters1 row is estimated to meet fewer than one.
const selectiveJoin = `SELECT R1.time, AvgEnergy(R1.image)
FROM Rasters1 R1, Rasters2 R2 WHERE R1.location = R2.location AND R2.time = 0`

// TestStageKeepsCallsAboveJoin: a data-shipped join keeps a call above
// the joins when it widens its input (IncrRes), or when the joins are
// estimated to drop its table's rows, where it runs once per joined row
// rather than once per shipped row. A narrowing call on a table the
// joins keep (AvgEnergy(R2.image)) and the other table's predicate still
// run in the stages, and the rows are code shipping's.
func TestStageKeepsCallsAboveJoin(t *testing.T) {
	cl, _ := testCluster(t, ClusterConfig{})
	for _, c := range []struct {
		name, sql string
		// staged and above must appear in the stages and the top
		// projection; notStaged must not appear in any stage.
		staged, notStaged, above string
	}{
		{"widening", `SELECT R1.time, IncrRes(R1.image, 2), AvgEnergy(R2.image)
FROM Rasters1 R1, Rasters2 R2 WHERE R1.location = R2.location`, "AvgEnergy(", "IncrRes(", "= IncrRes("},
		{"selective", selectiveJoin, "qpc filter ($0 = 0)", "AvgEnergy(", "= AvgEnergy("},
	} {
		t.Run(c.name, func(t *testing.T) {
			cl.SetStrategy(StrategyDataShip)
			plan, err := cl.Explain(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			var stage, above []string
			for _, line := range strings.Split(plan, "\n") {
				switch {
				case strings.HasPrefix(line, "    qpc "):
					stage = append(stage, line)
				case strings.HasPrefix(line, "  qpc project "):
					above = append(above, line)
				}
			}
			if s := strings.Join(stage, "\n"); !strings.Contains(s, c.staged) || strings.Contains(s, c.notStaged) {
				t.Errorf("stages should hold %s and no %s:\n%s", c.staged, c.notStaged, plan)
			}
			if !strings.Contains(strings.Join(above, "\n"), c.above) {
				t.Errorf("%s left the top of the plan:\n%s", c.above, plan)
			}
			got, err := cl.Execute(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			cl.SetStrategy(StrategyCodeShip)
			want, err := cl.Execute(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := rowsKey(got.Rows), rowsKey(want.Rows); fmt.Sprint(sorted(g)) != fmt.Sprint(sorted(w)) {
				t.Errorf("data-shipped rows diverged from code shipping (%d vs %d)", len(g), len(w))
			}
		})
	}
}
