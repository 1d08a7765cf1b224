package mocha

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mocha/internal/obs"
)

var updateOpTrees = flag.Bool("update-op-trees", false, "rewrite testdata/operator_trees.golden")

// opTreeLines renders a result's operator trees: one line per site (the
// QPC as "qpc"), sites in name order, each listing its op:* spans in the
// order the site recorded them with rows in and rows out. Counts only:
// no span's time appears.
func opTreeLines(res *Result) []string {
	bySite := map[string][]string{}
	res.Trace.Each(func(sp obs.Span) {
		if !strings.HasPrefix(sp.Name, obs.SpanOpPrefix) {
			return
		}
		site := sp.Site
		if site == "" {
			site = "qpc"
		}
		bySite[site] = append(bySite[site], fmt.Sprintf("%s %d/%d", sp.Name, sp.RowsIn, sp.Tuples))
	})
	sites := make([]string, 0, len(bySite))
	for s := range bySite {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	out := make([]string, len(sites))
	for i, s := range sites {
		out[i] = "  " + s + ": " + strings.Join(bySite[s], ", ")
	}
	return out
}

// TestOperatorTreesPinned pins how every plan of the DAG-cut ladder and
// of TestPaperShapes' statements lowers, under all three strategies: the
// operators each site runs, in order, and the rows each one reads and
// produces. A change to lowering that keeps results but moves, adds or
// drops an operator, or changes what an operator sees, shows here;
// `-update-op-trees` is for a change that means to.
func TestOperatorTreesPinned(t *testing.T) {
	cl, scale := testCluster(t, ClusterConfig{})
	var b strings.Builder
	run := func(name, label, sql string) {
		for _, strat := range []Strategy{StrategyAuto, StrategyCodeShip, StrategyDataShip} {
			cl.SetStrategy(strat)
			res, err := cl.Execute(sql)
			if err != nil {
				t.Fatalf("%s %s under %v: %v", name, label, strat, err)
			}
			fmt.Fprintf(&b, "%s %s %v\n%s\n", name, label, strat, strings.Join(opTreeLines(res), "\n"))
		}
	}
	for _, q := range dagCutLadderQueries(t, cl, scale) {
		run("dagcut", q.label, q.sql)
	}
	for _, st := range paperStatements(t, cl, scale) {
		if st.cal != nil {
			cl.SetSelectivity("NumVertices", "Graphs", st.cal.VertSelectivity)
			cl.SetSelectivity("TotalLength", "Graphs", st.cal.LenSelectivity)
		}
		run("paper", st.label, st.sql)
	}

	path := filepath.Join("testdata", "operator_trees.golden")
	if *updateOpTrees {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-op-trees): %v", err)
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
	if n := len(strings.Split(string(want), "\n")); len(got) > n {
		t.Errorf("%d lines past the golden's %d, first: %s", len(got)-n, n, got[n])
	}
}
