package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mocha/internal/catalog"
)

// Regenerate with
//
//	go test ./internal/core -run TestDecisionsGolden -update
var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// decisionQueries is every query shape the differential ladders plan:
// the paper's Q1–Q5, the three-site Q6, the composed-expression and
// two-call queries of the DAG-cut ladder, the aggregate over a join,
// and the queries aimed at the partitioned table.
var decisionQueries = []struct{ label, sql string }{
	{"Q1", `SELECT landuse, TotalArea(polygon), TotalPerimeter(polygon)
FROM Polygons GROUP BY landuse`},
	{"Q2", `SELECT time, location, Clip(image, MakeRect(0.0, 0.0, 64.0, 12.0))
FROM Rasters`},
	{"Q3", `SELECT time, location, IncrRes(image, 2) FROM Rasters`},
	{"Q4", `SELECT name, TotalLength(graph)
FROM Graphs
WHERE NumVertices(graph) < 12 AND TotalLength(graph) < 300`},
	{"Q5", `SELECT R1.time, R1.location, Diff(AvgEnergy(R1.image), AvgEnergy(R2.image))
FROM Rasters1 AS R1, Rasters2 AS R2
WHERE R1.location = R2.location`},
	{"Q6", `SELECT R1.time, R1.location, Diff(Diff(AvgEnergy(R1.image), AvgEnergy(R2.image)), AvgEnergy(R3.image))
FROM Rasters1 AS R1, Rasters2 AS R2, Rasters3 AS R3
WHERE R1.location = R2.location AND R2.location = R3.location`},
	{"composed_join", `SELECT R1.time, Diff(AvgEnergy(R1.image), AvgEnergy(R2.image))
FROM Rasters1 AS R1, Rasters2 AS R2 WHERE R1.location = R2.location`},
	{"composed_proj", `SELECT time, Diff(AvgEnergy(image), 0.0) FROM Rasters`},
	{"composed_pred", `SELECT name FROM Graphs
WHERE NumVertices(graph) + TotalLength(graph) < 100000`},
	{"agg_over_join", `SELECT R1.band AS b, Count(R2.time) AS n
FROM Rasters1 R1, Rasters2 R2 WHERE R1.location = R2.location
GROUP BY R1.band ORDER BY b`},
	{"part_scan", `SELECT time, band FROM Rasters`},
	{"part_pruned_range", `SELECT time, band FROM Rasters WHERE time <= 1`},
	{"part_pruned_point", `SELECT time, band FROM Rasters WHERE time = 2`},
	{"part_topk", `SELECT time, band FROM Rasters ORDER BY time DESC, band LIMIT 7`},
	{"part_agg", `SELECT time, AvgEnergy(image) FROM Rasters WHERE AvgEnergy(image) < 200`},
	{"part_group", `SELECT time AS w, Count(band) AS n FROM Rasters GROUP BY time ORDER BY w`},
	{"shard_agg", `SELECT band, Count(time) FROM Rasters GROUP BY band`},
}

// decisionCatalogs returns the two layouts the ladders run over: the
// single-site Sequoia catalog (plus Q6's third raster site) and the
// same catalog with Rasters range-partitioned three ways on time.
func decisionCatalogs(t *testing.T) []struct {
	label string
	cat   *catalog.Catalog
} {
	t.Helper()
	build := func(pl *catalog.Placement) *catalog.Catalog {
		cat := sequoiaCatalog(t)
		cat.AddSite(&catalog.Site{Name: "site3", Addr: "dap3"})
		r1, _ := cat.Table("Rasters1")
		if err := cat.AddTable(&catalog.TableDef{
			Name: "Rasters3", URI: "mocha://tables/Rasters3", Site: "site3",
			Schema: r1.Schema, Stats: r1.Stats,
		}); err != nil {
			t.Fatal(err)
		}
		if pl != nil {
			rasters, _ := cat.Table("Rasters")
			rasters.Placement = pl
		}
		return cat
	}
	return []struct {
		label string
		cat   *catalog.Catalog
	}{
		{"single-site", build(nil)},
		{"range3", build(&catalog.Placement{
			Key: "time", Kind: catalog.PlaceRange,
			Parts: []catalog.Partition{
				{Table: "Rasters__p0", Replicas: []string{"site1"}, HasHi: true, Hi: 2},
				{Table: "Rasters__p1", Replicas: []string{"site2"}, HasLo: true, Lo: 2, HasHi: true, Hi: 4},
				{Table: "Rasters__p2", Replicas: []string{"site3"}, HasLo: true, Lo: 4},
			},
		})},
	}
}

// renderDecisions prints the placement decisions of one plan — and only
// the decisions: fragment order (the join order), each fragment's cut
// point, its pushed predicates in evaluation order, the code it ships
// and whether it semi-joins. No estimate appears, so the file pins what
// the optimizer chose independently of how the choice was priced.
func renderDecisions(plan *Plan) string {
	var b strings.Builder
	for i, f := range plan.Fragments {
		fmt.Fprintf(&b, "  fragment %d: %s cut=%s semijoin=%v\n", i, f.Table, f.CutPoint, f.SemiJoinCol >= 0)
		for _, p := range f.Predicates {
			fmt.Fprintf(&b, "    filter %s\n", p)
		}
		names := make([]string, len(f.Code))
		for j, c := range f.Code {
			names[j] = c.Name
		}
		fmt.Fprintf(&b, "    code [%s]\n", strings.Join(names, ", "))
	}
	return b.String()
}

// TestDecisionsGolden pins every placement decision of the ladder
// queries under all three strategies. The file was generated before the
// ranker and the estimator were collapsed into one price function; a
// change to pricing that moves no decision leaves it byte-identical.
func TestDecisionsGolden(t *testing.T) {
	var b strings.Builder
	for _, layout := range decisionCatalogs(t) {
		for _, q := range decisionQueries {
			for _, s := range []Strategy{StrategyAuto, StrategyCodeShip, StrategyDataShip} {
				fmt.Fprintf(&b, "%s %s [%s]\n", layout.label, q.label, s)
				b.WriteString(renderDecisions(planQuery(t, layout.cat, s, q.sql)))
			}
		}
	}
	path := filepath.Join("testdata", "decisions.golden")
	if *update {
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
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("placement decisions moved:\n%s", lineDiff(string(want), got))
	}
}

// lineDiff lists the lines that differ between two renderings.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %s\n  got  %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
