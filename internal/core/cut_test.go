package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mocha/internal/catalog"
	"mocha/internal/sqlparser"
)

// testPlanner binds sql and runs the cut search, returning the planner
// so a test can price explicit assignments against the winning one.
func testPlanner(t testing.TB, cat *catalog.Catalog, strategy Strategy, sql string) *planner {
	t.Helper()
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	q, err := Bind(sel, cat)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	opt := NewOptimizer(cat)
	opt.Strategy = strategy
	return opt.newPlanner(q)
}

// pushed returns the assignment of table ti that runs exactly the
// given nodes (and the subtrees they need) below the cut.
func pushed(d *queryDAG, nodes ...int) cutAssignment {
	asg := d.scanOnly()
	for _, idx := range nodes {
		pushSubtree(d, &asg, idx)
	}
	return asg
}

// TestTwoCallPredicatePricesAllCalls is the regression test for the
// firstCall pricing bug on the path production takes: every published
// class carries a static stamp, so a pushed predicate with two calls
// must charge each call from its own stamp over its own argument bytes
// — not NumVertices' stamp alone for the whole predicate.
func TestTwoCallPredicatePricesAllCalls(t *testing.T) {
	cat := sequoiaCatalog(t)
	p := testPlanner(t, cat, StrategyAuto,
		"SELECT name FROM Graphs WHERE NumVertices(graph) + TotalLength(graph) < 100000")
	d, tc := p.cut.dag, p.cut.table(0)
	if len(d.calls[0]) != 2 || len(d.preds[0]) != 1 || !tc.asg.pushNode[d.preds[0][0]] {
		t.Fatalf("want one pushed predicate over two call nodes, got cut %q", tc.Point)
	}
	nv, tl := d.nodes[d.calls[0][0]], d.nodes[d.calls[0][1]]
	if nv.expr.Func != "NumVertices" || tl.expr.Func != "TotalLength" || !nv.hasStatic || !tl.hasStatic {
		t.Fatalf("call nodes %s/%s static=%v/%v", nv.expr.Func, tl.expr.Func, nv.hasStatic, tl.hasStatic)
	}
	m, rows := p.opt.Model, p.tableRows(0)
	nvMS := m.CompMSStatic(rows, int64(nv.argBytes), nv.static)
	tlMS := m.CompMSStatic(rows, int64(tl.argBytes), tl.static)
	if got, want := tc.price.CPUMS, nvMS+tlMS; math.Abs(got-want) > 1e-9*want {
		t.Errorf("CPUMS = %v, want %v (both calls, each from its own stamp)", got, want)
	}
	if tc.price.CPUMS <= nvMS {
		t.Errorf("second call contributed nothing: %v <= %v", tc.price.CPUMS, nvMS)
	}
	// The selectivity key and the cut point still name the first
	// (dominant) call.
	if nodeLabel(d.nodes[d.preds[0][0]]) != "NumVertices" {
		t.Errorf("predicate label = %q, want NumVertices", nodeLabel(d.nodes[d.preds[0][0]]))
	}
}

// TestTwoCallPredicatePlans covers the same fix end to end: a predicate
// composing two calls plans, both calls land on the same side of the
// cut, and the cut annotation names the predicate.
func TestTwoCallPredicatePlans(t *testing.T) {
	cat := sequoiaCatalog(t)
	sql := "SELECT name FROM Graphs WHERE NumVertices(graph) + TotalLength(graph) < 100000"
	plan := planQuery(t, cat, StrategyAuto, sql)
	f := plan.Fragments[0]
	if len(f.Predicates) != 1 {
		t.Fatalf("predicate not pushed:\n%s", Explain(plan))
	}
	calls := 0
	f.Predicates[0].Walk(func(x *PExpr) {
		if x.Kind == ExprCall {
			calls++
		}
	})
	if calls != 2 {
		t.Fatalf("pushed predicate carries %d calls, want 2:\n%s", calls, Explain(plan))
	}
	if !strings.Contains(f.CutPoint, "pred NumVertices") {
		t.Errorf("cut point %q does not name the predicate", f.CutPoint)
	}
}

// TestCutXMLRoundTripQuick round-trips randomized cut annotations
// through the fragment XML codec.
func TestCutXMLRoundTripQuick(t *testing.T) {
	cat := sequoiaCatalog(t)
	base := planQuery(t, cat, StrategyAuto,
		"SELECT time FROM Rasters WHERE AvgEnergy(image) < 100")
	f := func(point string, alts uint8) bool {
		frag := *base.Fragments[0]
		// XML cannot carry every byte sequence (invalid UTF-8, control
		// chars); the planner only ever writes printable ASCII points.
		frag.CutPoint = strings.Map(func(r rune) rune {
			if r < 0x20 || r > 0x7e {
				return '_'
			}
			return r
		}, point)
		frag.CutAlts = int(alts)
		data, err := EncodeFragment(&frag)
		if frag.CutPoint == "" {
			// An empty point means "no cut annotation": the codec omits
			// the element entirely, so alts cannot survive alone.
			if err != nil {
				t.Logf("encode: %v", err)
				return false
			}
			got, err := DecodeFragment(data)
			return err == nil && got.CutPoint == "" && got.CutAlts == 0
		}
		if err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		got, err := DecodeFragment(data)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		return got.CutPoint == frag.CutPoint && got.CutAlts == frag.CutAlts
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPlanXMLCarriesCut checks the whole-plan codec: a cut-annotated
// plan declares the dag-cut feature and the annotation survives the
// round trip.
func TestPlanXMLCarriesCut(t *testing.T) {
	cat := sequoiaCatalog(t)
	plan := planQuery(t, cat, StrategyCodeShip,
		"SELECT time, AvgEnergy(image) FROM Rasters WHERE AvgEnergy(image) < 100")
	data, err := EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `requires="dag-cut"`) {
		t.Fatalf("encoded plan does not declare dag-cut:\n%s", data)
	}
	got, err := DecodePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fragments[0].CutPoint != plan.Fragments[0].CutPoint ||
		got.Fragments[0].CutAlts != plan.Fragments[0].CutAlts {
		t.Errorf("cut annotation lost: got %q/%d, want %q/%d",
			got.Fragments[0].CutPoint, got.Fragments[0].CutAlts,
			plan.Fragments[0].CutPoint, plan.Fragments[0].CutAlts)
	}
}

// TestDecodeRefusesUnknownPlanFeature pins the feature gate: a consumer
// that does not implement a plan's `requires` tokens must refuse the
// document with the typed error, never silently misread it.
func TestDecodeRefusesUnknownPlanFeature(t *testing.T) {
	cat := sequoiaCatalog(t)
	plan := planQuery(t, cat, StrategyCodeShip,
		"SELECT time, AvgEnergy(image) FROM Rasters WHERE AvgEnergy(image) < 100")
	frag, err := EncodeFragment(plan.Fragments[0])
	if err != nil {
		t.Fatal(err)
	}
	doc, err := EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		dec  func([]byte) error
	}{
		{"fragment", frag, func(b []byte) error { _, err := DecodeFragment(b); return err }},
		{"plan", doc, func(b []byte) error { _, err := DecodePlan(b); return err }},
	} {
		// The current feature set decodes.
		if err := tc.dec(tc.data); err != nil {
			t.Fatalf("%s: supported features refused: %v", tc.name, err)
		}
		// A future feature token is refused with the typed error.
		future := strings.Replace(string(tc.data), `requires="dag-cut"`, `requires="dag-cut time-travel"`, 1)
		err := tc.dec([]byte(future))
		var fe *UnsupportedPlanFeatureError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: unknown feature not refused with typed error: %v", tc.name, err)
		}
		if len(fe.Features) != 1 || fe.Features[0] != "time-travel" {
			t.Errorf("%s: Features = %v, want [time-travel]", tc.name, fe.Features)
		}
	}
}

// TestComposedExpressionSplitsMidExpression pins the tentpole's
// headline capability: Diff(AvgEnergy(x), AvgEnergy(y)) splits inside
// the expression — each AvgEnergy below its own DAP's cut, Diff above —
// and EXPLAIN renders a below-join cut on both sites.
func TestComposedExpressionSplitsMidExpression(t *testing.T) {
	cat := sequoiaCatalog(t)
	sql := `SELECT R1.time, Diff(AvgEnergy(R1.image), AvgEnergy(R2.image))
FROM Rasters1 AS R1, Rasters2 AS R2 WHERE R1.location = R2.location`
	for _, s := range []Strategy{StrategyAuto, StrategyCodeShip} {
		plan := planQuery(t, cat, s, sql)
		out := Explain(plan)
		for i, f := range plan.Fragments {
			if !strings.Contains(f.CutPoint, "call AvgEnergy") {
				t.Errorf("[%s] fragment %d cut %q does not push AvgEnergy:\n%s", s, i, f.CutPoint, out)
			}
		}
		if !strings.Contains(out, "cut: below=[call AvgEnergy]") {
			t.Errorf("[%s] explain lacks the below-join cut line:\n%s", s, out)
		}
	}
}

// TestPriceIsWhatExplainReports pins the collapse of the two cost
// functions: what EXPLAIN prints as the plan's estimates is the sum of
// the prices the winning cuts were ranked by, for every ladder query
// under every strategy. (Before the collapse a second estimator
// recomputed them and disagreed — Q1's pushed aggregation ranked at
// 2,800 B and printed 8,000 B.)
func TestPriceIsWhatExplainReports(t *testing.T) {
	cat := decisionCatalogs(t)[0].cat // unpartitioned: no pruning fraction to scale by
	for _, q := range decisionQueries {
		for _, s := range []Strategy{StrategyAuto, StrategyCodeShip, StrategyDataShip} {
			p := testPlanner(t, cat, s, q.sql)
			plan, err := p.build()
			if err != nil {
				t.Fatalf("%s [%s]: %v", q.label, s, err)
			}
			var want PlanEstimates
			for ti := range p.q.Tables {
				pr := p.price(p.cut.dag, ti, &p.cut.table(ti).asg)
				want.CVDA += pr.CVDA
				want.CVDT += pr.CVDT
				want.CVDTSelOnly += pr.CVDTSelOnly
				want.Cost += pr.NetMS + pr.CPUMS
			}
			if got := plan.Est; got.CVDA != want.CVDA || got.CVDT != want.CVDT ||
				got.CVDTSelOnly != want.CVDTSelOnly || math.Abs(got.Cost-want.Cost) > 1e-9*want.Cost {
				t.Errorf("%s [%s]: plan.Est = %+v, winning cuts price at %+v", q.label, s, got, want)
			}
		}
	}
}

// TestPricedRowIsShippedRow is the regression test for the ranker
// pricing pushed predicates as still shipped: the columns price counts
// into the shipped row of the winning cut must be exactly the columns
// the emitted fragment ships, for every ladder query. (`SELECT time
// FROM Rasters WHERE band = 3` used to price `band`; Q4 used to price a
// NumVertices result that never leaves the DAP.) The same holds below
// the cut: the source columns price charges to CVDA are the columns the
// fragment extracts, and the predicates the fragment filters by are the
// cut's pushed predicate nodes. buildFragment transcribes the cut, so
// all three hold by construction; this is the regression pin.
func TestPricedRowIsShippedRow(t *testing.T) {
	queries := append([]struct{ label, sql string }{
		{"pushed_cmp", "SELECT time FROM Rasters WHERE band = 3"},
	}, decisionQueries...)
	for _, layout := range decisionCatalogs(t) {
		for _, q := range queries {
			for _, s := range []Strategy{StrategyAuto, StrategyCodeShip, StrategyDataShip} {
				p := testPlanner(t, layout.cat, s, q.sql)
				plan, err := p.build()
				if err != nil {
					t.Fatalf("%s %s [%s]: %v", layout.label, q.label, s, err)
				}
				for _, frag := range plan.Fragments {
					ti := -1
					for i, bt := range p.q.Tables {
						if bt.Def.Name == frag.Table {
							ti = i
						}
					}
					tc := p.cut.table(ti)
					var priced []string
					for _, col := range tc.price.raw {
						priced = append(priced, p.cols[col].name)
					}
					for _, idx := range tc.price.roots {
						priced = append(priced, p.cols[p.virt[idx]].name)
					}
					if tc.asg.pushAgg {
						for _, it := range p.q.Items {
							if it.Agg != nil {
								priced = append(priced, it.Name)
							}
						}
					}
					var shipped []string
					for _, c := range frag.OutSchema.Columns {
						shipped = append(shipped, c.Name)
					}
					sort.Strings(priced)
					sort.Strings(shipped)
					if fmt.Sprint(priced) != fmt.Sprint(shipped) {
						t.Errorf("%s %s [%s] %s: priced as shipped %v, fragment ships %v",
							layout.label, q.label, s, frag.Table, priced, shipped)
					}

					offset := p.q.Tables[ti].Offset
					var read []int
					for _, col := range tc.price.read {
						read = append(read, col-offset)
					}
					if fmt.Sprint(read) != fmt.Sprint(frag.Cols) {
						t.Errorf("%s %s [%s] %s: priced as read %v, fragment extracts %v",
							layout.label, q.label, s, frag.Table, read, frag.Cols)
					}

					var cutPreds, fragPreds []string
					for _, idx := range p.cut.dag.preds[ti] {
						if tc.asg.pushNode[idx] {
							cutPreds = append(cutPreds, p.cut.dag.nodes[idx].expr.String())
						}
					}
					for _, e := range frag.Predicates {
						// Back from the fragment's input positions to source space.
						fragPreds = append(fragPreds, e.Rewrite(func(x *PExpr) *PExpr {
							if x.Kind == ExprCol {
								return NewCol(offset+frag.Cols[x.Col], x.Ret)
							}
							return x
						}).String())
					}
					sort.Strings(cutPreds)
					sort.Strings(fragPreds)
					if fmt.Sprint(cutPreds) != fmt.Sprint(fragPreds) {
						t.Errorf("%s %s [%s] %s: cut pushes predicates %v, fragment filters by %v",
							layout.label, q.label, s, frag.Table, cutPreds, fragPreds)
					}
				}
			}
		}
	}
}

// TestRankedCutNeverShipsMore pins the two searches against each other.
// On every ladder query the exhaustive enumeration's cut is never
// priced above the greedy guard's (it is the optimum), and the guard's
// cut is feasible and never priced above scan-only (it only keeps moves
// that make the cut cheaper). A WHERE clause with more free nodes than
// maxCutChoices is planned by the guard, at one priced cut per node.
func TestRankedCutNeverShipsMore(t *testing.T) {
	cat := decisionCatalogs(t)[0].cat
	for _, q := range decisionQueries {
		p := testPlanner(t, cat, StrategyAuto, q.sql)
		d := p.cut.dag
		for ti := range p.q.Tables {
			aggHere := d.agg != nil && d.agg.table == ti && !d.agg.pinAbove
			ranked := p.rankedCut(d, ti, d.freeNodes(ti), aggHere)
			greedy := p.greedyCut(d, ti, d.freeNodes(ti), aggHere)
			scan := d.scanOnly()
			if greedy.price.cheaper(ranked.price) {
				t.Errorf("%s table %d: guard cut %q prices below the enumerated optimum %q",
					q.label, ti, greedy.Point, ranked.Point)
			}
			if ranked.price.CVDT > greedy.price.CVDT {
				t.Errorf("%s table %d: enumerated cut ships %d bytes, guard %d",
					q.label, ti, ranked.price.CVDT, greedy.price.CVDT)
			}
			if !feasibleCut(d, ti, &greedy.asg) || p.price(d, ti, &scan).cheaper(greedy.price) {
				t.Errorf("%s table %d: guard cut %q infeasible or priced above scan-only", q.label, ti, greedy.Point)
			}
		}
	}

	wide := "SELECT time FROM Rasters WHERE AvgEnergy(image) < 100"
	for i := 0; i < maxCutChoices; i++ {
		wide += fmt.Sprintf(" AND band <> %d", 100+i)
	}
	p := testPlanner(t, cat, StrategyAuto, wide)
	tc, free := p.cut.table(0), len(p.cut.dag.freeNodes(0))
	if free <= maxCutChoices || tc.Alts > free+1 {
		t.Fatalf("%d free nodes priced %d cuts; want the guard's one cut per node", free, tc.Alts)
	}
	if scan := p.cut.dag.scanOnly(); tc.price.CVDT >= p.price(p.cut.dag, 0, &scan).CVDT {
		t.Errorf("guard cut %q ships no less than scan-only", tc.Point)
	}
}
