package core

import (
	"encoding/xml"
	"strings"
	"testing"

	"mocha/internal/catalog"
	"mocha/internal/ops"
	"mocha/internal/sqlparser"
	"mocha/internal/types"
)

// sequoiaCatalog builds a catalog mirroring Table 1 of the paper: the
// Polygons, Graphs and Rasters datasets plus the Rasters1/Rasters2 pair
// used by the distributed join Q5.
func sequoiaCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	reg := ops.Builtins()
	cat := catalog.New(reg, catalog.NewRepositoryFromRegistry(reg))
	cat.AddSite(&catalog.Site{Name: "site1", Addr: "dap1"})
	cat.AddSite(&catalog.Site{Name: "site2", Addr: "dap2"})

	add := func(name, site string, schema types.Schema, rows int64, sizes []int) {
		st := catalog.TableStats{RowCount: rows}
		for i, c := range schema.Columns {
			st.Columns = append(st.Columns, catalog.ColumnStats{Name: c.Name, AvgBytes: sizes[i]})
		}
		if err := cat.AddTable(&catalog.TableDef{
			Name: name, URI: "mocha://tables/" + name, Site: site, Schema: schema, Stats: st,
		}); err != nil {
			t.Fatal(err)
		}
	}

	add("Polygons", "site1", types.NewSchema(
		types.Column{Name: "landuse", Kind: types.KindString},
		types.Column{Name: "polygon", Kind: types.KindPolygon},
	), 77643, []int{12, 242})

	add("Graphs", "site1", types.NewSchema(
		types.Column{Name: "name", Kind: types.KindString},
		types.Column{Name: "graph", Kind: types.KindGraph},
	), 201650, []int{12, 154})

	add("Rasters", "site1", types.NewSchema(
		types.Column{Name: "time", Kind: types.KindInt},
		types.Column{Name: "band", Kind: types.KindInt},
		types.Column{Name: "location", Kind: types.KindRectangle},
		types.Column{Name: "image", Kind: types.KindRaster},
	), 200, []int{4, 4, 16, 1 << 20})

	for _, name := range []string{"Rasters1", "Rasters2"} {
		site := "site1"
		if name == "Rasters2" {
			site = "site2"
		}
		add(name, site, types.NewSchema(
			types.Column{Name: "time", Kind: types.KindInt},
			types.Column{Name: "band", Kind: types.KindInt},
			types.Column{Name: "location", Kind: types.KindRectangle},
			types.Column{Name: "image", Kind: types.KindRaster},
		), 120, []int{4, 4, 16, 128 << 10})
	}
	return cat
}

func planQuery(t testing.TB, cat *catalog.Catalog, strategy Strategy, sql string) *Plan {
	t.Helper()
	plan, err := testPlanner(t, cat, strategy, sql).build()
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return plan
}

func TestPlanSection22Query(t *testing.T) {
	cat := sequoiaCatalog(t)
	cat.SetSelectivity("AvgEnergy", "Rasters", 0.5)
	plan := planQuery(t, cat, StrategyAuto, `
SELECT time, location, AvgEnergy(image) FROM Rasters WHERE AvgEnergy(image) < 100`)

	if len(plan.Fragments) != 1 {
		t.Fatalf("fragments = %d", len(plan.Fragments))
	}
	f := plan.Fragments[0]
	// AvgEnergy is massively data-reducing: both the predicate and the
	// projection must be pushed to the DAP.
	if len(f.Predicates) != 1 {
		t.Errorf("DAP predicates = %d, want 1: %v", len(f.Predicates), Explain(plan))
	}
	if len(plan.Predicates) != 0 {
		t.Errorf("QPC predicates = %d, want 0", len(plan.Predicates))
	}
	foundCall := false
	for _, o := range f.Projections {
		if c := firstCall(o.Expr); c != nil && c.Func == "AvgEnergy" {
			foundCall = true
		}
	}
	if !foundCall {
		t.Errorf("AvgEnergy projection not pushed:\n%s", Explain(plan))
	}
	// The code manifest must ship AvgEnergy.
	if len(f.Code) != 1 || f.Code[0].Name != "AvgEnergy" {
		t.Errorf("code manifest = %v", f.Code)
	}
	// Result rows are the 28-byte (time, location, avg) rows of §2.2.
	want := types.NewSchema(
		types.Column{Name: "time", Kind: types.KindInt},
		types.Column{Name: "location", Kind: types.KindRectangle},
		types.Column{Name: "AvgEnergy(image)", Kind: types.KindDouble},
	)
	if !plan.ResultSchema.Equal(want) {
		t.Errorf("result schema = %v", plan.ResultSchema)
	}
	// The raster column must NOT be shipped.
	for _, c := range f.OutSchema.Columns {
		if c.Kind == types.KindRaster {
			t.Errorf("raster shipped to QPC: %v", f.OutSchema)
		}
	}
	if plan.Est.CVRF() >= 1 {
		t.Errorf("CVRF = %g, want < 1", plan.Est.CVRF())
	}
}

func TestPlanDataInflatingStaysAtQPC(t *testing.T) {
	cat := sequoiaCatalog(t)
	// Q3: IncrRes quadruples the image; auto must keep it at the QPC.
	plan := planQuery(t, cat, StrategyAuto, `
SELECT time, location, IncrRes(image, 2) FROM Rasters`)
	f := plan.Fragments[0]
	for _, o := range f.Projections {
		if firstCall(o.Expr) != nil {
			t.Errorf("data-inflating operator pushed to DAP:\n%s", Explain(plan))
		}
	}
	hasQPCCall := false
	for _, o := range plan.Projections {
		if c := firstCall(o.Expr); c != nil && c.Func == "IncrRes" {
			hasQPCCall = true
		}
	}
	if !hasQPCCall {
		t.Error("IncrRes lost from QPC projections")
	}
	// Forced code shipping pushes it anyway (the Q3 experiment's bad plan).
	forced := planQuery(t, cat, StrategyCodeShip, `
SELECT time, location, IncrRes(image, 2) FROM Rasters`)
	pushed := false
	for _, o := range forced.Fragments[0].Projections {
		if c := firstCall(o.Expr); c != nil && c.Func == "IncrRes" {
			pushed = true
		}
	}
	if !pushed {
		t.Error("StrategyCodeShip did not push IncrRes")
	}
	// And its estimated transmitted volume must exceed the auto plan's.
	if forced.Est.CVDT <= plan.Est.CVDT {
		t.Errorf("forced CVDT %d should exceed auto CVDT %d", forced.Est.CVDT, plan.Est.CVDT)
	}
}

func TestPlanAggregationPushdown(t *testing.T) {
	cat := sequoiaCatalog(t)
	sql := `SELECT landuse, TotalArea(polygon), TotalPerimeter(polygon) FROM Polygons GROUP BY landuse`
	auto := planQuery(t, cat, StrategyAuto, sql)
	f := auto.Fragments[0]
	if len(f.Aggregates) != 2 || len(f.GroupBy) != 1 {
		t.Fatalf("aggregation not pushed:\n%s", Explain(auto))
	}
	if len(auto.Aggregates) != 0 {
		t.Error("aggregates duplicated at QPC")
	}
	if got := len(f.Code); got != 2 {
		t.Errorf("code manifest has %d classes, want TotalArea+TotalPerimeter", got)
	}

	data := planQuery(t, cat, StrategyDataShip, sql)
	if len(data.Fragments[0].Aggregates) != 0 {
		t.Error("data shipping still pushed aggregation")
	}
	if len(data.Aggregates) != 2 {
		t.Errorf("QPC aggregates = %d", len(data.Aggregates))
	}
	// Data shipping must ship the polygon column.
	shipsPolygon := false
	for _, c := range data.Fragments[0].OutSchema.Columns {
		if c.Kind == types.KindPolygon {
			shipsPolygon = true
		}
	}
	if !shipsPolygon {
		t.Error("data shipping plan does not ship polygons")
	}
	if auto.Est.CVDT >= data.Est.CVDT {
		t.Errorf("pushdown CVDT %d should be below data shipping CVDT %d", auto.Est.CVDT, data.Est.CVDT)
	}
}

func TestPlanQ4PredicatesAndRanking(t *testing.T) {
	cat := sequoiaCatalog(t)
	cat.SetSelectivity("NumVertices", "Graphs", 0.9)
	cat.SetSelectivity("TotalLength", "Graphs", 0.2)
	plan := planQuery(t, cat, StrategyAuto, `
SELECT name FROM Graphs WHERE NumVertices(graph) < 300 AND TotalLength(graph) < 10000`)
	f := plan.Fragments[0]
	if len(f.Predicates) != 2 {
		t.Fatalf("DAP predicates = %d:\n%s", len(f.Predicates), Explain(plan))
	}
	// rank = (SF-1)/cost ascending: NumVertices reads only 4 bytes of
	// the graph header, so despite its weaker selectivity its
	// per-tuple cost is orders of magnitude lower and it ranks first.
	first := firstCall(f.Predicates[0])
	if first == nil {
		t.Fatal("first predicate lost its call")
	}
	if first.Func != "NumVertices" {
		t.Errorf("predicate order: first is %s:\n%s", first.Func, Explain(plan))
	}
	// The graph attribute itself must not be shipped.
	for _, c := range f.OutSchema.Columns {
		if c.Kind == types.KindGraph {
			t.Error("graph column shipped")
		}
	}
	// Selectivity-only estimate grossly exceeds the VRF estimate (the
	// paper's Figure 10(b) argument).
	if plan.Est.CVDTSelOnly <= plan.Est.CVDT {
		t.Errorf("selectivity-only estimate %d should exceed VRF estimate %d", plan.Est.CVDTSelOnly, plan.Est.CVDT)
	}
}

func TestPlanQ5DistributedJoin(t *testing.T) {
	cat := sequoiaCatalog(t)
	sql := `SELECT R1.time, R1.location, Diff(AvgEnergy(R1.image), AvgEnergy(R2.image))
FROM Rasters1 AS R1, Rasters2 AS R2
WHERE R1.location = R2.location`
	plan := planQuery(t, cat, StrategyCodeShip, sql)
	if len(plan.Fragments) != 2 || len(plan.Joins) != 1 {
		t.Fatalf("fragments=%d joins=%d:\n%s", len(plan.Fragments), len(plan.Joins), Explain(plan))
	}
	// Each fragment computes AvgEnergy locally and ships no rasters.
	for i, f := range plan.Fragments {
		hasAvg := false
		for _, o := range f.Projections {
			if c := firstCall(o.Expr); c != nil && c.Func == "AvgEnergy" {
				hasAvg = true
			}
		}
		if !hasAvg {
			t.Errorf("fragment %d does not compute AvgEnergy:\n%s", i, Explain(plan))
		}
		for _, c := range f.OutSchema.Columns {
			if c.Kind == types.KindRaster {
				t.Errorf("fragment %d ships rasters", i)
			}
		}
		if f.SemiJoinCol < 0 {
			t.Errorf("fragment %d has no semi-join filter", i)
		}
	}
	// Diff stays at the QPC, reading the two shipped virtual columns.
	diffAtQPC := false
	for _, o := range plan.Projections {
		if c := firstCall(o.Expr); c != nil && c.Func == "Diff" {
			diffAtQPC = true
			for _, a := range c.Args {
				if a.Kind != ExprCol {
					t.Errorf("Diff argument not decomposed: %s", o.Expr)
				}
			}
		}
	}
	if !diffAtQPC {
		t.Errorf("Diff not at QPC:\n%s", Explain(plan))
	}

	// Data shipping: rasters cross the wire, no semi-joins.
	data := planQuery(t, cat, StrategyDataShip, sql)
	shipsRaster := false
	for _, f := range data.Fragments {
		if f.SemiJoinCol >= 0 {
			t.Error("data shipping enabled semi-join")
		}
		for _, c := range f.OutSchema.Columns {
			if c.Kind == types.KindRaster {
				shipsRaster = true
			}
		}
	}
	if !shipsRaster {
		t.Error("data shipping does not ship rasters")
	}
	if plan.Est.CVDT >= data.Est.CVDT {
		t.Errorf("code shipping CVDT %d should be below data shipping %d", plan.Est.CVDT, data.Est.CVDT)
	}
}

func TestPlanXMLRoundTrip(t *testing.T) {
	cat := sequoiaCatalog(t)
	for _, sql := range []string{
		"SELECT time, location, AvgEnergy(image) FROM Rasters WHERE AvgEnergy(image) < 100",
		"SELECT landuse, TotalArea(polygon) FROM Polygons GROUP BY landuse",
		"SELECT R1.time, Diff(AvgEnergy(R1.image), AvgEnergy(R2.image)) FROM Rasters1 R1, Rasters2 R2 WHERE R1.location = R2.location",
		"SELECT name FROM Graphs WHERE NumVertices(graph) < 300 ORDER BY name DESC LIMIT 7",
	} {
		plan := planQuery(t, cat, StrategyAuto, sql)
		data, err := EncodePlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodePlan(data)
		if err != nil {
			t.Fatalf("decode plan for %q: %v", sql, err)
		}
		d2, err := EncodePlan(back)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(d2) {
			t.Errorf("plan XML not stable for %q", sql)
		}
		// Fragments round-trip independently (they travel alone).
		for _, f := range plan.Fragments {
			fd, err := EncodeFragment(f)
			if err != nil {
				t.Fatal(err)
			}
			f2, err := DecodeFragment(fd)
			if err != nil {
				t.Fatal(err)
			}
			if f2.Table != f.Table || len(f2.Predicates) != len(f.Predicates) ||
				!f2.OutSchema.Equal(f.OutSchema) || !f2.InSchema.Equal(f.InSchema) {
				t.Errorf("fragment round trip lost structure for %q", sql)
			}
		}
	}
	if _, err := DecodePlan([]byte("<plan><")); err == nil {
		t.Error("bad plan XML accepted")
	}
	if _, err := DecodeFragment([]byte("garbage")); err == nil {
		t.Error("bad fragment XML accepted")
	}
}

func TestBindErrors(t *testing.T) {
	cat := sequoiaCatalog(t)
	bad := []string{
		"SELECT x FROM NoTable",
		"SELECT nope FROM Rasters",
		"SELECT NoSuchOp(image) FROM Rasters",
		"SELECT AvgEnergy(image, 2) FROM Rasters",             // arity
		"SELECT AvgEnergy(time) FROM Rasters",                 // type
		"SELECT time FROM Rasters WHERE time",                 // non-bool where
		"SELECT Sum(AvgEnergy(image)) + 1 FROM Rasters",       // nested aggregate
		"SELECT time FROM Rasters GROUP BY time",              // group without agg
		"SELECT band, Count(time) FROM Rasters GROUP BY time", // non-grouped output
		"SELECT time FROM Rasters ORDER BY nope",
		"SELECT t.time FROM Rasters",                   // bad qualifier
		"SELECT time FROM Rasters1 R1, Rasters2 R2",    // cross product
		"SELECT time + location FROM Rasters",          // arithmetic on rectangle
		"SELECT time FROM Rasters WHERE image = image", // compare large
		"SELECT Sum(image) FROM Rasters",               // agg type mismatch
	}
	for _, sql := range bad {
		sel, err := sqlparser.Parse(sql)
		if err != nil {
			continue // parser-level rejection also fine
		}
		q, err := Bind(sel, cat)
		if err != nil {
			continue
		}
		if _, err := NewOptimizer(cat).Plan(q); err == nil {
			t.Errorf("%q should fail to plan", sql)
		}
	}
	// Ambiguity across join tables.
	sel, _ := sqlparser.Parse("SELECT time FROM Rasters1 R1, Rasters2 R2 WHERE R1.location = R2.location")
	if _, err := Bind(sel, cat); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous column accepted: %v", err)
	}
}

func TestCompileAndEvaluate(t *testing.T) {
	cat := sequoiaCatalog(t)
	binder := NativeBinder{Reg: cat.Ops()}
	// (a + 2) * 3 < 10 over a one-column tuple.
	lt := &PExpr{Kind: ExprBinop, Op: "<", Ret: types.KindBool, Args: []*PExpr{
		{Kind: ExprBinop, Op: "*", Ret: types.KindInt, Args: []*PExpr{
			{Kind: ExprBinop, Op: "+", Ret: types.KindInt, Args: []*PExpr{
				NewCol(0, types.KindInt), NewConst(types.Int(2)),
			}},
			NewConst(types.Int(3)),
		}},
		NewConst(types.Int(10)),
	}}
	fn, err := CompileExpr(lt, binder)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := EvalPredicate(fn, types.Tuple{types.Int(1)})
	if err != nil || !ok {
		t.Errorf("(1+2)*3 < 10: %v %v", ok, err)
	}
	ok, _ = EvalPredicate(fn, types.Tuple{types.Int(2)})
	if ok {
		t.Error("(2+2)*3 < 10 should be false")
	}

	// Operator call through the binder.
	px := make([]byte, 16)
	for i := range px {
		px[i] = 10
	}
	call := &PExpr{Kind: ExprCall, Func: "AvgEnergy", Ret: types.KindDouble,
		Args: []*PExpr{NewCol(0, types.KindRaster)}}
	fn, err = CompileExpr(call, binder)
	if err != nil {
		t.Fatal(err)
	}
	v, err := fn(types.Tuple{types.NewRaster(4, 4, px)})
	if err != nil || v.(types.Double) != 10 {
		t.Errorf("AvgEnergy = %v, %v", v, err)
	}

	// Mixed-kind promotion and division by zero.
	div := &PExpr{Kind: ExprBinop, Op: "/", Ret: types.KindInt, Args: []*PExpr{
		NewConst(types.Int(1)), NewCol(0, types.KindInt)}}
	fn, _ = CompileExpr(div, binder)
	if _, err := fn(types.Tuple{types.Int(0)}); err == nil {
		t.Error("integer division by zero succeeded")
	}

	// AND short-circuits: the right side would fail on evaluation.
	and := &PExpr{Kind: ExprBinop, Op: "AND", Ret: types.KindBool, Args: []*PExpr{
		NewConst(types.Bool(false)),
		{Kind: ExprBinop, Op: "<", Ret: types.KindBool, Args: []*PExpr{
			NewCol(5, types.KindInt), NewConst(types.Int(0))}},
	}}
	fn, _ = CompileExpr(and, binder)
	ok, err = EvalPredicate(fn, types.Tuple{types.Int(0)})
	if err != nil || ok {
		t.Errorf("short-circuit AND: %v %v", ok, err)
	}
}

func TestExprXMLRoundTripConst(t *testing.T) {
	e := &PExpr{Kind: ExprBinop, Op: "=", Ret: types.KindBool, Args: []*PExpr{
		NewCol(2, types.KindRectangle),
		NewConst(types.Rectangle{XMin: 1, YMin: 2, XMax: 3, YMax: 4}),
	}}
	data, err := xml.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	back := new(PExpr)
	if err := xml.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if back.String() != e.String() {
		t.Errorf("expr round trip: %s != %s", back, e)
	}
	if back.Args[1].Const.(types.Rectangle) != e.Args[1].Const.(types.Rectangle) {
		t.Error("rectangle constant corrupted")
	}
	// What the decoder refuses: an unknown or absent return kind, an
	// unknown node kind, and a constant whose kind or payload is bad.
	for _, doc := range []string{
		`<expr kind="col" col="0" ret="WEIRD"></expr>`,
		`<expr kind="col" col="0"></expr>`,
		`<expr kind="lambda" col="0" ret="INT"></expr>`,
		`<expr kind="const" col="0" ret="INT" const-kind="WEIRD" const-data="AAAAAQ=="></expr>`,
		`<expr kind="const" col="0" ret="INT" const-data="AAAAAQ=="></expr>`,
		`<expr kind="const" col="0" ret="INT" const-kind="INT" const-data="!!!"></expr>`,
		`<expr kind="const" col="0" ret="INT" const-kind="INT" const-data="AA=="></expr>`,
		`<expr kind="binop" col="0" op="=" ret="BOOL"><expr kind="col" col="0" ret="WEIRD"></expr></expr>`,
	} {
		if err := xml.Unmarshal([]byte(doc), new(PExpr)); err == nil {
			t.Errorf("accepted %s", doc)
		}
	}
}

func TestExplainOutput(t *testing.T) {
	cat := sequoiaCatalog(t)
	plan := planQuery(t, cat, StrategyAuto,
		"SELECT time, AvgEnergy(image) FROM Rasters WHERE AvgEnergy(image) < 100")
	out := Explain(plan)
	for _, want := range []string{"fragment 0 @ site1", "ship code: AvgEnergy", "CVRF="} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestVRFProperties(t *testing.T) {
	cat := sequoiaCatalog(t)
	callVRF := func(sql string) float64 {
		p := testPlanner(t, cat, StrategyAuto, sql)
		return cutVRF(p, pushed(p.cut.dag, p.cut.dag.calls[0][0]))
	}
	// AvgEnergy: 1MB -> 8 bytes: strongly reducing.
	if vrf := callVRF("SELECT AvgEnergy(image) FROM Rasters"); vrf >= 0.001 {
		t.Errorf("AvgEnergy VRF = %g", vrf)
	}
	// IncrRes: 4x inflation.
	if vrf := callVRF("SELECT IncrRes(image, 2) FROM Rasters"); vrf <= 1 {
		t.Errorf("IncrRes VRF = %g, want > 1", vrf)
	}
	// Predicate VRF vs selectivity: 50% selectivity but tiny shipped
	// rows over a large argument → VRF ≪ SF.
	p := testPlanner(t, cat, StrategyAuto,
		"SELECT time, band, location FROM Rasters WHERE AvgEnergy(image) < 100")
	pred := p.cut.dag.preds[0][0]
	if vrf, sf := cutVRF(p, pushed(p.cut.dag, pred)), p.cut.dag.nodes[pred].sf; vrf >= 0.01*sf {
		t.Errorf("predicate VRF %g not far below SF %g", vrf, sf)
	}
}

func TestExplainShowsCapabilityManifest(t *testing.T) {
	cat := sequoiaCatalog(t)
	plan := planQuery(t, cat, StrategyAuto,
		"SELECT landuse, Perimeter(polygon) FROM Polygons WHERE Perimeter(polygon) < 100")
	out := Explain(plan)
	if !strings.Contains(out, "Perimeter [host: sqrt]") {
		t.Errorf("explain missing capability annotation:\n%s", out)
	}
}

func TestCodeRefCapsPlanXMLRoundTrip(t *testing.T) {
	cat := sequoiaCatalog(t)
	plan := planQuery(t, cat, StrategyAuto,
		"SELECT landuse, Perimeter(polygon) FROM Polygons WHERE Perimeter(polygon) < 100")
	var ref *CodeRef
	for i := range plan.Fragments[0].Code {
		if plan.Fragments[0].Code[i].Name == "Perimeter" {
			ref = &plan.Fragments[0].Code[i]
		}
	}
	if ref == nil || ref.Caps != "sqrt" {
		t.Fatalf("planner did not attach capability manifest: %+v", plan.Fragments[0].Code)
	}

	data, err := EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	var got string
	for _, c := range back.Fragments[0].Code {
		if c.Name == "Perimeter" {
			got = c.Caps
		}
	}
	if got != "sqrt" {
		t.Errorf("caps after plan XML round trip = %q, want %q", got, "sqrt")
	}

	// The fragment encoding the QPC actually ships to a DAP must carry
	// the manifest too.
	fdata, err := EncodeFragment(plan.Fragments[0])
	if err != nil {
		t.Fatal(err)
	}
	frag, err := DecodeFragment(fdata)
	if err != nil {
		t.Fatal(err)
	}
	got = ""
	for _, c := range frag.Code {
		if c.Name == "Perimeter" {
			got = c.Caps
		}
	}
	if got != "sqrt" {
		t.Errorf("caps after fragment round trip = %q, want %q", got, "sqrt")
	}
}
