package mocha

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mocha/internal/sequoia"
	"mocha/internal/storage"
	"mocha/internal/types"
)

// testCluster builds a three-site cluster with small Sequoia data:
// Polygons/Graphs/Rasters and Rasters1 at site1, Rasters2 at site2 and
// Rasters3 (the third leg of the Q6 join) at site3.
func testCluster(t testing.TB, cfg ClusterConfig) (*Cluster, sequoia.Config) {
	t.Helper()
	scale := sequoia.TestScale()
	// Keep join images big enough (4 KB) that the Q5 volume ratios keep
	// the paper's shape even at test scale.
	scale.JoinDim = 64
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewStore()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := sequoia.GenerateAll(s1, scale); err != nil {
		t.Fatal(err)
	}
	if err := sequoia.GenerateJoinPair(s1, s2, scale); err != nil {
		t.Fatal(err)
	}
	s3, err := NewStore()
	if err != nil {
		t.Fatal(err)
	}
	if err := sequoia.GenerateJoinThird(s3, scale); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddSite("site1", s1); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddSite("site2", s2); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddSite("site3", s3); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []string{"Polygons", "Graphs", "Rasters", "Rasters1"} {
		if err := cl.RegisterTable("site1", tbl); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.RegisterTable("site2", "Rasters2"); err != nil {
		t.Fatal(err)
	}
	if err := cl.RegisterTable("site3", "Rasters3"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl, scale
}

func rowsKey(rows []Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

func sameRows(t *testing.T, label string, a, b []Tuple) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d rows vs %d rows", label, len(a), len(b))
	}
	am := map[string]int{}
	for _, k := range rowsKey(a) {
		am[k]++
	}
	for _, k := range rowsKey(b) {
		if am[k] == 0 {
			t.Fatalf("%s: row %s only in one result", label, k)
		}
		am[k]--
	}
}

func TestSection22QueryEndToEnd(t *testing.T) {
	cl, _ := testCluster(t, ClusterConfig{})
	sql := "SELECT time, location, AvgEnergy(image) FROM Rasters WHERE AvgEnergy(image) < 100"

	cl.SetStrategy(StrategyCodeShip)
	code, err := cl.Execute(sql)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetStrategy(StrategyDataShip)
	data, err := cl.Execute(sql)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "code vs data shipping", code.Rows, data.Rows)
	if len(code.Rows) == 0 {
		t.Fatal("query returned nothing; generator must produce some avg < 100")
	}
	for _, row := range code.Rows {
		if len(row) != 3 || row[2].Kind() != KindDouble {
			t.Fatalf("bad result row: %v", row)
		}
		if float64(row[2].(Double)) >= 100 {
			t.Fatalf("predicate violated: %v", row)
		}
		if got := row.WireSize(); got != 28 {
			t.Fatalf("result row is %d bytes, want the paper's 28", got)
		}
	}
	// Code shipping must move radically less data.
	if code.Stats.CVDT*10 >= data.Stats.CVDT {
		t.Errorf("CVDT code=%d data=%d: expected >10x reduction", code.Stats.CVDT, data.Stats.CVDT)
	}
	if code.Stats.CVRF() >= 1 || code.Stats.CVRF() >= data.Stats.CVRF() {
		t.Errorf("CVRF code=%g data=%g", code.Stats.CVRF(), data.Stats.CVRF())
	}
	if code.Stats.CodeClassesShipped == 0 {
		t.Error("no code was shipped under code shipping")
	}
	// Auto must pick the data-reducing plan.
	cl.SetStrategy(StrategyAuto)
	auto, err := cl.Execute(sql)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "auto vs code shipping", auto.Rows, code.Rows)
	if auto.Stats.CVDT > code.Stats.CVDT*11/10 {
		t.Errorf("auto CVDT %d far above code shipping %d", auto.Stats.CVDT, code.Stats.CVDT)
	}
}

func TestQ1AggregatesEndToEnd(t *testing.T) {
	cl, _ := testCluster(t, ClusterConfig{})
	for _, strat := range []Strategy{StrategyCodeShip, StrategyDataShip} {
		cl.SetStrategy(strat)
		res, err := cl.Execute(sequoia.Q1)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if len(res.Rows) == 0 || len(res.Rows) > 12 {
			t.Fatalf("%v: %d groups", strat, len(res.Rows))
		}
		for _, row := range res.Rows {
			if float64(row[1].(Double)) <= 0 || float64(row[2].(Double)) <= 0 {
				t.Fatalf("%v: non-positive totals: %v", strat, row)
			}
		}
	}
	// The two strategies agree numerically (within float tolerance).
	cl.SetStrategy(StrategyCodeShip)
	a, _ := cl.Execute(sequoia.Q1)
	cl.SetStrategy(StrategyDataShip)
	b, _ := cl.Execute(sequoia.Q1)
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("group counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	bm := map[string][2]float64{}
	for _, row := range b.Rows {
		bm[string(row[0].(String))] = [2]float64{float64(row[1].(Double)), float64(row[2].(Double))}
	}
	for _, row := range a.Rows {
		want, ok := bm[string(row[0].(String))]
		if !ok {
			t.Fatalf("group %v missing in data-shipping result", row[0])
		}
		for i := 0; i < 2; i++ {
			got := float64(row[i+1].(Double))
			if math.Abs(got-want[i]) > 1e-6*(1+math.Abs(want[i])) {
				t.Errorf("group %v column %d: %g vs %g", row[0], i, got, want[i])
			}
		}
	}
}

func TestQ2ClipEndToEnd(t *testing.T) {
	cl, scale := testCluster(t, ClusterConfig{})
	res, err := cl.Execute(sequoia.Q2(scale))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(res.Rows)) != int64(scale.RasterRows) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), scale.RasterRows)
	}
	for _, row := range res.Rows {
		r := row[2].(Raster)
		if r.Width() != scale.RasterDim || r.Height() != scale.RasterDim/5 {
			t.Fatalf("clip dims = %dx%d", r.Width(), r.Height())
		}
	}
	// Clip is data-reducing: CVRF < 1 under auto.
	if res.Stats.CVRF() >= 1 {
		t.Errorf("Q2 CVRF = %g", res.Stats.CVRF())
	}
}

func TestQ3InflatesAndAutoKeepsItLocal(t *testing.T) {
	cl, scale := testCluster(t, ClusterConfig{})
	res, err := cl.Execute(sequoia.Q3)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		r := row[2].(Raster)
		if r.Width() != 2*scale.RasterDim {
			t.Fatalf("IncrRes width = %d", r.Width())
		}
	}
	// Under auto, the inflating operator runs at the QPC: the wire
	// carried the originals, so CVDT ≈ CVDA (ratio near 1, not 4).
	if ratio := res.Stats.CVRF(); ratio > 1.2 {
		t.Errorf("auto Q3 CVRF = %g, inflating op leaked to DAP", ratio)
	}

	cl.SetStrategy(StrategyCodeShip)
	forced, err := cl.Execute(sequoia.Q3)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "Q3 auto vs forced", res.Rows, forced.Rows)
	if forced.Stats.CVDT <= 3*res.Stats.CVDT {
		t.Errorf("forced code shipping should transmit ~4x: %d vs %d", forced.Stats.CVDT, res.Stats.CVDT)
	}
}

func TestQ4PredicatesEndToEnd(t *testing.T) {
	cl, _ := testCluster(t, ClusterConfig{})
	store := cl.stores["site1"]
	cals, err := sequoia.CalibrateQ4(store, []float64{0.1, 0.5, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := store.Table("Graphs")
	total, _ := tbl.Count()
	for _, cal := range cals {
		cl.SetSelectivity("NumVertices", "Graphs", cal.VertSelectivity)
		cl.SetSelectivity("TotalLength", "Graphs", cal.LenSelectivity)
		sql := sequoia.Q4(cal.MaxVerts, cal.MaxLength)

		cl.SetStrategy(StrategyCodeShip)
		code, err := cl.Execute(sql)
		if err != nil {
			t.Fatal(err)
		}
		cl.SetStrategy(StrategyDataShip)
		data, err := cl.Execute(sql)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, fmt.Sprintf("Q4 sel %.1f", cal.Target), code.Rows, data.Rows)
		got := float64(len(code.Rows)) / float64(total)
		if math.Abs(got-cal.Actual) > 1e-9 {
			t.Errorf("sel %.1f: result fraction %g != calibrated %g", cal.Target, got, cal.Actual)
		}
		// Predicate pushdown avoids shipping graphs: big CVDT gap.
		if cal.Target < 1 && code.Stats.CVDT*2 >= data.Stats.CVDT {
			t.Errorf("sel %.1f: CVDT code=%d data=%d", cal.Target, code.Stats.CVDT, data.Stats.CVDT)
		}
	}
}

func TestQ5DistributedJoinEndToEnd(t *testing.T) {
	cl, scale := testCluster(t, ClusterConfig{})

	cl.SetStrategy(StrategyCodeShip)
	code, err := cl.Execute(sequoia.Q5)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetStrategy(StrategyDataShip)
	data, err := cl.Execute(sequoia.Q5)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "Q5 join", code.Rows, data.Rows)
	// Three common locations, each appearing JoinTuplesPerLoc times per
	// table → n² pairs per location.
	want := scale.JoinCommonLocations * scale.JoinTuplesPerLoc * scale.JoinTuplesPerLoc
	if len(code.Rows) != want {
		t.Fatalf("join produced %d rows, want %d", len(code.Rows), want)
	}
	for _, row := range code.Rows {
		d := float64(row[2].(Double))
		if d < 0 {
			t.Fatalf("Diff should be absolute: %v", row)
		}
	}
	// Semi-join + pushed AvgEnergy vs full image shipping: enormous gap.
	if code.Stats.CVDT*20 >= data.Stats.CVDT {
		t.Errorf("Q5 CVDT code=%d data=%d", code.Stats.CVDT, data.Stats.CVDT)
	}
	if data.Stats.CVRF() < 0.9 {
		t.Errorf("data shipping CVRF = %g, should be ≈1", data.Stats.CVRF())
	}
	if code.Stats.CVRF() > 0.02 {
		t.Errorf("code shipping CVRF = %g, should be ≈0", code.Stats.CVRF())
	}
}

func TestClientWireProtocol(t *testing.T) {
	cl, _ := testCluster(t, ClusterConfig{})
	c, err := cl.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows, err := c.Query("SELECT time, band FROM Rasters ORDER BY time DESC, band LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Schema.Arity() != 2 {
		t.Fatalf("schema = %v", rows.Schema)
	}
	all, err := rows.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5 {
		t.Fatalf("rows = %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		prev, cur := all[i-1], all[i]
		if cur[0].(Int) > prev[0].(Int) {
			t.Fatal("ORDER BY time DESC violated")
		}
	}
	stats, err := rows.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ResultTuples != 5 || stats.TotalMS <= 0 {
		t.Errorf("stats = %+v", stats)
	}
	// Errors surface cleanly and the session stays usable.
	if _, err := c.Query("SELECT nope FROM Rasters"); err == nil {
		t.Error("bad query accepted")
	}
	rows2, err := c.Query("SELECT time FROM Rasters LIMIT 1")
	if err != nil {
		t.Fatalf("session broken after error: %v", err)
	}
	if _, err := rows2.All(); err != nil {
		t.Fatal(err)
	}
}

func TestCodeCacheAcrossQueries(t *testing.T) {
	cl, _ := testCluster(t, ClusterConfig{})
	sql := "SELECT time, AvgEnergy(image) FROM Rasters"
	first, err := cl.Execute(sql)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.CodeClassesShipped == 0 {
		t.Fatal("first query shipped no code")
	}
	second, err := cl.Execute(sql)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.CodeClassesShipped != 0 {
		t.Errorf("second query re-shipped %d classes", second.Stats.CodeClassesShipped)
	}
	if second.Stats.CacheHits == 0 {
		t.Error("second query recorded no cache hits")
	}
	hits, misses, err := cl.DAPCacheStats("site1")
	if err != nil || hits == 0 || misses == 0 {
		t.Errorf("cache stats hits=%d misses=%d err=%v", hits, misses, err)
	}
}

func TestCodeCacheDisabled(t *testing.T) {
	cl, _ := testCluster(t, ClusterConfig{DisableDAPCodeCache: true})
	sql := "SELECT time, AvgEnergy(image) FROM Rasters"
	if _, err := cl.Execute(sql); err != nil {
		t.Fatal(err)
	}
	second, err := cl.Execute(sql)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.CodeClassesShipped == 0 {
		t.Error("cache disabled but nothing re-shipped")
	}
}

// TestSelfExtensibility registers a brand-new operator at run time and
// uses it immediately — the paper's core promise: no manual installs, no
// restarts, the middleware ships the code itself.
func TestSelfExtensibility(t *testing.T) {
	cl, _ := testCluster(t, ClusterConfig{})
	// MaxEnergy: a new data-reducing raster operator the DAP has never
	// seen.
	def := &OperatorDef{
		Name: "MaxEnergy", URI: "mocha://ops/MaxEnergy#1.0",
		Args: []Kind{KindRaster}, Ret: KindDouble,
		ResultBytes: 8, CPUCostPerByte: 1,
		Native: func(args []Object) (Object, error) {
			r := args[0].(Raster)
			var m byte
			for _, p := range r.Pixels() {
				if p > m {
					m = p
				}
			}
			return Double(m), nil
		},
		Source: `
program MaxEnergy version 1.0
func eval args=1 locals=3
  pushi 0
  store 0
  pushi 8
  store 1
  arg 0
  blen
  store 2
loop:
  load 1
  load 2
  ge
  jnz done
  arg 0
  load 1
  ldu8
  load 0
  gt
  jz next
  arg 0
  load 1
  ldu8
  store 0
next:
  load 1
  pushi 1
  addi
  store 1
  jmp loop
done:
  load 0
  i2f
  ret
end`,
	}
	if err := cl.RegisterOperator(def); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Execute("SELECT time, MaxEnergy(image) FROM Rasters WHERE MaxEnergy(image) > 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("new operator returned nothing")
	}
	if res.Stats.CodeClassesShipped == 0 {
		t.Error("new operator was not shipped")
	}
	// Verify against direct computation over the store.
	store := cl.stores["site1"]
	tbl, _ := store.Table("Rasters")
	it, _ := tbl.Scan()
	wantMax := map[int32]float64{}
	for {
		tup, _, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tup == nil {
			break
		}
		r := tup[3].(types.Raster)
		var m byte
		for _, p := range r.Pixels() {
			if p > m {
				m = p
			}
		}
		key := int32(tup[0].(types.Int))
		if float64(m) > wantMax[key] {
			wantMax[key] = float64(m)
		}
	}
	for _, row := range res.Rows {
		got := float64(row[1].(Double))
		if got <= 0 || got > 255 {
			t.Fatalf("MaxEnergy out of range: %v", row)
		}
	}

	// Upgrade the operator (version 2 halves the result) and verify the
	// DAP picks up the new version via checksum mismatch.
	upgraded := *def
	upgraded.Source = strings.Replace(def.Source,
		"program MaxEnergy version 1.0", "program MaxEnergy version 2.0", 1)
	upgraded.Source = strings.Replace(upgraded.Source, "  load 0\n  i2f\n  ret",
		"  load 0\n  i2f\n  const half\n  mulf\n  ret", 1)
	upgraded.Source = strings.Replace(upgraded.Source, "program MaxEnergy version 2.0",
		"program MaxEnergy version 2.0\nconst half float 0.5", 1)
	upgraded.Native = func(args []Object) (Object, error) {
		r := args[0].(Raster)
		var m byte
		for _, p := range r.Pixels() {
			if p > m {
				m = p
			}
		}
		return Double(float64(m) / 2), nil
	}
	if err := cl.RegisterOperator(&upgraded); err != nil {
		t.Fatal(err)
	}
	res2, err := cl.Execute("SELECT time, MaxEnergy(image) FROM Rasters")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.CodeClassesShipped == 0 {
		t.Error("upgraded class was not re-shipped despite checksum change")
	}
	for i, row := range res2.Rows {
		if i < len(res.Rows) {
			// v2 results are half of v1 results for the same tuples.
			if math.Abs(float64(row[1].(Double))*2-float64(res.Rows[i][1].(Double))) > 1e-9 {
				t.Fatalf("upgrade not in effect: %v vs %v", row, res.Rows[i])
			}
		}
	}
}

func TestStrategyExplain(t *testing.T) {
	cl, _ := testCluster(t, ClusterConfig{})
	out, err := cl.Explain("SELECT time, AvgEnergy(image) FROM Rasters")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ship code: AvgEnergy") {
		t.Errorf("explain:\n%s", out)
	}
}

func TestErrorsPropagateFromDAP(t *testing.T) {
	cl, _ := testCluster(t, ClusterConfig{})
	// Register an operator whose shipped code traps at run time (bad
	// byte access) — the DAP must report the trap, not hang or crash.
	def := &OperatorDef{
		Name: "Trapping", URI: "mocha://ops/Trapping#1.0",
		Args: []Kind{KindRaster}, Ret: KindDouble,
		ResultBytes: 8, CPUCostPerByte: 1,
		Source: `
program Trapping version 1.0
func eval args=1 locals=0
  arg 0
  pushi -1
  ldu8
  i2f
  ret
end`,
	}
	if err := cl.RegisterOperator(def); err != nil {
		t.Fatal(err)
	}
	_, err := cl.Execute("SELECT Trapping(image) FROM Rasters")
	if err == nil || !strings.Contains(err.Error(), "trap") {
		t.Errorf("expected a VM trap error, got %v", err)
	}
	// The cluster still works afterwards.
	if _, err := cl.Execute("SELECT time FROM Rasters LIMIT 1"); err != nil {
		t.Fatalf("cluster broken after trap: %v", err)
	}
}

func TestComputeTableStats(t *testing.T) {
	store, _ := storage.OpenStore("", 16)
	cfg := sequoia.TestScale()
	if err := sequoia.GeneratePolygons(store, cfg); err != nil {
		t.Fatal(err)
	}
	tbl, _ := store.Table("Polygons")
	stats, err := ComputeTableStats(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RowCount != int64(cfg.PolygonRows) {
		t.Errorf("rows = %d", stats.RowCount)
	}
	if stats.AvgColBytes("polygon") < 8*cfg.PolygonMinVerts {
		t.Errorf("polygon avg bytes = %d", stats.AvgColBytes("polygon"))
	}
}
