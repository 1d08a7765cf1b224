package dap

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"mocha/internal/core"
	"mocha/internal/storage"
	"mocha/internal/types"
)

var driverSchema = types.NewSchema(
	types.Column{Name: "id", Kind: types.KindInt},
	types.Column{Name: "name", Kind: types.KindString},
	types.Column{Name: "score", Kind: types.KindDouble},
	types.Column{Name: "region", Kind: types.KindRectangle},
	types.Column{Name: "tile", Kind: types.KindRaster},
)

func driverTuples() []types.Tuple {
	out := make([]types.Tuple, 5)
	for i := range out {
		px := make([]byte, 16)
		for j := range px {
			px[j] = byte(i*16 + j)
		}
		out[i] = types.Tuple{
			types.Int(int32(i)),
			types.String_("row-" + string(rune('a'+i))),
			types.Double(float64(i) * 1.5),
			types.Rectangle{XMin: float32(i), YMin: 0, XMax: float32(i + 1), YMax: 1},
			types.NewRaster(4, 4, px),
		}
	}
	return out
}

func checkDriver(t *testing.T, d AccessDriver, table string) {
	t.Helper()
	schema, err := d.TableSchema(table)
	if err != nil {
		t.Fatal(err)
	}
	if !schema.Equal(driverSchema) {
		t.Fatalf("schema = %v", schema)
	}
	want := driverTuples()
	var i int
	err = d.Scan(table, func(tup types.Tuple) error {
		if tup.String() != want[i].String() {
			t.Fatalf("row %d: %v != %v", i, tup, want[i])
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("scanned %d rows, want %d", i, len(want))
	}
}

func TestFileDriverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFileTable(dir, "Stations", driverSchema, driverTuples()); err != nil {
		t.Fatal(err)
	}
	d := &FileDriver{Dir: dir}
	checkDriver(t, d, "Stations")
	tables, err := d.Tables()
	if err != nil || len(tables) != 1 || tables[0] != "Stations" {
		t.Errorf("Tables() = %v, %v", tables, err)
	}
	if _, err := d.TableSchema("Missing"); err == nil {
		t.Error("missing table accepted")
	}
}

func TestFileDriverCorruption(t *testing.T) {
	dir := t.TempDir()
	cases := map[string][]byte{
		"BadMagic":  []byte("XXXX"),
		"Truncated": append([]byte(fileTableMagic), 0, 5),
		"Short":     {1},
	}
	for name, data := range cases {
		os.WriteFile(filepath.Join(dir, name+".mft"), data, 0o644)
		d := &FileDriver{Dir: dir}
		if _, err := d.TableSchema(name); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Trailing garbage.
	if err := WriteFileTable(dir, "Good", driverSchema, driverTuples()); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(filepath.Join(dir, "Good.mft"))
	os.WriteFile(filepath.Join(dir, "Trail.mft"), append(data, 0xFF), 0o644)
	d := &FileDriver{Dir: dir}
	if _, err := d.TableSchema("Trail"); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestXMLDriverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := WriteXMLTable(dir, "Stations", driverSchema, driverTuples()); err != nil {
		t.Fatal(err)
	}
	checkDriver(t, &XMLDriver{Dir: dir}, "Stations")
	if _, err := (&XMLDriver{Dir: dir}).TableSchema("Missing"); err == nil {
		t.Error("missing XML table accepted")
	}
}

func TestXMLDriverValidation(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		os.WriteFile(filepath.Join(dir, name+".xml"), []byte(body), 0o644)
	}
	write("NotXML", "garbage <")
	write("BadKind", `<table name="x"><schema><column name="a" kind="WEIRD"/></schema></table>`)
	write("BadArity", `<table name="x"><schema><column name="a" kind="INT"/></schema><row><v>1</v><v>2</v></row></table>`)
	write("BadValue", `<table name="x"><schema><column name="a" kind="INT"/></schema><row><v>zebra</v></row></table>`)
	write("BadBase64", `<table name="x"><schema><column name="a" kind="RASTER"/></schema><row><v>!!!</v></row></table>`)
	for _, name := range []string{"NotXML", "BadKind", "BadArity", "BadValue", "BadBase64"} {
		if _, err := (&XMLDriver{Dir: dir}).TableSchema(name); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestDAPOverFileDriver runs a fragment with shipped code against a
// flat-file data source — the paper's "sites without a query language
// still run shipped operators" scenario.
func TestDAPOverFileDriver(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFileTable(dir, "Stations", driverSchema, driverTuples()); err != nil {
		t.Fatal(err)
	}
	conn, _ := testDAP(t, Config{Driver: &FileDriver{Dir: dir}})
	frag, cls := avgEnergyFragment(t)
	frag.Table = "Stations"
	frag.Cols = []int{0, 4}
	frag.InSchema = types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "tile", Kind: types.KindRaster},
	)
	rows := deployAndRunN(t, conn, frag, cls, 5)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// AvgEnergy of tile i = mean(i*16 .. i*16+15) = i*16 + 7.5.
	for i, row := range rows {
		want := float64(i*16) + 7.5
		if float64(row[1].(types.Double)) != want {
			t.Errorf("row %d avg = %v, want %g", i, row[1], want)
		}
	}
}

// TestIndexRangeScan verifies the DAP uses a table index to satisfy a
// range predicate, reading only the matching tuples from the source.
func TestIndexRangeScan(t *testing.T) {
	store, err := storage.OpenStore("", 32)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := store.Create("Rasters", types.NewSchema(
		types.Column{Name: "time", Kind: types.KindInt},
		types.Column{Name: "image", Kind: types.KindRaster},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		px := make([]byte, 16)
		for j := range px {
			px[j] = byte(i)
		}
		if _, err := tbl.Insert(types.Tuple{types.Int(int32(i)), types.NewRaster(4, 4, px)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.CreateIndex("time"); err != nil {
		t.Fatal(err)
	}
	_, srv := testDAP(t, Config{Driver: &StorageDriver{Store: store}})
	col, ninety := core.NewCol(0, types.KindInt), core.NewConst(types.Int(90))
	// The predicate is ranked first, so the range scan covers it.
	for _, tc := range []struct {
		name string
		op   string
		args []*core.PExpr
	}{
		{"time >= 90", ">=", []*core.PExpr{col, ninety}},
		{"90 <= time", "<=", []*core.PExpr{ninety, col}}, // const op col
	} {
		frag, cls := avgEnergyFragment(t)
		frag.Predicates = []*core.PExpr{{Kind: core.ExprBinop, Op: tc.op, Ret: types.KindBool, Args: tc.args}}
		rows := deployAndRunN(t, connectDAP(t, srv), frag, cls, 10) // only 10 tuples read!
		if len(rows) != 10 {
			t.Fatalf("%s: rows = %d", tc.name, len(rows))
		}
		for i, row := range rows {
			if int32(row[0].(types.Int)) != int32(90+i) {
				t.Fatalf("%s: row %d = %v", tc.name, i, row)
			}
		}
	}
}

// TestPredicateRangeDetection covers the pattern matcher the range scan
// (and the planner's partition pruning) reads predicates by.
func TestPredicateRangeDetection(t *testing.T) {
	mk := func(op string, colLeft bool, c int32) *core.PExpr {
		col := core.NewCol(3, types.KindInt)
		con := core.NewConst(types.Int(c))
		args := []*core.PExpr{col, con}
		if !colLeft {
			args = []*core.PExpr{con, col}
		}
		return &core.PExpr{Kind: core.ExprBinop, Op: op, Ret: types.KindBool, Args: args}
	}
	cases := []struct {
		e      *core.PExpr
		lo, hi int64
		ok     bool
	}{
		{mk("<", true, 10), math.MinInt64, 9, true},
		{mk("<=", true, 10), math.MinInt64, 10, true},
		{mk(">", true, 10), 11, math.MaxInt64, true},
		{mk(">=", true, 10), 10, math.MaxInt64, true},
		{mk("=", true, 10), 10, 10, true},
		{mk("<", false, 10), 11, math.MaxInt64, true}, // 10 < col
		{mk("<>", true, 10), 0, 0, false},
	}
	for i, c := range cases {
		col, lo, hi, ok := core.ColumnRange(c.e)
		if ok != c.ok {
			t.Errorf("case %d: ok=%v", i, ok)
			continue
		}
		if !ok {
			continue
		}
		if col != 3 || lo != c.lo || hi != c.hi {
			t.Errorf("case %d: col=%d lo=%d hi=%d", i, col, lo, hi)
		}
	}
	// Double constants and non-column shapes don't match.
	dbl := &core.PExpr{Kind: core.ExprBinop, Op: "<", Ret: types.KindBool,
		Args: []*core.PExpr{core.NewCol(0, types.KindDouble), core.NewConst(types.Double(1))}}
	if _, _, _, ok := core.ColumnRange(dbl); ok {
		t.Error("double predicate matched")
	}
}
