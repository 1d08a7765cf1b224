package dap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mocha/internal/core"
	"mocha/internal/exec"
	"mocha/internal/obs"
	"mocha/internal/sequoia"
	"mocha/internal/storage"
	"mocha/internal/types"
	"mocha/internal/wire"
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
	got := scanTuples(t, d, table)
	for i := range got {
		if got[i].String() != want[i].String() {
			t.Fatalf("row %d: %v != %v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d rows, want %d", len(got), len(want))
	}
}

// scanTuples decodes every row of d's scan of table, each column from
// a window that must hold exactly its value.
func scanTuples(t *testing.T, d AccessDriver, table string) []types.Tuple {
	t.Helper()
	schema, err := d.TableSchema(table)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]int, schema.Arity())
	for i := range cols {
		cols[i] = i
	}
	var out []types.Tuple
	err = d.Scan(table, cols, func(enc [][]byte) error {
		tup := make(types.Tuple, len(enc))
		for i, b := range enc {
			v, n, err := types.DecodeValue(schema.Columns[i].Kind, b)
			if err != nil {
				return err
			}
			if n != len(b) {
				return fmt.Errorf("column %d: a %d-byte value in a %d-byte window", i, n, len(b))
			}
			tup[i] = v
		}
		out = append(out, tup)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
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

// TestFileTableRefusesUnbackedCount: a .mft file's tuple count is read
// off disk. A table of no column, or of NULL columns whose values take
// no bytes, could claim 2³²−1 rows with no byte behind them, and parsing
// looped over them all — growing the column offsets by one per NULL
// value — before a scan emitted them all. Such files are refused, and
// so is any count the bytes cannot back.
func TestFileTableRefusesUnbackedCount(t *testing.T) {
	head := func(kinds ...types.Kind) []byte {
		b := binary.BigEndian.AppendUint16([]byte(fileTableMagic), uint16(len(kinds)))
		for _, k := range kinds {
			b = append(binary.BigEndian.AppendUint16(b, 1), 'c', byte(k))
		}
		return b
	}
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"NoColumn":   binary.BigEndian.AppendUint32(head(), 0xffffffff),
		"NullColumn": binary.BigEndian.AppendUint32(head(types.KindNull), 0xffffffff),
		"NullAndInt": append(binary.BigEndian.AppendUint32(head(types.KindNull, types.KindInt), 0xffffffff), 0, 0, 0, 1),
		"Unbacked":   append(binary.BigEndian.AppendUint32(head(types.KindBool), 3), 1, 0),
	} {
		if err := os.WriteFile(filepath.Join(dir, name+".mft"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := (&FileDriver{Dir: dir}).TableSchema(name); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestFileSourceReadsOnlyItsDirectory: a table name arrives in a START,
// so a name that leaves the directory is refused, not read — the file
// source used to load "../outside" from the directory's parent.
func TestFileSourceReadsOnlyItsDirectory(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "repo")
	for _, write := range []func(string, string, types.Schema, []types.Tuple) error{WriteFileTable, WriteXMLTable} {
		if err := write(root, "outside", driverSchema, driverTuples()); err != nil {
			t.Fatal(err)
		}
		if err := write(dir, "inside", driverSchema, driverTuples()); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []AccessDriver{&FileDriver{Dir: dir}, &XMLDriver{Dir: dir}} {
		if _, err := d.TableSchema("inside"); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"../outside", filepath.Join(root, "outside"), "sub/../../outside"} {
			if _, err := d.TableSchema(name); err == nil {
				t.Errorf("%T read table %q from outside its directory", d, name)
			}
		}
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

// TestXMLDriverBoolCells: a BOOL cell reads true or false, space
// around it aside; any other text is refused like a bad INT cell, not
// read as false.
func TestXMLDriverBoolCells(t *testing.T) {
	doc := func(cells ...string) string {
		var b strings.Builder
		b.WriteString(`<table name="T"><schema><column name="b" kind="BOOL"/></schema>`)
		for _, c := range cells {
			b.WriteString("<row><v>" + c + "</v></row>")
		}
		return b.String() + "</table>"
	}
	read := func(body string) ([]types.Tuple, error) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "T.xml"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, rows, err := readFileTable(t, &XMLDriver{Dir: dir}, -1)
		return rows, err
	}
	rows, err := read(doc("true", " false\n"))
	if err != nil || fmt.Sprint(rows) != fmt.Sprint([]types.Tuple{{types.Bool(true)}, {types.Bool(false)}}) {
		t.Fatalf("true and false cells read %v, %v", rows, err)
	}
	for _, cell := range []string{"yes", "TRUE", "1"} {
		if rows, err := read(doc(cell)); err == nil {
			t.Errorf("BOOL cell %q accepted as %v", cell, rows)
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
	frag, rel := avgEnergyFragment(t)
	frag.Table = "Stations"
	frag.Cols = []int{0, 4}
	frag.InSchema = types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "tile", Kind: types.KindRaster},
	)
	rows := deployAndRunN(t, conn, frag, rel, 5)
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

// TestPredicateRangeDetection covers the pattern matcher the planner's
// partition pruning reads predicates by.
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

// readRaw drains a fragment stream as sent: its TUPLE_BATCH payloads
// and the report its EOS carried.
func readRaw(t *testing.T, conn *wire.Conn) ([][]byte, wire.ExecStats) {
	t.Helper()
	var frames [][]byte
	for {
		typ, payload, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		switch typ {
		case wire.MsgTupleBatch:
			frames = append(frames, bytes.Clone(payload))
		case wire.MsgEOS:
			var stats wire.ExecStats
			if err := stats.UnmarshalBinary(payload); err != nil {
				t.Fatal(err)
			}
			return frames, stats
		default:
			t.Fatalf("%v %q in the stream", typ, payload)
		}
	}
}

// TestDriverParity serves one Rasters table through the store, a flat
// file and an XML repository, whose scans are one scan: a forwarded
// fragment and a code-shipped one (a predicate and a call) give the same
// frames, byte for byte, and their scans the same rows and source bytes,
// whichever driver served them.
func TestDriverParity(t *testing.T) {
	cfg := sequoia.TestScale()
	cfg.RasterRows, cfg.RasterDim = 60, 32
	store, err := storage.OpenStore("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sequoia.GenerateRasters(store, cfg); err != nil {
		t.Fatal(err)
	}
	tbl, _ := store.Table("Rasters")
	schema := tbl.Schema()
	var rows []types.Tuple
	var energies []float64
	it, err := tbl.Scan()
	if err != nil {
		t.Fatal(err)
	}
	for {
		tup, _, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tup == nil {
			break
		}
		rows = append(rows, tup)
		energies = append(energies, tup[3].(types.Raster).AvgEnergy())
	}
	dir := t.TempDir()
	if err := WriteFileTable(dir, "Rasters", schema, rows); err != nil {
		t.Fatal(err)
	}
	if err := WriteXMLTable(dir, "Rasters", schema, rows); err != nil {
		t.Fatal(err)
	}

	forwarded := extraction("Rasters", schema, []int{3, 0, 2}, []int{1, 0, 2}, 0)
	if _, ok := exec.Forwarded(forwarded); !ok {
		t.Fatal("the extraction is not forwarded")
	}
	shipped, rel := avgEnergyFragment(t)
	shipped.Cols = []int{0, 3}
	slices.Sort(energies)
	shipped.Predicates = []*core.PExpr{{Kind: core.ExprBinop, Op: ">", Ret: types.KindBool, Args: []*core.PExpr{
		shipped.Projections[1].Expr, core.NewConst(types.Double(energies[len(energies)/2])),
	}}}
	for _, frag := range []*core.Fragment{forwarded, shipped} {
		var want [][]byte
		var wantScan obs.Span
		for i, d := range []AccessDriver{&StorageDriver{Store: store}, &FileDriver{Dir: dir}, &XMLDriver{Dir: dir}} {
			conn, _ := testDAP(t, Config{Driver: d, BatchBytes: 1 << 10})
			startFragment(t, conn, &core.Start{Fragment: frag}, nil, rel)
			frames, stats := readRaw(t, conn)
			var scan obs.Span
			for _, sp := range stats.Spans {
				if sp.Name == obs.OpScan {
					scan = sp
				}
			}
			if i == 0 {
				want, wantScan = frames, scan
				if len(frames) == 0 || scan.RowsIn != int64(len(rows)) || scan.DBBytes == 0 {
					t.Fatalf("%T: %d frames, scan read %d rows and %d B of %d rows", d, len(frames), scan.RowsIn, scan.DBBytes, len(rows))
				}
				continue
			}
			if !slices.EqualFunc(frames, want, bytes.Equal) {
				t.Errorf("%T sent %d frames that differ from the store's %d", d, len(frames), len(want))
			}
			if scan.RowsIn != wantScan.RowsIn || scan.DBBytes != wantScan.DBBytes {
				t.Errorf("%T: scan read %d rows, %d B; the store's %d, %d B", d, scan.RowsIn, scan.DBBytes, wantScan.RowsIn, wantScan.DBBytes)
			}
		}
	}
}
