package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mocha/internal/types"
)

var rasterSchema = types.NewSchema(
	types.Column{Name: "time", Kind: types.KindInt},
	types.Column{Name: "band", Kind: types.KindInt},
	types.Column{Name: "location", Kind: types.KindRectangle},
	types.Column{Name: "image", Kind: types.KindRaster},
)

func rasterTuple(i int, dim int) types.Tuple {
	px := make([]byte, dim*dim)
	for j := range px {
		px[j] = byte(i * j)
	}
	return types.Tuple{
		types.Int(int32(i)),
		types.Int(int32(i % 5)),
		types.Rectangle{XMin: float32(i), YMin: 0, XMax: float32(i + 1), YMax: 1},
		types.NewRaster(dim, dim, px),
	}
}

func TestTableInsertScan(t *testing.T) {
	s, err := OpenStore("", 64)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := s.Create("Rasters", rasterSchema)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(rasterTuple(i, 64)); err != nil { // 4 KB rasters → overflow path
			t.Fatal(err)
		}
	}
	it, err := tbl.Scan()
	if err != nil {
		t.Fatal(err)
	}
	var count int
	for {
		tup, _, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tup == nil {
			break
		}
		if int(tup[0].(types.Int)) != count {
			t.Fatalf("tuple %d out of order: %v", count, tup[0])
		}
		r := tup[3].(types.Raster)
		if r.Width() != 64 || r.At(3, 3) != byte(count*(3*64+3)) {
			t.Fatalf("tuple %d raster corrupted", count)
		}
		count++
	}
	if count != n {
		t.Errorf("scanned %d, want %d", count, n)
	}
	if it.BytesRead == 0 {
		t.Error("BytesRead not accounted")
	}
}

func TestTableTypeChecking(t *testing.T) {
	s, _ := OpenStore("", 16)
	tbl, _ := s.Create("T", types.NewSchema(types.Column{Name: "a", Kind: types.KindInt}))
	if _, err := tbl.Insert(types.Tuple{types.Double(1)}); err == nil {
		t.Error("kind mismatch accepted")
	}
	if _, err := tbl.Insert(types.Tuple{types.Int(1), types.Int(2)}); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestTableGetDelete(t *testing.T) {
	s, _ := OpenStore("", 16)
	tbl, _ := s.Create("T", rasterSchema)
	rid, err := tbl.Insert(rasterTuple(7, 16))
	if err != nil {
		t.Fatal(err)
	}
	tup, err := tbl.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	if int(tup[0].(types.Int)) != 7 {
		t.Errorf("got %v", tup)
	}
	markTombstone(t, tbl.heap, rid)
	if _, err := tbl.Get(rid); err == nil {
		t.Error("deleted tuple readable")
	}
}

func TestStorePersistence(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := s.Create("Rasters", rasterSchema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := tbl.Insert(rasterTuple(i, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tbl2, ok := s2.Table("Rasters")
	if !ok {
		t.Fatal("table lost across reopen")
	}
	if !tbl2.Schema().Equal(rasterSchema) {
		t.Errorf("schema lost: %v", tbl2.Schema())
	}
	n, err := tbl2.Count()
	if err != nil || n != 5 {
		t.Fatalf("count = %d err=%v", n, err)
	}
	it, _ := tbl2.Scan()
	tup, _, err := it.Next()
	if err != nil || tup == nil {
		t.Fatalf("scan after reopen: %v %v", tup, err)
	}
	if tup[3].(types.Raster).Width() != 32 {
		t.Error("raster corrupted across reopen")
	}
}

func TestStoreCreateErrors(t *testing.T) {
	s, _ := OpenStore("", 16)
	if _, err := s.Create("A", rasterSchema); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("A", rasterSchema); err == nil {
		t.Error("duplicate create accepted")
	}
	// A heap file the metadata does not name is not overwritten.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "B.heap"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenStore(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Create("B", rasterSchema); err == nil {
		t.Error("create over an existing heap file accepted")
	}
}

func TestStoreTableNames(t *testing.T) {
	s, _ := OpenStore("", 16)
	s.Create("B", rasterSchema)
	s.Create("A", rasterSchema)
	names := s.TableNames()
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Errorf("names = %v", names)
	}
}

// TestOpenStoreCreatesNoFile: store.xml is read off disk, so a table it
// names outside the store's directory, a table whose heap file is
// missing and a table named twice are refused, and the refused open
// leaves no file behind: opening used to create an empty heap file for
// any name, wherever it pointed.
func TestOpenStoreCreatesNoFile(t *testing.T) {
	for _, meta := range []string{
		`<store><table name="../outside"><column name="a" kind="INT"/></table></store>`,
		`<store><table name="missing"><column name="a" kind="INT"/></table></store>`,
		`<store><table name=""><column name="a" kind="INT"/></table></store>`,
		`<store><table name="T"><column name="a" kind="INT"/></table><table name="T"><column name="a" kind="INT"/></table></store>`,
	} {
		root := t.TempDir()
		dir := filepath.Join(root, "store")
		s, err := OpenStore(dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Create("T", types.NewSchema(types.Column{Name: "a", Kind: types.KindInt})); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "store.xml"), []byte(meta), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenStore(dir, 4); err == nil {
			t.Errorf("%s: opened", meta)
		}
		var files []string
		filepath.WalkDir(root, func(path string, _ os.DirEntry, _ error) error {
			files = append(files, path[len(root):])
			return nil
		})
		if want := []string{"", "/store", "/store/T.heap", "/store/store.xml"}; fmt.Sprint(files) != fmt.Sprint(want) {
			t.Errorf("%s: left %q", meta, files)
		}
	}
	if _, err := (&Store{tables: map[string]*Table{}}).Create("../T", types.Schema{}); err == nil {
		t.Error("Create made a table its store could not reopen")
	}
}

// TestStoreCloseClosesFiles: Close closes every table's heap file, so a
// process that opens and closes a store keeps no descriptor of it — and
// a refused open closes the files it had opened.
func TestStoreCloseClosesFiles(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd to count descriptors in")
		}
		return len(ents)
	}
	dir := t.TempDir()
	s, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"A", "B"} {
		if _, err := s.Create(name, types.NewSchema(types.Column{Name: "a", Kind: types.KindInt})); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before := fds()
	for i := 0; i < 5; i++ {
		s, err := OpenStore(dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := os.ReadFile(filepath.Join(dir, "store.xml"))
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(meta), "</store>", `<table name="C"></table></store>`, 1)
	if err := os.WriteFile(filepath.Join(dir, "store.xml"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := OpenStore(dir, 4); err == nil {
			t.Fatal("a table with no heap file opened")
		}
	}
	if after := fds(); after != before {
		t.Errorf("%d descriptors open after opening and closing the store, %d before", after, before)
	}
}
