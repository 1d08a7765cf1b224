package storage

import (
	"os"
	"path/filepath"
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
