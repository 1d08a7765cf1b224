package storage

import (
	"testing"

	"mocha/internal/types"
)

func indexedTable(t *testing.T) (*Table, *Index) {
	t.Helper()
	s, _ := OpenStore("", 64)
	tbl, err := s.Create("T", types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "payload", Kind: types.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	// Pre-index rows, then create index (backfill), then more rows
	// (live maintenance).
	for i := 0; i < 50; i++ {
		if _, err := tbl.Insert(types.Tuple{types.Int(int32(i)), types.String_("pre")}); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := tbl.CreateIndex("k")
	if err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 100; i++ {
		if _, err := tbl.Insert(types.Tuple{types.Int(int32(i)), types.String_("post")}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl, ix
}

func TestIndexBackfillAndMaintenance(t *testing.T) {
	tbl, ix := indexedTable(t)
	var got []int32
	err := tbl.IndexScan(ix, 45, 55, []int{0, 1}, func(enc [][]byte, _ RID) error {
		k, _, err := types.DecodeValue(types.KindInt, enc[0])
		got = append(got, int32(k.(types.Int)))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 11 || got[0] != 45 || got[10] != 55 {
		t.Fatalf("range [45,55] = %v", got)
	}
}

func TestIndexDeleteMaintenance(t *testing.T) {
	tbl, ix := indexedTable(t)
	// Delete k=50 via its RID (found by index).
	var target RID
	tbl.IndexScan(ix, 50, 50, nil, func(_ [][]byte, rid RID) error {
		target = rid
		return nil
	})
	if err := tbl.Delete(target); err != nil {
		t.Fatal(err)
	}
	var count int
	tbl.IndexScan(ix, 50, 50, nil, func([][]byte, RID) error {
		count++
		return nil
	})
	if count != 0 {
		t.Errorf("deleted key still indexed %d times", count)
	}
	// Neighbors intact.
	count = 0
	tbl.IndexScan(ix, 49, 51, nil, func([][]byte, RID) error {
		count++
		return nil
	})
	if count != 2 {
		t.Errorf("neighbors = %d, want 2", count)
	}
}

func TestCreateIndexValidation(t *testing.T) {
	s, _ := OpenStore("", 16)
	tbl, _ := s.Create("T", types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "s", Kind: types.KindString},
	))
	if _, err := tbl.CreateIndex("missing"); err == nil {
		t.Error("index on missing column accepted")
	}
	if _, err := tbl.CreateIndex("s"); err == nil {
		t.Error("index on STRING column accepted")
	}
	if _, err := tbl.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateIndex("k"); err == nil {
		t.Error("duplicate index accepted")
	}
	if _, ok := tbl.IndexOn(0); !ok {
		t.Error("IndexOn(0) not found")
	}
	if _, ok := tbl.IndexOn(1); ok {
		t.Error("IndexOn(1) invented an index")
	}
}
