package storage

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mocha/internal/types"
)

// Regenerate with
//
//	go test ./internal/storage -run TestStoreDocumentGolden -update
var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestStoreDocumentGolden pins the bytes of store.xml for a two-table
// store. The file was generated before table columns were stored as
// types.Column directly; a store opened over the golden must see the
// same schemas and write the same bytes back, and a column of an
// unknown kind must be refused.
func TestStoreDocumentGolden(t *testing.T) {
	graphs := types.NewSchema(
		types.Column{Name: "name", Kind: types.KindString},
		types.Column{Name: "graph", Kind: types.KindGraph},
		types.Column{Name: "ok", Kind: types.KindBool},
	)
	dir := t.TempDir()
	s, err := OpenStore(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []struct {
		name   string
		schema types.Schema
	}{{"Rasters", rasterSchema}, {"Graphs", graphs}} {
		if _, err := s.Create(tbl.name, tbl.schema); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "store.xml"))
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "store.golden.xml")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("store.xml moved:\n want %s\n got  %s", want, got)
	}

	// Reopen over the golden's bytes (the heap files stay from above),
	// then force a metadata rewrite by creating and dropping a table.
	if err := os.WriteFile(filepath.Join(dir, "store.xml"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	if tbl, ok := s2.Table("Graphs"); !ok || !tbl.Schema().Equal(graphs) {
		t.Errorf("Graphs schema lost across reopen")
	}
	if tbl, ok := s2.Table("Rasters"); !ok || !tbl.Schema().Equal(rasterSchema) {
		t.Errorf("Rasters schema lost across reopen")
	}
	if _, err := s2.Create("Scratch", graphs); err != nil {
		t.Fatal(err)
	}
	if err := s2.Drop("Scratch"); err != nil {
		t.Fatal(err)
	}
	if again, _ := os.ReadFile(filepath.Join(dir, "store.xml")); string(again) != string(want) {
		t.Errorf("reopened store rewrites store.xml differently:\n%s", again)
	}

	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	if err := os.WriteFile(filepath.Join(dir, "store.xml"), []byte(strings.Replace(string(want), `kind="GRAPH"`, `kind="TREE"`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, 16); err == nil || !strings.Contains(err.Error(), "TREE") {
		t.Errorf("unknown column kind: got %v, want an error naming it", err)
	}
}
