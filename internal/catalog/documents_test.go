package catalog

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mocha/internal/ops"
	"mocha/internal/types"
)

// Regenerate with
//
//	go test ./internal/catalog -run TestCatalogDocumentGolden -update
var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestCatalogDocumentGolden pins the bytes of catalog.xml for a catalog
// with an unpartitioned table, a hash-placed and a range-placed table
// and a selectivity. The file was generated before table columns were
// stored as types.Column directly; loading it and saving the result must
// reproduce it, and a column of an unknown kind must be refused.
func TestCatalogDocumentGolden(t *testing.T) {
	c := testCatalog(t)
	c.AddSite(&Site{Name: "virginia", Addr: "dap://virginia"})
	schema := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "name", Kind: types.KindString},
		types.Column{Name: "shape", Kind: types.KindPolygon},
	)
	stats := TableStats{RowCount: 90, Columns: []ColumnStats{
		{Name: "id", AvgBytes: 4}, {Name: "name", AvgBytes: 12}, {Name: "shape", AvgBytes: 600},
	}}
	for _, td := range []*TableDef{
		{Name: "Parcels", URI: "mocha://tables/Parcels", Site: "maryland", Schema: schema, Stats: stats,
			Placement: &Placement{Key: "id", Kind: PlaceHash, Parts: []Partition{
				{Table: "Parcels__p0", Replicas: []string{"maryland", "virginia"}, Bucket: 0},
				{Table: "Parcels__p1", Replicas: []string{"virginia"}, Bucket: 1},
			}}},
		{Name: "Lots", URI: "mocha://tables/Lots", Site: "virginia", Schema: schema, Stats: stats,
			Placement: &Placement{Key: "id", Kind: PlaceRange, Parts: []Partition{
				{Table: "Lots__p0", Replicas: []string{"virginia"}, HasHi: true, Hi: 50},
				{Table: "Lots__p1", Replicas: []string{"maryland"}, HasLo: true, Lo: 50},
			}}},
	} {
		if err := c.AddTable(td); err != nil {
			t.Fatal(err)
		}
	}
	c.SetSelectivity("NumVertices", "Rasters", 0.25)
	saved := filepath.Join(t.TempDir(), "catalog.xml")
	if err := c.Save(saved); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "catalog.golden.xml")
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
		t.Errorf("catalog.xml moved:\n want %s\n got  %s", want, got)
	}

	reg := ops.Builtins()
	c2 := New(reg, NewRepositoryFromRegistry(reg))
	if err := c2.Load(golden); err != nil {
		t.Fatal(err)
	}
	resaved := filepath.Join(t.TempDir(), "catalog.xml")
	if err := c2.Save(resaved); err != nil {
		t.Fatal(err)
	}
	if again, _ := os.ReadFile(resaved); string(again) != string(want) {
		t.Errorf("loaded golden saves differently:\n%s", again)
	}

	bad := filepath.Join(t.TempDir(), "bad.xml")
	if err := os.WriteFile(bad, []byte(strings.Replace(string(want), `kind="POLYGON"`, `kind="HEXAGON"`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := New(reg, NewRepositoryFromRegistry(reg)).Load(bad); err == nil || !strings.Contains(err.Error(), "HEXAGON") {
		t.Errorf("unknown column kind: got %v, want an error naming it", err)
	}
}
