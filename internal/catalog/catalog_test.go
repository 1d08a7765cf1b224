package catalog

import (
	"path/filepath"
	"strings"
	"testing"

	"mocha/internal/ops"
	"mocha/internal/types"
	"mocha/internal/vm"
)

func testCatalog(t *testing.T) *Catalog {
	t.Helper()
	reg := ops.Builtins()
	c := New(reg, NewRepositoryFromRegistry(reg))
	c.AddSite(&Site{Name: "maryland", Addr: "dap://maryland"})
	err := c.AddTable(&TableDef{
		Name: "Rasters", URI: "mocha://tables/Rasters", Site: "maryland",
		Schema: types.NewSchema(
			types.Column{Name: "time", Kind: types.KindInt},
			types.Column{Name: "band", Kind: types.KindInt},
			types.Column{Name: "location", Kind: types.KindRectangle},
			types.Column{Name: "image", Kind: types.KindRaster},
		),
		Stats: TableStats{RowCount: 200, Columns: []ColumnStats{
			{Name: "time", AvgBytes: 4}, {Name: "band", AvgBytes: 4},
			{Name: "location", AvgBytes: 16}, {Name: "image", AvgBytes: 1 << 20},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCatalogLookups(t *testing.T) {
	c := testCatalog(t)
	tbl, ok := c.Table("rasters") // case-insensitive
	if !ok || tbl.Name != "Rasters" {
		t.Fatal("table lookup failed")
	}
	if tbl.Stats.AvgTupleBytes() != 4+4+16+(1<<20) {
		t.Errorf("avg tuple bytes = %d", tbl.Stats.AvgTupleBytes())
	}
	if tbl.Stats.AvgColBytes("IMAGE") != 1<<20 || tbl.Stats.AvgColBytes("nope") != 0 {
		t.Error("column stats lookup broken")
	}
	if _, ok := c.Table("Missing"); ok {
		t.Error("phantom table")
	}
	if _, ok := c.SiteByName("maryland"); !ok {
		t.Error("site lookup failed")
	}
	if names := c.TableNames(); len(names) != 1 || names[0] != "Rasters" {
		t.Errorf("names = %v", names)
	}
}

func TestCatalogValidation(t *testing.T) {
	c := testCatalog(t)
	dup := &TableDef{Name: "RASTERS", Site: "maryland"}
	if err := c.AddTable(dup); err == nil {
		t.Error("duplicate table accepted")
	}
	orphan := &TableDef{Name: "Other", Site: "nowhere"}
	if err := c.AddTable(orphan); err == nil {
		t.Error("table with unknown site accepted")
	}
}

func TestSelectivity(t *testing.T) {
	c := testCatalog(t)
	if sf := c.Selectivity("NumVertices", "Graphs"); sf != DefaultSelectivity {
		t.Errorf("default sf = %g", sf)
	}
	c.SetSelectivity("NumVertices", "Graphs", 0.5)
	if sf := c.Selectivity("numvertices", "GRAPHS"); sf != 0.5 {
		t.Errorf("sf = %g", sf)
	}
}

func TestCatalogSaveLoad(t *testing.T) {
	c := testCatalog(t)
	c.SetSelectivity("NumVertices", "Rasters", 0.25)
	path := filepath.Join(t.TempDir(), "catalog.xml")
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	reg := ops.Builtins()
	c2 := New(reg, NewRepositoryFromRegistry(reg))
	if err := c2.Load(path); err != nil {
		t.Fatal(err)
	}
	tbl, ok := c2.Table("Rasters")
	if !ok {
		t.Fatal("table lost across save/load")
	}
	if tbl.Site != "maryland" || tbl.Schema.Arity() != 4 || tbl.Stats.RowCount != 200 {
		t.Errorf("table damaged: %+v", tbl)
	}
	if tbl.Schema.Columns[3].Kind != types.KindRaster {
		t.Error("column kind lost")
	}
	if sf := c2.Selectivity("NumVertices", "Rasters"); sf != 0.25 {
		t.Errorf("selectivity lost: %g", sf)
	}
	if _, ok := c2.SiteByName("maryland"); !ok {
		t.Error("site lost")
	}
}

func TestRepository(t *testing.T) {
	reg := ops.Builtins()
	repo := NewRepositoryFromRegistry(reg)
	rel, ok := repo.ActiveRelease("AvgEnergy")
	if !ok {
		t.Fatal("AvgEnergy not in repository")
	}
	p, err := vm.Decode(rel.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "AvgEnergy" || p.Checksum() != rel.Digest {
		t.Error("blob does not match class metadata")
	}
	if len(repo.Names()) < 13 {
		t.Errorf("repository has %d classes", len(repo.Names()))
	}
	// Upgrade replaces.
	p2 := vm.MustAssemble("program AvgEnergy version 2.0\nfunc eval args=1 locals=0\narg 0\nret\nend")
	if _, err := repo.PutProgram(p2); err != nil {
		t.Fatal(err)
	}
	rel2, _ := repo.ActiveRelease("avgenergy")
	if rel2.Tag != "2.0" {
		t.Error("upgrade did not replace class")
	}
}

func TestRepositorySaveLoadDir(t *testing.T) {
	reg := ops.Builtins()
	repo := NewRepositoryFromRegistry(reg)
	dir := t.TempDir()
	if err := repo.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	repo2 := NewRepository()
	if err := repo2.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	if len(repo2.Names()) != len(repo.Names()) {
		t.Errorf("loaded %d classes, want %d", len(repo2.Names()), len(repo.Names()))
	}
	a, _ := repo.ActiveRelease("Clip")
	b, _ := repo2.ActiveRelease("Clip")
	if a.Digest != b.Digest {
		t.Error("checksums differ after disk round trip")
	}
}

func TestRDFDocuments(t *testing.T) {
	c := testCatalog(t)
	d, _ := c.Ops().Lookup("AvgEnergy")
	data, err := OperatorRDF(d)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{"mocha://ops/AvgEnergy#1.0", "operator", "AvgEnergy", "(RASTER) -&gt; DOUBLE"} {
		if !strings.Contains(text, want) {
			t.Errorf("operator RDF missing %q:\n%s", want, text)
		}
	}
	doc, err := ParseRDF(data)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Description.About != d.URI || doc.Description.Name != "AvgEnergy" {
		t.Errorf("parsed RDF = %+v", doc.Description)
	}

	tbl, _ := c.Table("Rasters")
	data, err = TableRDF(tbl)
	if err != nil {
		t.Fatal(err)
	}
	doc, err = ParseRDF(data)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Description.Kind != "table" || doc.Description.RowCount != 200 {
		t.Errorf("table RDF = %+v", doc.Description)
	}
	if len(doc.Description.Properties) != 4 {
		t.Errorf("column properties = %v", doc.Description.Properties)
	}
	if _, err := ParseRDF([]byte("not xml")); err == nil {
		t.Error("garbage RDF accepted")
	}
}
