package dap

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Regenerate with
//
//	go test ./internal/dap -run TestXMLTableDocumentGolden -update
var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestXMLTableDocumentGolden pins the bytes of an XML-repository table
// document. The file was generated before its schema element was a
// types.Schema directly; the driver must read the golden back to the
// same rows and publish them as the same bytes, and a column of an
// unknown kind must be refused.
func TestXMLTableDocumentGolden(t *testing.T) {
	dir := t.TempDir()
	if err := WriteXMLTable(dir, "Stations", driverSchema, driverTuples()); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "Stations.xml"))
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "Stations.golden.xml")
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
		t.Errorf("Stations.xml moved:\n want %s\n got  %s", want, got)
	}

	repo := t.TempDir()
	if err := os.WriteFile(filepath.Join(repo, "Stations.xml"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	drv := &XMLDriver{Dir: repo}
	checkDriver(t, drv, "Stations")
	ft, err := drv.load("Stations")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	if err := WriteXMLTable(out, "Stations", ft.schema, ft.tuples); err != nil {
		t.Fatal(err)
	}
	if again, _ := os.ReadFile(filepath.Join(out, "Stations.xml")); string(again) != string(want) {
		t.Errorf("loaded golden publishes differently:\n%s", again)
	}

	if err := os.WriteFile(filepath.Join(repo, "Bad.xml"), []byte(strings.Replace(string(want), `kind="RASTER"`, `kind="BITMAP"`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := drv.TableSchema("Bad"); err == nil || !strings.Contains(err.Error(), "BITMAP") {
		t.Errorf("unknown column kind: got %v, want an error naming it", err)
	}
}
