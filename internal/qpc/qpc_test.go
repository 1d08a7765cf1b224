package qpc

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"mocha/internal/catalog"
	"mocha/internal/core"
	"mocha/internal/dap"
	"mocha/internal/netsim"
	"mocha/internal/ops"
	"mocha/internal/sequoia"
	"mocha/internal/storage"
	"mocha/internal/types"
)

// testQPC wires a QPC to one in-memory DAP with tiny Sequoia data.
func testQPC(t *testing.T, strategy core.Strategy) *Server {
	t.Helper()
	network := netsim.NewNetwork(nil)
	store, err := storage.OpenStore("", 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sequoia.TestScale()
	if err := sequoia.GenerateAll(store, cfg); err != nil {
		t.Fatal(err)
	}
	l, err := network.Listen("dap1")
	if err != nil {
		t.Fatal(err)
	}
	go dap.New(dap.Config{Site: "site1", Driver: &dap.StorageDriver{Store: store}}).Serve(l)
	t.Cleanup(func() { l.Close() })

	reg := ops.Builtins()
	cat := catalog.New(reg, catalog.NewRepositoryFromRegistry(reg))
	cat.AddSite(&catalog.Site{Name: "site1", Addr: "dap1"})
	registerStoreTables(t, cat, store, "site1", "Polygons", "Graphs", "Rasters")
	return New(Config{Cat: cat, Dial: network.Dial, Strategy: strategy})
}

// registerStoreTables scans each named table of the store and registers
// it in the catalog with measured statistics.
func registerStoreTables(t *testing.T, cat *catalog.Catalog, store *storage.Store, site string, names ...string) {
	t.Helper()
	for _, name := range names {
		tbl, _ := store.Table(name)
		stats := catalog.TableStats{}
		it, _ := tbl.Scan()
		sums := make([]int64, tbl.Schema().Arity())
		for {
			tup, _, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if tup == nil {
				break
			}
			stats.RowCount++
			for i, v := range tup {
				sums[i] += int64(v.WireSize())
			}
		}
		for i, c := range tbl.Schema().Columns {
			stats.Columns = append(stats.Columns, catalog.ColumnStats{
				Name: c.Name, AvgBytes: int(sums[i] / stats.RowCount),
			})
		}
		if err := cat.AddTable(&catalog.TableDef{
			Name: name, URI: "mocha://" + site + "/" + name, Site: site,
			Schema: tbl.Schema(), Stats: stats,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExecuteSimpleProjection(t *testing.T) {
	s := testQPC(t, core.StrategyAuto)
	res, err := s.Execute("SELECT time, band FROM Rasters")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	if res.Stats.CVDA == 0 || res.Stats.CVDT == 0 || res.Stats.TotalMS <= 0 {
		t.Errorf("stats incomplete: %+v", res.Stats)
	}
	if res.Stats.ResultTuples != int64(len(res.Rows)) {
		t.Errorf("ResultTuples = %d, rows = %d", res.Stats.ResultTuples, len(res.Rows))
	}
}

func TestExecuteArithmeticAndLimit(t *testing.T) {
	s := testQPC(t, core.StrategyAuto)
	res, err := s.Execute("SELECT time * 2 + band FROM Rasters WHERE band < 2 LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestExecuteOrderByDesc(t *testing.T) {
	s := testQPC(t, core.StrategyAuto)
	res, err := s.Execute("SELECT name FROM Graphs ORDER BY name DESC LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][0].(types.String_) < res.Rows[i][0].(types.String_) {
			t.Fatal("DESC order violated")
		}
	}
}

func TestPrepareErrors(t *testing.T) {
	s := testQPC(t, core.StrategyAuto)
	for _, sql := range []string{
		"not sql at all",
		"SELECT x FROM Rasters",
		"SELECT time FROM Missing",
	} {
		if _, err := s.Prepare(sql); err == nil {
			t.Errorf("Prepare(%q) should fail", sql)
		}
	}
}

func TestUnknownSiteDial(t *testing.T) {
	s := testQPC(t, core.StrategyAuto)
	// Sabotage the catalog: point the table at a dead site.
	s.cfg.Cat.AddSite(&catalog.Site{Name: "ghost", Addr: "nowhere"})
	s.cfg.Cat.AddTable(&catalog.TableDef{
		Name: "Ghostly", URI: "x", Site: "ghost",
		Schema: types.NewSchema(types.Column{Name: "a", Kind: types.KindInt}),
		Stats:  catalog.TableStats{RowCount: 1, Columns: []catalog.ColumnStats{{Name: "a", AvgBytes: 4}}},
	})
	_, err := s.Execute("SELECT a FROM Ghostly")
	if err == nil || !strings.Contains(err.Error(), "dial") {
		t.Errorf("expected dial error, got %v", err)
	}
}

func TestSortRows(t *testing.T) {
	rows := []types.Tuple{
		{types.Int(2), types.String_("b")},
		{types.Int(1), types.String_("c")},
		{types.Int(2), types.String_("a")},
	}
	if err := core.SortTuples(rows, []core.OrderSpec{{Col: 0}, {Col: 1, Desc: true}}); err != nil {
		t.Fatal(err)
	}
	want := "[(1, c) (2, b) (2, a)]"
	if got := fmt.Sprint(rows); got != want {
		t.Errorf("sorted = %v, want %v", got, want)
	}
	// Large objects are not orderable.
	bad := []types.Tuple{{types.NewRaster(1, 1, []byte{1})}, {types.NewRaster(1, 1, []byte{2})}}
	if err := core.SortTuples(bad, []core.OrderSpec{{Col: 0}}); err == nil {
		t.Error("sorting rasters should fail")
	}
}

func TestServeOverListener(t *testing.T) {
	s := testQPC(t, core.StrategyAuto)
	network := netsim.NewNetwork(nil)
	l, err := network.Listen("qpc")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer l.Close()

	nc, err := network.Dial("qpc")
	if err != nil {
		t.Fatal(err)
	}
	// Raw protocol drive: hello, query, read schema + batches + EOS.
	runRawClient(t, nc)
}

func runRawClient(t *testing.T, nc net.Conn) {
	t.Helper()
	conn := newTestConn(nc)
	defer conn.Close()
	conn.hello(t)
	rows, stats := conn.query(t, "SELECT time FROM Rasters LIMIT 4")
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if stats.ResultTuples != 4 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestVerifyClassVerb(t *testing.T) {
	s := testQPC(t, core.StrategyAuto)
	network := netsim.NewNetwork(nil)
	l, err := network.Listen("qpc")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer l.Close()

	nc, err := network.Dial("qpc")
	if err != nil {
		t.Fatal(err)
	}
	conn := newTestConn(nc)
	defer conn.Close()
	conn.hello(t)
	rows, _ := conn.query(t, "VERIFY Perimeter")
	var out strings.Builder
	for _, r := range rows {
		out.WriteString(fmt.Sprint(r[0]))
		out.WriteByte('\n')
	}
	const want = `class Perimeter version 1.0 checksum 86d2850928d24975 (299 bytes)
verdict: VERIFIED
host capabilities: sqrt
static bounds: stack=5 frames=1
static cost: instrs=unbounded fixed=29 per-trip=97
func eval: args=1 stack=5 frames=1 ret=float cost=unbounded
`
	if text := out.String(); text != want {
		t.Errorf("VERIFY Perimeter:\n%s\nwant:\n%s", text, want)
	}

	if _, err := s.VerifyClass("NoSuchOp"); err == nil {
		t.Error("VERIFY of unknown class should error")
	}
}

func TestProcCall(t *testing.T) {
	s := testQPC(t, core.StrategyAuto)
	lines, err := s.ProcCall("site1", "list-tables")
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, l := range lines {
		if strings.Contains(l, "Rasters") {
			found = true
		}
	}
	if !found {
		t.Errorf("list-tables = %v, want Rasters listed", lines)
	}
	if _, err := s.ProcCall("site1", "ping"); err != nil {
		t.Errorf("ping: %v", err)
	}
	if _, err := s.ProcCall("nosuch", "ping"); err == nil {
		t.Error("proc call to unknown site succeeded")
	}
}
