package dap

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mocha/internal/catalog"
	"mocha/internal/core"
	"mocha/internal/exec"
	"mocha/internal/obs"
	"mocha/internal/ops"
	"mocha/internal/sequoia"
	"mocha/internal/sqlparser"
	"mocha/internal/storage"
	"mocha/internal/types"
	"mocha/internal/wire"
)

// discardConn is a transport that takes every write and keeps nothing.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }
func (discardConn) Close() error                     { return nil }

// TestForwardedScanAllocBudget: a forwarded Graphs record costs no
// allocation of its own — no decode, no boxes, no extraction tuple, no
// frame — and neither does a page: the scan reads every page into one
// arena it reuses. What remains is per stream, so amortized over 2000
// records it stays under 0.02 allocations a record (0.013 measured;
// 0.034 when each fill cloned its page).
func TestForwardedScanAllocBudget(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "name", Kind: types.KindString},
		types.Column{Name: "graph", Kind: types.KindGraph},
	)
	store, err := storage.OpenStore("", 0)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := store.Create("Graphs", schema)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 2000
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < rows; i++ {
		verts := make([]types.Point, 3+rng.Intn(13))
		for j := range verts {
			verts[j] = types.Point{X: rng.Float32(), Y: rng.Float32()}
		}
		edges := make([]types.GraphEdge, len(verts)-1)
		for j := range edges {
			edges[j] = types.GraphEdge{A: int32(j), B: int32(j + 1)}
		}
		if _, err := tbl.Insert(types.Tuple{types.String_(fmt.Sprintf("basin-%06d", i)), types.NewGraph(verts, edges)}); err != nil {
			t.Fatal(err)
		}
	}
	frag := &core.Fragment{
		Site: "test", Table: "Graphs", Cols: []int{0, 1}, InSchema: schema, SemiJoinCol: -1,
		Chain: core.Chain{
			Projections: []core.Output{
				{Name: "name", Expr: core.NewCol(0, types.KindString)},
				{Name: "graph", Expr: core.NewCol(1, types.KindGraph)},
			},
		},
		OutSchema: schema,
	}
	cols, ok := exec.Forwarded(frag)
	if !ok {
		t.Fatal("an extraction-only fragment is not forwarded")
	}
	driver := &StorageDriver{Store: store}
	conn := wire.NewConn(discardConn{})
	defer conn.Close()
	ex := &execution{srv: New(Config{Site: "test", Driver: driver}), conn: conn, frag: frag}
	run := func() {
		sink := &timedSender{conn: conn}
		out := &stream{w: wire.NewBatchWriter(sink)}
		defer out.w.Release()
		if _, err := ex.forward(cols, out, sink); err != nil {
			t.Fatal(err)
		}
		if err := out.w.Flush(); err != nil {
			t.Fatal(err)
		}
		if out.w.Tuples != rows {
			t.Fatalf("forwarded %d records, want %d", out.w.Tuples, rows)
		}
	}
	run()
	per := testing.AllocsPerRun(5, run) / rows
	t.Logf("%.4f allocations a record", per)
	if per > 0.02 {
		t.Errorf("a forwarded Graphs record costs %.3f allocations, budget 0.02", per)
	}
}

// TestForwardedStreamRefusesBadRecords: a stored record whose raster
// header claims more pixels than the record holds, or fewer (which
// leaves trailing bytes), fails a forwarded stream with the error Get
// gives for it — the length rules are DecodeValue's, checked before a
// byte is forwarded — as it fails the operator tree's.
func TestForwardedStreamRefusesBadRecords(t *testing.T) {
	dir := t.TempDir()
	store, err := storage.OpenStore(dir, 16)
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
	px := []byte{0xA0, 0xA1, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xAB, 0xAC, 0xAD, 0xAE, 0xAF}
	rid, err := tbl.Insert(types.Tuple{types.Int(7), types.NewRaster(4, 4, px)})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "Rasters.heap")
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header := append([]byte{0, 0, 0, 4, 0, 0, 0, 4}, px[:4]...)
	at := bytes.Index(clean, header)
	if at < 0 {
		t.Fatal("the raster's header is not in the heap file")
	}
	for _, tc := range []struct {
		height byte
		says   string
	}{{5, "declares 4x5 pixels"}, {3, "4 trailing bytes"}} {
		t.Run(tc.says, func(t *testing.T) {
			bad := bytes.Clone(clean)
			bad[at+7] = tc.height
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			store, err := storage.OpenStore(dir, 16)
			if err != nil {
				t.Fatal(err)
			}
			tbl, _ := store.Table("Rasters")
			_, want := tbl.Get(rid)
			if want == nil || !strings.Contains(want.Error(), tc.says) {
				t.Fatalf("Get: %v, want it to say %q", want, tc.says)
			}
			conn, srv := testDAP(t, Config{Driver: &StorageDriver{Store: store}})
			startFragment(t, conn, &core.Start{Fragment: rasterRows()}, nil)
			if got := streamError(t, conn); got != want.Error() {
				t.Errorf("forwarded stream failed with %q, Get with %q", got, want.Error())
			}
			if _, err := runBody(t, srv, rasterRows(), true, 0); err == nil || err.Error() != want.Error() {
				t.Errorf("the tree failed with %v, Get with %q", err, want.Error())
			}
		})
	}
}

// recordConn is a transport that keeps what is written to it, and reads
// it back.
type recordConn struct {
	net.Conn
	bytes.Buffer
}

func (c *recordConn) Read(p []byte) (int, error)     { return c.Buffer.Read(p) }
func (c *recordConn) Write(p []byte) (int, error)    { return c.Buffer.Write(p) }
func (*recordConn) SetReadDeadline(time.Time) error  { return nil }
func (*recordConn) SetWriteDeadline(time.Time) error { return nil }
func (*recordConn) Close() error                     { return nil }

// bodyStream is what one of execute's bodies sent for a fragment.
type bodyStream struct {
	frames       [][]byte // the TUPLE_BATCH payloads, as sent
	tuples, data int64    // the writer's totals, which the flush span reports
	spans        []obs.Span
}

// span returns the body's span of the given name.
func (s bodyStream) span(name string) obs.Span {
	for _, sp := range s.spans {
		if sp.Name == name {
			return sp
		}
	}
	return obs.Span{}
}

// runBody runs frag over srv's driver in one of execute's bodies — on
// the operator tree when tree is set, else forwarded — through execute's
// batch writer at batchBytes, and returns what it sent, or the body's
// error.
func runBody(t testing.TB, srv *Server, frag *core.Fragment, tree bool, batchBytes int) (bodyStream, error) {
	t.Helper()
	rec := &recordConn{}
	conn := wire.NewConn(rec)
	defer conn.Close()
	schema, err := srv.cfg.Driver.TableSchema(frag.Table)
	if err != nil {
		t.Fatal(err)
	}
	ex := &execution{srv: srv, conn: conn, frag: frag, trace: obs.NewTrace("")}
	sink := &timedSender{conn: conn}
	out := &stream{w: wire.NewBatchWriter(sink)}
	defer out.w.Release()
	out.w.SetTarget(batchBytes)
	var spans func(int64) []obs.Span
	if cols, ok := exec.Forwarded(frag); ok && !tree {
		spans, err = ex.forward(cols, out, sink)
	} else {
		spans, err = ex.runTree(time.Now(), schema, out)
	}
	if err != nil {
		return bodyStream{}, err
	}
	if err := out.w.Flush(); err != nil {
		t.Fatal(err)
	}
	got := bodyStream{tuples: out.w.Tuples, data: out.w.DataBytes, spans: spans(0)}
	back := wire.NewConn(rec)
	defer back.Close()
	for {
		typ, payload, err := back.Recv()
		if errors.Is(err, io.EOF) {
			return got, nil
		}
		if err != nil || typ != wire.MsgTupleBatch {
			t.Fatalf("%v %v in the stream", typ, err)
		}
		got.frames = append(got.frames, bytes.Clone(payload))
	}
}

// extraction is a fragment of table that extracts cols and projects the
// extracted columns proj names, in that order: one that lowers to no
// operator.
func extraction(table string, schema types.Schema, cols, proj []int, limit int) *core.Fragment {
	f := &core.Fragment{Site: "test", Table: table, Cols: cols, SemiJoinCol: -1, Limit: limit}
	for _, c := range cols {
		f.InSchema.Columns = append(f.InSchema.Columns, schema.Columns[c])
	}
	for _, p := range proj {
		col := f.InSchema.Columns[p]
		f.Projections = append(f.Projections, core.Output{Name: col.Name, Expr: core.NewCol(p, col.Kind)})
		f.OutSchema.Columns = append(f.OutSchema.Columns, col)
	}
	return f
}

// keyPhase is the key phase of a semi-join over frag, as the QPC starts
// it: the same extraction projected onto one small column — the last,
// so the projection is not $0 when the extraction is wider.
func keyPhase(frag *core.Fragment) *core.Fragment {
	k := -1
	for i, c := range frag.InSchema.Columns {
		switch c.Kind {
		case types.KindPolygon, types.KindGraph, types.KindRaster, types.KindBytes:
		default:
			k = i
		}
	}
	if k < 0 {
		return nil
	}
	kind := frag.InSchema.Columns[k].Kind
	return &core.Fragment{
		Site: frag.Site, Table: frag.Table, Cols: frag.Cols, InSchema: frag.InSchema, SemiJoinCol: -1,
		Chain: core.Chain{
			Projections: []core.Output{{Name: "key", Expr: core.NewCol(k, kind)}},
		},
		OutSchema: types.NewSchema(types.Column{Name: "key", Kind: kind}),
	}
}

// TestForwardingMatchesTree runs fragments that lower to no operator
// through both of the DAP's bodies, forwarded and on the operator tree,
// at the default batch size and at 1 KiB: the TUPLE_BATCH payloads,
// byte for byte and frame for frame, the writer's counts and the scan's
// rows and source bytes must be the same. The fragments are, on every
// table of the Sequoia benchmark, every column, the last column alone,
// the columns extracted out of table order and projected back, one
// column projected twice, and every column under a pushed LIMIT under
// and over the table's size; and the fragments the optimizer plans for
// Q1–Q5 and two LIMIT queries under data shipping; each with the
// semi-join key-phase START over it. (A scan under a pushed LIMIT reads
// ahead on the tree, so its source counts are compared only without
// one.)
func TestForwardingMatchesTree(t *testing.T) {
	store, err := storage.OpenStore("", 0)
	if err != nil {
		t.Fatal(err)
	}
	scale := sequoia.TestScale()
	if err := sequoia.GenerateAll(store, scale); err != nil {
		t.Fatal(err)
	}
	if err := sequoia.GenerateJoinPair(store, store, scale); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Site: "test", Driver: &StorageDriver{Store: store}})
	var frags []*core.Fragment
	for _, table := range store.TableNames() {
		tbl, _ := store.Table(table)
		schema := tbl.Schema()
		all, reversed := make([]int, schema.Arity()), make([]int, schema.Arity())
		for i := range all {
			all[i], reversed[i] = i, schema.Arity()-1-i
		}
		last := []int{schema.Arity() - 1}
		frags = append(frags,
			extraction(table, schema, all, all, 0),
			extraction(table, schema, last, []int{0}, 0),
			extraction(table, schema, reversed, reversed, 0),
			extraction(table, schema, all[:1], []int{0, 0}, 0),
			extraction(table, schema, all, all, 3),
			extraction(table, schema, all, all, 100000),
		)
	}
	frags = append(frags, dataShipped(t, store, sequoia.Q1, sequoia.Q2(scale), sequoia.Q3, sequoia.Q4(8, 1),
		sequoia.Q5, `SELECT image, time FROM Rasters LIMIT 3`, `SELECT name, graph FROM Graphs LIMIT 100000`)...)
	checked := 0
	for _, frag := range frags {
		for phase, f := range []*core.Fragment{frag, keyPhase(frag)} {
			if f == nil {
				continue
			}
			for _, batch := range []int{0, 1 << 10} {
				name := fmt.Sprintf("%s cols %v limit %d phase %d batch %d", f.Table, f.Cols, f.Limit, phase, batch)
				fwd, err := runBody(t, srv, f, false, batch)
				if err != nil {
					t.Fatalf("%s: forwarded: %v", name, err)
				}
				tree, err := runBody(t, srv, f, true, batch)
				if err != nil {
					t.Fatalf("%s: tree: %v", name, err)
				}
				compareBodies(t, name, f, fwd, tree)
				checked++
			}
		}
	}
	t.Logf("%d fragment streams compared", checked)
}

// dataShipped plans each query under data shipping over the tables of
// store, all of them at site "test", and returns the plans' fragments
// that lower to no operator.
func dataShipped(t *testing.T, store *storage.Store, queries ...string) []*core.Fragment {
	t.Helper()
	reg := ops.Builtins()
	cat := catalog.New(reg, catalog.NewRepositoryFromRegistry(reg))
	cat.AddSite(&catalog.Site{Name: "test"})
	for _, table := range store.TableNames() {
		tbl, _ := store.Table(table)
		stats, err := catalog.ScanStats(tbl.Schema(), tbl.Records)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddTable(&catalog.TableDef{Name: table, Site: "test", Schema: tbl.Schema(), Stats: stats}); err != nil {
			t.Fatal(err)
		}
	}
	opt := core.NewOptimizer(cat)
	opt.Strategy = core.StrategyDataShip
	var out []*core.Fragment
	for _, sql := range queries {
		sel, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := core.Bind(sel, cat)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := opt.Plan(bound)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range plan.Fragments {
			if _, ok := exec.Forwarded(f); ok {
				out = append(out, f)
			}
		}
	}
	if len(out) < len(queries) {
		t.Fatalf("%d fragments of %d queries lower to no operator", len(out), len(queries))
	}
	return out
}

// compareBodies requires two bodies' streams of frag to be the same.
func compareBodies(t *testing.T, name string, frag *core.Fragment, fwd, tree bodyStream) {
	t.Helper()
	if len(fwd.frames) == 0 {
		t.Errorf("%s: no frame was sent", name)
	}
	if len(fwd.frames) != len(tree.frames) {
		t.Errorf("%s: forwarded in %d frames, the tree sent %d", name, len(fwd.frames), len(tree.frames))
	}
	for i := range min(len(fwd.frames), len(tree.frames)) {
		if !bytes.Equal(fwd.frames[i], tree.frames[i]) {
			t.Errorf("%s: frame %d differs: %d bytes forwarded, %d from the tree", name, i, len(fwd.frames[i]), len(tree.frames[i]))
		}
	}
	if fwd.data != tree.data || fwd.tuples != tree.tuples {
		t.Errorf("%s: %d B / %d tuples forwarded, %d B / %d on the tree", name, fwd.data, fwd.tuples, tree.data, tree.tuples)
	}
	fs, ts := fwd.span(obs.OpScan), tree.span(obs.OpScan)
	if frag.Limit <= 0 && (fs.DBBytes != ts.DBBytes || fs.RowsIn != ts.RowsIn) {
		t.Errorf("%s: scan read %d B / %d rows forwarded, %d B / %d on the tree", name, fs.DBBytes, fs.RowsIn, ts.DBBytes, ts.RowsIn)
	}
	if fwd.span(obs.OpProject).Name != "" {
		t.Errorf("%s: the forwarded stream reports an op:project", name)
	}
}

// TestTreeScanAllocBudget: the operator tree's scan decodes only the
// columns a fragment extracts, into a slab shared by the rows of a
// batch: their values, the image's pointer-shaped header, which boxes
// for free, and the columns' bytes, copied out of the scan's reused
// buffer into a 32 KiB block. On a Rasters fragment that extracts time
// and image but not band or location, a row costs the box of its time
// only once it is past the runtime's small-integer cache (0.36 a row
// here), and the project carves its output rows from one slab per
// batch: 0.42 measured, under a budget of 0.5. The image's box made it
// 1.42; a project that allocates a tuple per row spends one more.
func TestTreeScanAllocBudget(t *testing.T) {
	cfg := sequoia.TestScale()
	cfg.RasterRows, cfg.RasterDim = 2000, 4
	store, err := storage.OpenStore("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sequoia.GenerateRasters(store, cfg); err != nil {
		t.Fatal(err)
	}
	frag := extraction("Rasters", sequoia.RastersSchema(), []int{0, 3}, []int{0, 1}, 0)
	conn := wire.NewConn(discardConn{})
	defer conn.Close()
	ex := &execution{srv: New(Config{Site: "test", Driver: &StorageDriver{Store: store}}), conn: conn, frag: frag, trace: obs.NewTrace("")}
	run := func() {
		out := &stream{w: wire.NewBatchWriter(&timedSender{conn: conn})}
		defer out.w.Release()
		if _, err := ex.runTree(time.Now(), sequoia.RastersSchema(), out); err != nil {
			t.Fatal(err)
		}
		if err := out.w.Flush(); err != nil {
			t.Fatal(err)
		}
		if out.w.Tuples != int64(cfg.RasterRows) {
			t.Fatalf("the tree sent %d rows, want %d", out.w.Tuples, cfg.RasterRows)
		}
	}
	run()
	per := testing.AllocsPerRun(5, run) / float64(cfg.RasterRows)
	t.Logf("%.3f allocations a row", per)
	if per > 0.5 {
		t.Errorf("a Rasters row on the tree costs %.3f allocations, budget 0.5", per)
	}
}

// TestPoisonedScanMatchesFreshScan: the store's scan reads every record
// into one arena and one overflow buffer it reuses, so a record's bytes
// live only until the next one. With every record overwritten with 0xee
// once the next is asked for (storage.PoisonScans), the forwarded
// frames, the tree's frames — whose rows the scan goroutine decoded
// batches ahead of the emit — and the tuples a TableIterator keeps are
// byte-identical to a fresh scan's: no reader keeps a window past its
// record. The table's pages mix inline records with overflow chains.
func TestPoisonedScanMatchesFreshScan(t *testing.T) {
	store, err := storage.OpenStore("", 0)
	if err != nil {
		t.Fatal(err)
	}
	schema := sequoia.RastersSchema()
	tbl, err := store.Create("Rasters", schema)
	if err != nil {
		t.Fatal(err)
	}
	overflow := 0
	for i := 0; i < 150; i++ {
		dim := 24 // a 608-byte record, inline
		if i%3 == 2 {
			dim, overflow = 72, overflow+1 // 5,216 bytes: an overflow chain
		}
		px := make([]byte, dim*dim)
		for j := range px {
			px[j] = byte(i*7 + j)
		}
		rect := types.Rectangle{XMin: float32(i), YMin: 0, XMax: float32(i + 1), YMax: 1}
		if _, err := tbl.Insert(types.Tuple{types.Int(int32(i)), types.Int(int32(i % 5)), rect, types.NewRaster(dim, dim, px)}); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(Config{Site: "test", Driver: &StorageDriver{Store: store}})
	all := []int{0, 1, 2, 3}
	frags := []*core.Fragment{
		extraction("Rasters", schema, all, all, 0),
		extraction("Rasters", schema, []int{3, 0}, []int{1, 0}, 0),
	}
	keep := func() []types.Tuple {
		it, err := tbl.Scan()
		if err != nil {
			t.Fatal(err)
		}
		var out []types.Tuple
		for {
			tup, _, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if tup == nil {
				return out
			}
			out = append(out, tup)
		}
	}
	type run struct {
		bodies []bodyStream
		kept   []types.Tuple
	}
	scan := func() run {
		var r run
		for _, frag := range frags {
			for _, tree := range []bool{false, true} {
				for _, batch := range []int{0, 1 << 10} {
					b, err := runBody(t, srv, frag, tree, batch)
					if err != nil {
						t.Fatal(err)
					}
					r.bodies = append(r.bodies, b)
				}
			}
		}
		r.kept = keep()
		return r
	}
	fresh := scan()
	restore := storage.PoisonScans()
	poisoned := scan()
	restore()

	if overflow == 0 || len(fresh.kept) != 150 {
		t.Fatalf("scanned %d tuples, %d with overflow chains", len(fresh.kept), overflow)
	}
	for i := range fresh.bodies {
		f, p := fresh.bodies[i], poisoned.bodies[i]
		if len(f.frames) != len(p.frames) {
			t.Fatalf("stream %d: %d frames poisoned, %d fresh", i, len(p.frames), len(f.frames))
		}
		for j := range f.frames {
			if !bytes.Equal(f.frames[j], p.frames[j]) {
				t.Errorf("stream %d frame %d: a poisoned scan sent other bytes", i, j)
			}
		}
	}
	for i := range fresh.kept {
		if !bytes.Equal(fresh.kept[i].AppendTo(nil), poisoned.kept[i].AppendTo(nil)) {
			t.Errorf("kept tuple %d of a poisoned scan reads %v", i, poisoned.kept[i])
		}
	}
}
