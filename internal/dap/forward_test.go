package dap

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mocha/internal/core"
	"mocha/internal/exec"
	"mocha/internal/storage"
	"mocha/internal/types"
	"mocha/internal/wire"
)

// treeDriver is an access driver with only the AccessDriver methods, so
// a DAP over it runs every fragment on the operator tree.
type treeDriver struct{ AccessDriver }

// discardConn is a transport that takes every write and keeps nothing.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }
func (discardConn) Close() error                     { return nil }

// TestForwardedScanAllocBudget: a forwarded Graphs record costs no
// allocation of its own — no decode, no boxes, no extraction tuple, no
// frame. What remains is per page (the fill's arena) and per stream, so
// amortized over 2000 records it stays under 0.05 allocations a record
// (0.034 measured). The same fragment on the operator tree spends 5 a
// record: the decoded string and the boxes of both values, the
// extraction tuple and the projected one.
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
		Projections: []core.Output{
			{Name: "name", Expr: core.NewCol(0, types.KindString)},
			{Name: "graph", Expr: core.NewCol(1, types.KindGraph)},
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
		if _, err := ex.forward(driver, cols, out, sink); err != nil {
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
	if per := testing.AllocsPerRun(5, run) / rows; per > 0.05 {
		t.Errorf("a forwarded Graphs record costs %.3f allocations, budget 0.05", per)
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
			driver := &StorageDriver{Store: store}
			for body, d := range map[string]AccessDriver{"forwarded": driver, "tree": treeDriver{driver}} {
				conn, _ := testDAP(t, Config{Driver: d})
				startFragment(t, conn, &core.Start{Fragment: rasterRows()}, nil)
				if got := streamError(t, conn); got != want.Error() {
					t.Errorf("%s stream failed with %q, Get with %q", body, got, want.Error())
				}
			}
		})
	}
}
