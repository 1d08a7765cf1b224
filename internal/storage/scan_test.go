package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"mocha/internal/types"
)

// scanAll drains a table scan, keeping every tuple and its RID.
func scanAll(t *testing.T, tbl *Table) ([]types.Tuple, []RID) {
	t.Helper()
	it, err := tbl.Scan()
	if err != nil {
		t.Fatal(err)
	}
	var tups []types.Tuple
	var rids []RID
	for {
		tup, rid, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tup == nil {
			return tups, rids
		}
		tups, rids = append(tups, tup), append(rids, rid)
	}
}

// A scanned tuple shares its page's arena and value slab, never a
// buffer-pool frame: through a 2-frame pool, every tuple kept across
// evictions, later inserts and a second scan still reads as Get reads
// its RID.
func TestScannedTuplesOutliveTheirPage(t *testing.T) {
	disk := NewMemDisk()
	build := NewBufferPool(disk, 64)
	h, err := CreateHeapFile(build)
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable("Mixed", rasterSchema, h, build)
	var overflow int
	for i := 0; i < 120; i++ {
		dim := 24 // 608-byte records, inline
		if i%3 == 2 {
			dim, overflow = 72, overflow+1 // 5,216 bytes: an overflow chain
		}
		if _, err := tbl.Insert(rasterTuple(i, dim)); err != nil {
			t.Fatal(err)
		}
	}
	// Start a fresh last page, so the inserts below fit without a third
	// frame.
	last, _ := tbl.Insert(rasterTuple(120, 2))
	for i := 121; ; i++ {
		rid, err := tbl.Insert(rasterTuple(i, 2))
		if err != nil {
			t.Fatal(err)
		}
		if rid.Page != last.Page {
			break
		}
	}
	if err := build.FlushAll(); err != nil {
		t.Fatal(err)
	}

	pool := NewBufferPool(disk, 2)
	h, err = OpenHeapFile(pool)
	if err != nil {
		t.Fatal(err)
	}
	tbl = NewTable("Mixed", rasterSchema, h, pool)
	kept, rids := scanAll(t, tbl)
	if len(kept) < 120 || overflow == 0 {
		t.Fatalf("scanned %d tuples, %d with overflow chains", len(kept), overflow)
	}
	if pool.Evictions == 0 {
		t.Fatal("the scan evicted nothing")
	}
	for i := 0; i < 20; i++ {
		if _, err := tbl.Insert(rasterTuple(1000+i, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if again, _ := scanAll(t, tbl); len(again) != len(kept)+20 {
		t.Fatalf("second scan: %d tuples, want %d", len(again), len(kept)+20)
	}
	for i, tup := range kept {
		got, err := tbl.Get(rids[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tup.AppendTo(nil), got.AppendTo(nil)) {
			t.Fatalf("tuple %d at %v changed after its page was evicted", i, rids[i])
		}
	}
}

// TestScanAllocBudget bounds allocations per Graphs-shaped record. A
// record costs the name's string and its box; the graph is pointer-
// shaped, its header carved from the fill's slab and its bytes from a
// 32 KiB block, and the scan reuses one arena for every page: 2.056
// measured, under a budget of 2.1 (the page arena per fill and the
// graph's box made it 3.05). The budget leaves no room for a buffer, an
// LRU element, a box or a []Object per record.
func TestScanAllocBudget(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "name", Kind: types.KindString},
		types.Column{Name: "graph", Kind: types.KindGraph},
	)
	s, err := OpenStore("", 0)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := s.Create("Graphs", schema)
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
		tup := types.Tuple{types.String_(fmt.Sprintf("basin-%06d", i)), types.NewGraph(verts, edges)}
		if _, err := tbl.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	var n int
	allocs := testing.AllocsPerRun(5, func() {
		it, err := tbl.Scan()
		if err != nil {
			t.Fatal(err)
		}
		for n = 0; ; n++ {
			tup, _, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if tup == nil {
				break
			}
		}
	})
	if n != rows {
		t.Fatalf("scanned %d rows, want %d", n, rows)
	}
	const budget = 2.1
	per := allocs / rows
	t.Logf("%.3f allocations a record", per)
	if per > budget {
		t.Errorf("%.2f allocations per record, budget %.2f", per, budget)
	}
}

// stampRecord is record id: its id, then a body whose length and bytes
// follow from the id. Every third record takes an overflow chain.
func stampRecord(id uint64) []byte {
	size := 20 + int(id%40)*7
	if id%3 == 0 {
		size = inlineThreshold + 1 + int(id%5)*3000
	}
	rec := binary.BigEndian.AppendUint64(make([]byte, 0, 8+size), id)
	for i := 0; i < size; i++ {
		rec = append(rec, byte(id)+byte(i))
	}
	return rec
}

// A scan racing inserts returns every record stored before it began,
// once, and never a torn one — the inserts fill pages and overflow
// chains while the scan runs.
func TestScanRacesInserts(t *testing.T) {
	h := newHeap(t, 8)
	const n = 300
	for id := uint64(0); id < n; id++ {
		if _, err := h.Insert(stampRecord(id)); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for id := uint64(n); id < 2*n; id++ {
			if _, err := h.Insert(stampRecord(id)); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	defer func() { <-done }()
	// Scan until the writer has finished, and once more after.
	for scan, writing := 0, true; writing; scan++ {
		select {
		case <-done:
			writing = false
		default:
		}
		it, err := h.Scan()
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[uint64]bool)
		for {
			rec, rid, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if rec == nil {
				break
			}
			if len(rec) < 8 {
				t.Fatalf("scan %d: torn record at %v: %d bytes", scan, rid, len(rec))
			}
			id := binary.BigEndian.Uint64(rec)
			if !bytes.Equal(rec, stampRecord(id)) {
				t.Fatalf("scan %d: torn record %d at %v", scan, id, rid)
			}
			if seen[id] {
				t.Fatalf("scan %d: record %d returned twice", scan, id)
			}
			seen[id] = true
		}
		for id := uint64(0); id < n; id++ {
			if !seen[id] {
				t.Fatalf("scan %d: record %d, stored before the scan, was not returned", scan, id)
			}
		}
	}
}

// A record with bytes past its last column, or whose raster header claims
// more pixels than it has, is refused by a scan — decoding (Next) or
// windowing its columns (Records) — as by Get, with the same error.
func TestScanAndGetRefuseTrailingBytes(t *testing.T) {
	good := rasterTuple(1, 4).AppendTo(nil)
	tall := bytes.Clone(good)
	binary.BigEndian.PutUint32(tall[len(tall)-16-4:], 5) // 4x5 pixels in 16 bytes
	for _, tc := range []struct {
		name, want string // want: what the error says after the record's RID
		rec        []byte
	}{
		{"trailing bytes", " has 2 trailing bytes", append(bytes.Clone(good), 0xAB, 0xCD)},
		{"raster header claims more", `: column "image": types: RASTER value declares 4x5 pixels, have 24 bytes`, tall},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := OpenStore("", 16)
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := s.Create("T", rasterSchema)
			if err != nil {
				t.Fatal(err)
			}
			rid, err := tbl.heap.Insert(tc.rec)
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("storage: table T record %v", rid) + tc.want
			if _, err := tbl.Get(rid); err == nil || err.Error() != want {
				t.Errorf("Get: %v, want %q", err, want)
			}
			it, err := tbl.Scan()
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := it.Next(); err == nil || err.Error() != want {
				t.Errorf("Scan: %v, want %q", err, want)
			}
			if err := tbl.Records([]int{0}, func([][]byte) error { return nil }); err == nil || err.Error() != want {
				t.Errorf("Records: %v, want %q", err, want)
			}
		})
	}
}
