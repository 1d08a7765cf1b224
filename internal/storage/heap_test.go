package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func newHeap(t *testing.T, frames int) *HeapFile {
	t.Helper()
	h, err := CreateHeapFile(NewBufferPool(NewMemDisk(), frames))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHeapInsertGet(t *testing.T) {
	h := newHeap(t, 16)
	recs := [][]byte{
		[]byte("hello"),
		{},
		bytes.Repeat([]byte{7}, 100),
	}
	rids := make([]RID, len(recs))
	for i, r := range recs {
		rid, err := h.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	for i, rid := range rids {
		got, err := h.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, recs[i]) {
			t.Errorf("record %d: got %v want %v", i, got, recs[i])
		}
	}
	if n, _ := h.Count(); n != 3 {
		t.Errorf("count = %d", n)
	}
}

func TestHeapOverflowRecords(t *testing.T) {
	h := newHeap(t, 16)
	// A 1 MB record exercises a ~128-page overflow chain, the raster case.
	big := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(big)
	rid, err := h.Insert(big)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("overflow record corrupted")
	}
	// Boundary sizes around the inline threshold and overflow page size.
	for _, size := range []int{inlineThreshold - 1, inlineThreshold, inlineThreshold + 1, overflowCap, overflowCap + 1, 2*overflowCap - 1, 2 * overflowCap} {
		rec := bytes.Repeat([]byte{byte(size)}, size)
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		got, err := h.Get(rid)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(got, rec) {
			t.Fatalf("size %d: corrupted", size)
		}
	}
}

func TestHeapScan(t *testing.T) {
	h := newHeap(t, 16)
	const n = 500
	for i := 0; i < n; i++ {
		if _, err := h.Insert([]byte(fmt.Sprintf("record-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	it, err := h.Scan()
	if err != nil {
		t.Fatal(err)
	}
	var count int
	for {
		rec, _, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			break
		}
		if want := fmt.Sprintf("record-%04d", count); string(rec) != want {
			t.Fatalf("tuple %d = %q, want %q", count, rec, want)
		}
		count++
	}
	if count != n {
		t.Errorf("scanned %d records, want %d", count, n)
	}
}

// markTombstone marks the slot at rid deleted, as a heap file written
// elsewhere may hold it: the slot's length becomes 0xFFFF.
func markTombstone(t *testing.T, h *HeapFile, rid RID) {
	t.Helper()
	writePage(t, h, rid.Page, pageHdrSize+slotSize*int(rid.Slot)+2, tombstone)
}

// writePage stores v at byte at of page id, through the buffer pool, as
// a heap file written elsewhere may hold it.
func writePage(t *testing.T, h *HeapFile, id PageID, at int, v uint16) {
	t.Helper()
	f, err := h.bp.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	binary.BigEndian.PutUint16(f.Data()[at:], v)
	f.MarkDirty()
}

// TestHeapCorruptSlotIsAnError: a slot whose record does not lie inside
// its page past the slot array, or a slot count whose array does not fit
// the page, fails Get and the scan with an error naming the page and the
// slot, where it would otherwise slice out of range. The records stored
// ahead of the bad slot still scan.
func TestHeapCorruptSlotIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   func(rid RID) int // the page byte the corruption writes
		v    uint16
		want string
	}{
		{"length past the page", slotField(2), 0x8000, "slot 2"},
		{"offset past the page", slotField(0), 0xF000, "slot 2"},
		{"offset and length that wrap", slotField(0), 0xFFFF, "slot 2"},
		{"record over the slot array", slotField(0), pageHdrSize, "slot 2"},
		{"slot array past the page", func(RID) int { return 4 }, 0x1000, "4096 slots"},
	} {
		h := newHeap(t, 16)
		var rids []RID
		for i := 0; i < 4; i++ {
			rid, err := h.Insert([]byte{byte(i), 0x20})
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
		}
		writePage(t, h, rids[2].Page, tc.at(rids[2]), tc.v)
		page := fmt.Sprintf("page %d", rids[2].Page)
		if _, err := h.Get(rids[2]); err == nil || !strings.Contains(err.Error(), page) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Get = %v, want an error naming %s and %s", tc.name, err, page, tc.want)
		}
		it, err := h.Scan()
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		for {
			rec, _, err := it.Next()
			if err != nil {
				if !strings.Contains(err.Error(), page) || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: scan error %v does not name %s and %s", tc.name, err, page, tc.want)
				}
				break
			}
			if rec == nil {
				t.Errorf("%s: the scan ended cleanly", tc.name)
				break
			}
			got = append(got, rec[0])
		}
		if tc.want == "slot 2" && !bytes.Equal(got, []byte{0, 1}) {
			t.Errorf("%s: scanned %v ahead of the bad slot, want [0 1]", tc.name, got)
		}
	}
}

// TestHeapInsertRefusesCorruptLastPage: Insert writes where the last
// data page's header says its free space ends. A free-space end past the
// page or inside the slot array, or a slot array that does not fit the
// page, fails the insert with an error naming the page, where it would
// otherwise copy out of range; nothing is written.
func TestHeapInsertRefusesCorruptLastPage(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   int // the header byte the corruption writes
		v    uint16
		want string
	}{
		{"free space ending past the page", 6, 0xFFFF, "free space ends at 65535"},
		{"free space ending inside the slot array", 6, pageHdrSize, "free space ends at"},
		{"slot array past the page", 4, 0x1000, "4096 slots"},
	} {
		h := newHeap(t, 16)
		rid, err := h.Insert([]byte{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		writePage(t, h, rid.Page, tc.at, tc.v)
		page := fmt.Sprintf("page %d", rid.Page)
		if _, err := h.Insert([]byte{3, 4}); err == nil || !strings.Contains(err.Error(), page) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Insert = %v, want an error naming %s and %q", tc.name, err, page, tc.want)
		}
		if n, err := h.Count(); err != nil || n != 1 {
			t.Errorf("%s: %d records counted (%v) after a refused insert, want 1", tc.name, n, err)
		}
	}
}

// TestHeapOverflowCycleIsAnError: an overflow page whose next pointer
// names itself fails Get and the scan once the chain has run past the
// pages its record's length needs, where it would otherwise loop while
// the record grows.
func TestHeapOverflowCycleIsAnError(t *testing.T) {
	h := newHeap(t, 16)
	rid, err := h.Insert(bytes.Repeat([]byte{9}, 3*PageSize))
	if err != nil {
		t.Fatal(err)
	}
	f, err := h.bp.Fetch(rid.Page)
	if err != nil {
		t.Fatal(err)
	}
	st, _, _, err := slotRecord(f.Data(), rid.Page, 1, rid.Slot)
	f.Release()
	if err != nil || st[0] != recOverflow {
		t.Fatalf("record is not an overflow chain (%v)", err)
	}
	first := getPageID(st[1:])
	writePage(t, h, first, 0, uint16(first>>16))
	writePage(t, h, first, 2, uint16(first))
	if _, err := h.Get(rid); err == nil || !strings.Contains(err.Error(), "overflow chain") {
		t.Errorf("Get = %v, want an overflow chain error", err)
	}
	it, err := h.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := it.Next(); err == nil || !strings.Contains(err.Error(), "overflow chain") {
		t.Errorf("scan = %v, want an overflow chain error", err)
	}
}

// TestHeapDataPageCycleIsAnError: two data pages linked to each other
// stop the scan with an error once it has passed as many pages as the
// file holds, where it would otherwise return their records forever.
func TestHeapDataPageCycleIsAnError(t *testing.T) {
	h := newHeap(t, 16)
	var rids []RID
	for len(rids) == 0 || rids[len(rids)-1].Page == rids[0].Page {
		rid, err := h.Insert(bytes.Repeat([]byte{1}, 1000))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	second := rids[len(rids)-1].Page
	writePage(t, h, second, 0, uint16(rids[0].Page>>16))
	writePage(t, h, second, 2, uint16(rids[0].Page))
	it, err := h.Scan()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; ; n++ {
		rec, _, err := it.Next()
		if err != nil {
			if !strings.Contains(err.Error(), "data page chain") {
				t.Errorf("scan = %v, want a data page chain error", err)
			}
			break
		}
		if rec == nil || n > 2*len(rids) {
			t.Fatalf("scan returned %d records and no error", n)
		}
	}
}

// slotField addresses a slot's offset (field 0) or length (field 2).
func slotField(field int) func(RID) int {
	return func(rid RID) int { return pageHdrSize + slotSize*int(rid.Slot) + field }
}

func TestHeapScanSkipsTombstones(t *testing.T) {
	h := newHeap(t, 16)
	var rids []RID
	for i := 0; i < 10; i++ {
		rid, _ := h.Insert([]byte{byte(i)})
		rids = append(rids, rid)
	}
	for i := 0; i < 10; i += 2 {
		markTombstone(t, h, rids[i])
	}
	if _, err := h.Get(rids[0]); err == nil {
		t.Error("tombstoned record still readable")
	}
	it, _ := h.Scan()
	var got []byte
	for {
		rec, _, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			break
		}
		got = append(got, rec[0])
	}
	if !bytes.Equal(got, []byte{1, 3, 5, 7, 9}) {
		t.Errorf("scan past tombstones = %v", got)
	}
}

func TestHeapBadRIDs(t *testing.T) {
	h := newHeap(t, 16)
	rid, _ := h.Insert([]byte("x"))
	if _, err := h.Get(RID{Page: rid.Page, Slot: 99}); err == nil {
		t.Error("bad slot accepted")
	}
	if _, err := h.Get(RID{Page: 9999, Slot: 0}); err == nil {
		t.Error("bad page accepted")
	}
}

func TestHeapPersistence(t *testing.T) {
	dir := t.TempDir()
	disk, err := OpenFileDisk(dir+"/t.heap", true)
	if err != nil {
		t.Fatal(err)
	}
	bp := NewBufferPool(disk, 8)
	h, err := CreateHeapFile(bp)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := h.Insert(bytes.Repeat([]byte{42}, 50_000))
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.FlushAll(); err != nil {
		t.Fatal(err)
	}
	disk.Close()

	disk2, err := OpenFileDisk(dir+"/t.heap", false)
	if err != nil {
		t.Fatal(err)
	}
	defer disk2.Close()
	h2, err := OpenHeapFile(NewBufferPool(disk2, 8))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h2.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50_000 || got[0] != 42 {
		t.Error("record lost across reopen")
	}
}

func TestOpenHeapFileRejectsGarbage(t *testing.T) {
	disk := NewMemDisk()
	disk.AllocatePage()
	if _, err := OpenHeapFile(NewBufferPool(disk, 4)); err == nil {
		t.Error("garbage accepted as heap file")
	}
}

func TestBufferPoolEviction(t *testing.T) {
	disk := NewMemDisk()
	bp := NewBufferPool(disk, 4)
	// Create 20 pages, writing a marker into each.
	for i := 0; i < 20; i++ {
		f, err := bp.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		f.Data()[0] = byte(i)
		f.MarkDirty()
		f.Release()
	}
	// Read them all back; evictions must have preserved content.
	for i := 0; i < 20; i++ {
		f, err := bp.Fetch(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if f.Data()[0] != byte(i) {
			t.Errorf("page %d lost its content", i)
		}
		f.Release()
	}
	if bp.Evictions == 0 {
		t.Error("expected evictions with 4 frames and 20 pages")
	}
	if bp.Hits == 0 && bp.Misses == 0 {
		t.Error("stats not collected")
	}
}

func TestBufferPoolExhaustion(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 2)
	f1, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bp.NewPage(); err == nil {
		t.Error("third pin should fail with 2 frames")
	}
	f1.Release()
	f3, err := bp.NewPage()
	if err != nil {
		t.Fatalf("after release, allocation should succeed: %v", err)
	}
	f3.Release()
	f2.Release()
}

// Pinning and unpinning a cached page allocates nothing: the LRU list
// runs through the frames.
func TestBufferPoolRepinAllocatesNothing(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 4)
	f, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	allocs := testing.AllocsPerRun(100, func() {
		f, err := bp.Fetch(f.ID())
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	})
	if allocs != 0 {
		t.Errorf("Fetch+Release of a cached page: %.1f allocations, want 0", allocs)
	}
}

func TestBufferPoolFetchUnallocated(t *testing.T) {
	bp := NewBufferPool(NewMemDisk(), 2)
	if _, err := bp.Fetch(5); err == nil {
		t.Error("fetch of unallocated page accepted")
	}
	// The failed fetch must not leak the frame.
	f, err := bp.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
}
