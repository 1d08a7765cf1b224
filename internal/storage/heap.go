package storage

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// Heap file layout.
//
// Page 0 is the header:
//
//	[0:4]   magic "MHF1"
//	[4:8]   first data page
//	[8:12]  last data page
//	[12:16] reserved, written as InvalidPageID
//	[16:24] tuple count
//
// Data pages are slotted:
//
//	[0:4] next data page
//	[4:6] slot count
//	[6:8] freeEnd (records grow down from PageSize toward the slot array)
//	slot i at [8+4i]: record offset u16, record length u16
//	                  (length 0xFFFF marks a tombstone: this engine
//	                  writes none, but reads and skips one, since a
//	                  heap file on disk comes from outside the program)
//
// A stored record starts with a type byte: 0x00 inline (payload follows),
// 0x01 overflow pointer ([first overflow page u32][total length u32]).
// Overflow pages are [next u32][chunk length u32][data]; they carry the
// megabyte-scale raster attributes that cannot fit in a slotted page.
const (
	heapMagic       = "MHF1"
	pageHdrSize     = 8
	slotSize        = 4
	tombstone       = 0xFFFF
	recInline       = 0x00
	recOverflow     = 0x01
	overflowHdrSize = 8
	overflowCap     = PageSize - overflowHdrSize
	// inlineThreshold is the largest payload stored inline; larger
	// records go to an overflow chain.
	inlineThreshold = 4000
)

// RID addresses a record within a heap file.
type RID struct {
	Page PageID
	Slot uint16
}

// String renders the RID for diagnostics.
func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// HeapFile is a record file with page-chained storage and overflow
// support. It is safe for concurrent use; writers are serialized.
type HeapFile struct {
	bp *BufferPool
	mu sync.Mutex
}

// CreateHeapFile initializes a new heap file on an empty disk.
func CreateHeapFile(bp *BufferPool) (*HeapFile, error) {
	if bp.disk.NumPages() != 0 {
		return nil, fmt.Errorf("storage: create heap file on non-empty disk")
	}
	hdr, err := bp.NewPage()
	if err != nil {
		return nil, err
	}
	defer hdr.Release()
	first, err := bp.NewPage()
	if err != nil {
		return nil, err
	}
	defer first.Release()
	initDataPage(first.Data())
	first.MarkDirty()

	d := hdr.Data()
	copy(d[0:4], heapMagic)
	putPageID(d[4:], first.ID())
	putPageID(d[8:], first.ID())
	putPageID(d[12:], InvalidPageID)
	binary.BigEndian.PutUint64(d[16:], 0)
	hdr.MarkDirty()
	return &HeapFile{bp: bp}, nil
}

// OpenHeapFile opens an existing heap file.
func OpenHeapFile(bp *BufferPool) (*HeapFile, error) {
	hdr, err := bp.Fetch(0)
	if err != nil {
		return nil, fmt.Errorf("storage: open heap file: %w", err)
	}
	defer hdr.Release()
	if string(hdr.Data()[0:4]) != heapMagic {
		return nil, fmt.Errorf("storage: not a heap file (bad magic)")
	}
	return &HeapFile{bp: bp}, nil
}

func initDataPage(d []byte) {
	putPageID(d[0:], InvalidPageID)
	binary.BigEndian.PutUint16(d[4:], 0)
	binary.BigEndian.PutUint16(d[6:], PageSize)
}

func putPageID(d []byte, id PageID) { binary.BigEndian.PutUint32(d, uint32(id)) }
func getPageID(d []byte) PageID     { return PageID(binary.BigEndian.Uint32(d)) }

// freeSpace returns the bytes free between data page d's slot array
// and its records. Both bounds are read off the page, so both are
// checked: the slot array must fit the page, and the free space must
// end past it and within the page.
func freeSpace(d []byte, page PageID) (int, error) {
	nslots, err := slotCount(d, page)
	if err != nil {
		return 0, err
	}
	slots := pageHdrSize + slotSize*int(nslots)
	freeEnd := int(binary.BigEndian.Uint16(d[6:]))
	if freeEnd < slots || freeEnd > PageSize {
		return 0, fmt.Errorf("storage: page %d: free space ends at %d, outside [%d, %d]", page, freeEnd, slots, PageSize)
	}
	return freeEnd - slots, nil
}

// Insert stores a record and returns its RID.
func (h *HeapFile) Insert(rec []byte) (RID, error) {
	h.mu.Lock()
	defer h.mu.Unlock()

	stored := make([]byte, 0, min(len(rec)+1, 16))
	if len(rec) <= inlineThreshold {
		stored = append(stored, recInline)
		stored = append(stored, rec...)
	} else {
		first, err := h.writeOverflow(rec)
		if err != nil {
			return RID{}, err
		}
		stored = append(stored, recOverflow)
		stored = binary.BigEndian.AppendUint32(stored, uint32(first))
		stored = binary.BigEndian.AppendUint32(stored, uint32(len(rec)))
	}

	hdr, err := h.bp.Fetch(0)
	if err != nil {
		return RID{}, err
	}
	last := getPageID(hdr.Data()[8:])
	f, err := h.bp.Fetch(last)
	if err != nil {
		hdr.Release()
		return RID{}, err
	}
	free, err := freeSpace(f.Data(), last)
	if err != nil {
		f.Release()
		hdr.Release()
		return RID{}, err
	}
	if free < len(stored)+slotSize {
		// Chain a fresh data page.
		nf, err := h.bp.NewPage()
		if err != nil {
			f.Release()
			hdr.Release()
			return RID{}, err
		}
		initDataPage(nf.Data())
		nf.MarkDirty()
		putPageID(f.Data()[0:], nf.ID())
		f.MarkDirty()
		f.Release()
		putPageID(hdr.Data()[8:], nf.ID())
		hdr.MarkDirty()
		f = nf
	}

	d := f.Data()
	nslots := binary.BigEndian.Uint16(d[4:])
	freeEnd := binary.BigEndian.Uint16(d[6:])
	off := int(freeEnd) - len(stored)
	copy(d[off:], stored)
	binary.BigEndian.PutUint16(d[6:], uint16(off))
	slotOff := pageHdrSize + slotSize*int(nslots)
	binary.BigEndian.PutUint16(d[slotOff:], uint16(off))
	binary.BigEndian.PutUint16(d[slotOff+2:], uint16(len(stored)))
	binary.BigEndian.PutUint16(d[4:], nslots+1)
	f.MarkDirty()
	rid := RID{Page: f.ID(), Slot: nslots}
	f.Release()

	count := binary.BigEndian.Uint64(hdr.Data()[16:])
	binary.BigEndian.PutUint64(hdr.Data()[16:], count+1)
	hdr.MarkDirty()
	hdr.Release()
	return rid, nil
}

// writeOverflow stores rec across a chain of overflow pages, returning
// the first page. Caller holds h.mu.
func (h *HeapFile) writeOverflow(rec []byte) (PageID, error) {
	first := InvalidPageID
	var prev *Frame
	for off := 0; off < len(rec); off += overflowCap {
		f, err := h.bp.NewPage()
		if err != nil {
			if prev != nil {
				prev.Release()
			}
			return 0, err
		}
		end := min(off+overflowCap, len(rec))
		d := f.Data()
		putPageID(d[0:], InvalidPageID)
		binary.BigEndian.PutUint32(d[4:], uint32(end-off))
		copy(d[overflowHdrSize:], rec[off:end])
		f.MarkDirty()
		if prev != nil {
			putPageID(prev.Data()[0:], f.ID())
			prev.MarkDirty()
			prev.Release()
		} else {
			first = f.ID()
		}
		prev = f
	}
	if prev != nil {
		prev.Release()
	}
	return first, nil
}

// readStored resolves a stored record (inline or overflow) into its
// payload bytes, appended to buf[:0]: a scan reads every record into
// the one buffer it reuses, Get into fresh memory (buf nil).
func (h *HeapFile) readStored(buf, stored []byte) ([]byte, error) {
	if len(stored) == 0 {
		return nil, fmt.Errorf("storage: empty stored record")
	}
	switch stored[0] {
	case recInline:
		return append(buf[:0], stored[1:]...), nil
	case recOverflow:
		if len(stored) != 9 {
			return nil, fmt.Errorf("storage: malformed overflow pointer")
		}
		page := getPageID(stored[1:])
		total := int(binary.BigEndian.Uint32(stored[5:]))
		// Both the length and the chain are read off the disk, so both
		// are bounded: the chain by the pages total needs and the file
		// holds, the preallocation by what that chain can carry.
		limit := min((total+overflowCap-1)/overflowCap, int(h.bp.disk.NumPages()))
		out := buf[:0]
		if want := min(total, limit*overflowCap); cap(out) < want || out == nil {
			out = make([]byte, 0, want)
		}
		for hops := 0; page != InvalidPageID; hops++ {
			if hops == limit {
				return nil, fmt.Errorf("storage: overflow chain of a %d-byte record runs past %d pages", total, limit)
			}
			f, err := h.bp.Fetch(page)
			if err != nil {
				return nil, err
			}
			d := f.Data()
			next := getPageID(d[0:])
			n := int(binary.BigEndian.Uint32(d[4:]))
			if n > overflowCap {
				f.Release()
				return nil, fmt.Errorf("storage: corrupt overflow page %d", page)
			}
			out = append(out, d[overflowHdrSize:overflowHdrSize+n]...)
			f.Release()
			page = next
		}
		if len(out) != total {
			return nil, fmt.Errorf("storage: overflow chain has %d bytes, expected %d", len(out), total)
		}
		return out, nil
	}
	return nil, fmt.Errorf("storage: unknown record type %d", stored[0])
}

// Get returns the record at rid.
func (h *HeapFile) Get(rid RID) ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	f, err := h.bp.Fetch(rid.Page)
	if err != nil {
		return nil, err
	}
	defer f.Release()
	d := f.Data()
	nslots, err := slotCount(d, rid.Page)
	if err != nil {
		return nil, err
	}
	if rid.Slot >= nslots {
		return nil, fmt.Errorf("storage: no slot %d on page %d", rid.Slot, rid.Page)
	}
	st, _, live, err := slotRecord(d, rid.Page, nslots, rid.Slot)
	if err != nil {
		return nil, err
	}
	if !live {
		return nil, fmt.Errorf("storage: record %v is deleted", rid)
	}
	return h.readStored(nil, st)
}

// slotCount returns data page d's slot count, checked to fit the page.
// Like every slot check below, it holds because a heap file on disk
// comes from outside the program.
func slotCount(d []byte, page PageID) (uint16, error) {
	n := binary.BigEndian.Uint16(d[4:])
	if pageHdrSize+slotSize*int(n) > PageSize {
		return 0, fmt.Errorf("storage: page %d: %d slots overflow the page", page, n)
	}
	return n, nil
}

// slotRecord returns the stored record in slot of data page d, which has
// nslots slots, and its offset; live is false for a tombstone. The
// record must lie inside the page, past the slot array.
func slotRecord(d []byte, page PageID, nslots, slot uint16) (st []byte, off int, live bool, err error) {
	slotOff := pageHdrSize + slotSize*int(slot)
	length := int(binary.BigEndian.Uint16(d[slotOff+2:]))
	if length == tombstone {
		return nil, 0, false, nil
	}
	off = int(binary.BigEndian.Uint16(d[slotOff:]))
	if off < pageHdrSize+slotSize*int(nslots) || off+length > PageSize {
		return nil, 0, false, fmt.Errorf("storage: page %d slot %d: record at [%d, %d) is outside the page's record area",
			page, slot, off, off+length)
	}
	return d[off : off+length], off, true, nil
}

// Count returns the live record count.
func (h *HeapFile) Count() (uint64, error) {
	hdr, err := h.bp.Fetch(0)
	if err != nil {
		return 0, err
	}
	defer hdr.Release()
	return binary.BigEndian.Uint64(hdr.Data()[16:]), nil
}

// Iterator walks all live records in storage order, a page at a time.
//
// Each fill holds the heap lock once and pins the page once: one copy
// takes the page bytes that hold its live inline records into the
// scan's arena, and Next hands the records out, in slot order, as
// capacity-clipped windows into it without taking a lock. An overflow
// record ends its fill — readStored gathers its chain, which for a
// raster is megabytes, into the scan's overflow buffer, so a page of
// them is read one at a time — and the next fill resumes at the
// following slot. The arena and the overflow buffer are the scan's
// own, reused fill after fill: a scan allocates per scan, not per page
// or per record (DESIGN §3.9).
//
// The scan's contract: a returned record was live when the fill that
// read it ran, and no record is ever torn. A record inserted into a
// page after its fill is not seen; one stored before the scan began is
// always returned. A record's bytes are valid until the next call to
// Next: a reader that keeps any of them copies them first.
type Iterator struct {
	h    *HeapFile
	page PageID // page of the next fill
	slot uint16 // slot the next fill starts at

	arena []byte // the current fill's inline records
	over  []byte // the current fill's overflow record, if it has one

	recs [][]byte // the current fill's records, recs[i:] not yet returned
	rids []RID
	i    int
	err  error // returned once recs is drained
	last []byte

	pages int // data pages finished, which the file's page count bounds
}

// poisoned makes every Next overwrite the record it returned before
// with 0xee, so a reader that kept a window past its record reads
// garbage. PoisonScans sets it.
var poisoned atomic.Bool

// PoisonScans makes every scan overwrite each record's bytes once the
// next record is asked for, until restore is called: a test hook that
// proves a reader keeps no window past its record. mocha-lint rejects
// a call from anything but a _test.go file.
func PoisonScans() (restore func()) {
	prev := poisoned.Swap(true)
	return func() { poisoned.Store(prev) }
}

// Scan returns an iterator positioned before the first record.
func (h *HeapFile) Scan() (*Iterator, error) {
	hdr, err := h.bp.Fetch(0)
	if err != nil {
		return nil, err
	}
	first := getPageID(hdr.Data()[4:])
	hdr.Release()
	return &Iterator{h: h, page: first}, nil
}

// Next returns the next record and its RID, or nil at end of file. The
// record is a window into the scan's arena or overflow buffer, valid
// until the next call to Next.
func (it *Iterator) Next() ([]byte, RID, error) {
	if poisoned.Load() {
		for i := range it.last {
			it.last[i] = 0xee
		}
	}
	for it.i == len(it.recs) {
		if it.err != nil {
			return nil, RID{}, it.err
		}
		if it.page == InvalidPageID {
			return nil, RID{}, nil
		}
		it.fill()
	}
	rec, rid := it.recs[it.i], it.rids[it.i]
	it.i++
	it.last = rec
	return rec, rid, nil
}

// buffered reports how many records the current fill has yet to return.
func (it *Iterator) buffered() int { return len(it.recs) - it.i }

// fill reads the live records of it.page from it.slot up to the page's
// end or its first overflow record, whichever comes first. A failure
// keeps the records read before it and is returned after them.
func (it *Iterator) fill() {
	it.recs, it.rids, it.i, it.last = it.recs[:0], it.rids[:0], 0, nil
	h := it.h
	h.mu.Lock()
	defer h.mu.Unlock()
	f, err := h.bp.Fetch(it.page)
	if err != nil {
		it.err = err
		return
	}
	defer f.Release()
	d := f.Data()
	nslots, err := slotCount(d, it.page)
	if err != nil {
		it.err = err
		return
	}
	inline := func(st []byte) bool { return len(st) > 0 && st[0] == recInline }

	// Find where this fill ends — the page's end, just past its first
	// overflow record, or at a corrupt slot — and the page bytes [lo, hi)
	// that hold its inline records: one copy takes them all.
	end, lo, hi := it.slot, PageSize, 0
	var bad error
	for ; end < nslots; end++ {
		st, off, live, err := slotRecord(d, it.page, nslots, end)
		if err != nil {
			bad = err
			break
		}
		if !live {
			continue
		}
		if !inline(st) {
			end++
			break
		}
		lo, hi = min(lo, off), max(hi, off+len(st))
	}
	if lo < hi {
		it.arena = append(it.arena[:0], d[lo:hi]...)
	}
	for ; it.slot < end; it.slot++ {
		st, off, live, _ := slotRecord(d, it.page, nslots, it.slot) // checked above
		if !live {
			continue
		}
		var rec []byte
		if inline(st) {
			off -= lo
			rec = it.arena[off+1 : off+len(st) : off+len(st)]
		} else if it.over, err = h.readStored(it.over, st); err != nil {
			it.err = err
			return
		} else {
			rec = it.over
		}
		it.recs = append(it.recs, rec)
		it.rids = append(it.rids, RID{Page: it.page, Slot: it.slot})
	}
	if bad != nil {
		it.err = bad
		return
	}
	if it.slot == nslots {
		it.page, it.slot = getPageID(d[0:]), 0
		// Page 0 is the header, so a chain longer than the file's other
		// pages has a cycle in it.
		it.pages++
		if n := int(h.bp.disk.NumPages()); it.page != InvalidPageID && it.pages >= n-1 {
			it.err = fmt.Errorf("storage: data page chain runs past the file's %d pages", n)
		}
	}
}
