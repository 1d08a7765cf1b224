package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"mocha/internal/types"
)

// fuzzFile is FuzzHeapFile's starting point, built once: a heap file of
// inline records of several sizes and two overflow records, one of them
// a two-page chain, spread over two data pages; its pages and the
// records in storage order.
var fuzzFile = sync.OnceValues(func() ([][]byte, [][]byte) {
	disk := NewMemDisk()
	bp := NewBufferPool(disk, 8)
	h, err := CreateHeapFile(bp)
	if err != nil {
		panic(err)
	}
	var recs [][]byte
	for i, size := range []int{0, 1, 40, 700, inlineThreshold + 200, 1500, 3900, overflowCap + 900, 300, 2100} {
		rec := make([]byte, size)
		for j := range rec {
			rec[j] = byte(i*31 + j)
		}
		if _, err := h.Insert(rec); err != nil {
			panic(err)
		}
		recs = append(recs, rec)
	}
	if err := bp.FlushAll(); err != nil {
		panic(err)
	}
	return disk.pages, recs
})

// maxSlots is the most slots a data page can hold.
const maxSlots = (PageSize - pageHdrSize) / slotSize

// FuzzHeapFile: a heap file on disk comes from outside the program. The
// input patches the bytes of a small valid file — every four bytes set
// one byte: page, offset (two bytes) and value — and the patched file is
// opened, scanned through a 3-frame pool and inserted into, then scanned
// again, its first 64 records read back by RID. Each step returns an
// error or the right records — a scanned record is what Get reads at
// its RID, and an unpatched file reads back exactly what was stored,
// then what was inserted — and never panics; a scan returns at most a
// record per slot the file's pages can hold, and the open, the first
// scan and the inserts allocate within a bound of the file's size.
func FuzzHeapFile(f *testing.F) {
	// The file: page 0 the header, 1 and 5 data pages, 2 an overflow
	// page and 3-4 a two-page chain.
	f.Add([]byte{})
	f.Add([]byte{1, 0, 4, 0xff})                                  // page 1's slot count
	f.Add([]byte{5, 0, 6, 0xff, 5, 0, 7, 0xff})                   // the last page's freeEnd, which Insert reads
	f.Add([]byte{0, 0, 4, 9})                                     // the header's first data page
	f.Add([]byte{0, 0, 11, 0})                                    // the header's last page: the header itself
	f.Add([]byte{1, 0, 14, 0xff, 1, 0, 15, 0xff})                 // slot 1's length: a tombstone
	f.Add([]byte{1, 0, 8, 0, 1, 0, 9, 0})                         // slot 0's offset: inside the slot array
	f.Add([]byte{1, 0x1d, 0x17, 1})                               // slot 3's type byte: a short overflow pointer
	f.Add([]byte{1, 0x1d, 0x13, 0x7f})                            // slot 4's overflow total
	f.Add([]byte{4, 0, 0, 0, 4, 0, 1, 0, 4, 0, 2, 0, 4, 0, 3, 3}) // page 4's next: a chain cycle
	f.Add([]byte{2, 0, 6, 0xff})                                  // page 2's chunk length
	f.Add([]byte{1, 0, 3, 1})                                     // page 1's next: itself
	pages, recs := fuzzFile()
	fileBytes := len(pages) * PageSize
	f.Fuzz(func(t *testing.T, patch []byte) {
		image := make([][]byte, len(pages))
		changed := false
		for i, p := range pages {
			image[i] = bytes.Clone(p)
		}
		for ; len(patch) >= 4; patch = patch[4:] {
			pg, off := int(patch[0])%len(image), int(binary.BigEndian.Uint16(patch[1:]))%PageSize
			changed = changed || image[pg][off] != patch[3]
			image[pg][off] = patch[3]
		}
		disk := &MemDisk{pages: image}
		inserted := [][]byte{bytes.Repeat([]byte{0xab}, 100), bytes.Repeat([]byte{0xcd}, inlineThreshold+1)}
		limit := len(pages) * maxSlots
		// scan calls keep for every record, up to limit of them.
		scan := func(h *HeapFile, keep func(rec []byte, rid RID)) error {
			it, err := h.Scan()
			for n := 0; err == nil; n++ {
				var rec []byte
				var rid RID
				if rec, rid, err = it.Next(); err != nil || rec == nil {
					return err
				}
				if n == limit {
					t.Fatalf("the scan returned more than the %d records %d pages can hold", limit, len(pages))
				}
				keep(rec, rid)
			}
			return err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h, err := OpenHeapFile(NewBufferPool(disk, 3))
		if err != nil {
			return
		}
		scanErr := scan(h, func([]byte, RID) {})
		var at []RID
		for _, rec := range inserted {
			rid, err := h.Insert(rec)
			if err != nil {
				break
			}
			at = append(at, rid)
		}
		runtime.ReadMemStats(&after)
		if used := after.TotalAlloc - before.TotalAlloc; used > uint64(4*fileBytes+(1<<20)) {
			t.Fatalf("a %d-byte file cost %d bytes to open, scan and insert into", fileBytes, used)
		}

		var got [][]byte
		var rids []RID
		againErr := scan(h, func(rec []byte, rid RID) {
			if len(got) < 64 {
				got, rids = append(got, bytes.Clone(rec)), append(rids, rid)
			}
		})
		for i := range got {
			if rec, err := h.Get(rids[i]); err == nil && !bytes.Equal(rec, got[i]) {
				t.Fatalf("record %v: scanned %d bytes, Get read %d others", rids[i], len(got[i]), len(rec))
			}
		}
		if changed {
			return
		}
		want := append(append([][]byte{}, recs...), inserted...)
		if scanErr != nil || againErr != nil || len(at) != len(inserted) || len(got) != len(want) {
			t.Fatalf("unpatched file: %d records (%v, then %v), %d inserts", len(got), scanErr, againErr, len(at))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("unpatched file: record %d reads back as %d other bytes", i, len(got[i]))
			}
		}
	})
}

// storeMetaDoc is FuzzStoreMeta's valid store.xml: one table, T, over
// the heap file storeHeap builds.
const storeMetaDoc = `<store>
  <table name="T">
    <column name="id" kind="INT"></column>
    <column name="name" kind="STRING"></column>
  </table>
</store>`

// storeRows are the rows of T's heap file.
var storeRows = []types.Tuple{
	{types.Int(1), types.String_("one")},
	{types.Int(2), types.String_("")},
	{types.Int(3), types.String_("three, the longest")},
}

// storeHeap is T's heap file, built once.
var storeHeap = sync.OnceValue(func() []byte {
	disk := NewMemDisk()
	bp := NewBufferPool(disk, 4)
	h, err := CreateHeapFile(bp)
	if err != nil {
		panic(err)
	}
	tbl := NewTable("T", types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "name", Kind: types.KindString},
	), h, bp)
	for _, row := range storeRows {
		if _, err := tbl.Insert(row); err != nil {
			panic(err)
		}
	}
	if err := bp.FlushAll(); err != nil {
		panic(err)
	}
	return bytes.Join(disk.pages, nil)
})

// FuzzStoreMeta: store.xml comes from outside the program. The input is
// the metadata file of a store directory that holds one valid heap file,
// T.heap; OpenStore over it returns an error or a store whose every
// table scans, as decoded tuples and as column records, to an error or
// its rows, and never panics. Opening creates no file, inside the
// directory or out of it, whatever the metadata names. The valid
// document reads back T's rows.
func FuzzStoreMeta(f *testing.F) {
	f.Add([]byte(storeMetaDoc))
	for _, edit := range [][2]string{
		{`name="T"`, `name="U"`},                         // a table with no heap file
		{`name="T"`, `name="../T"`},                      // a path out of the directory
		{`name="T"`, `name="/T"`},                        // an absolute path
		{`name="T"`, `name=""`},                          // no name
		{`name="T"`, `name=".."`},                        // the parent
		{`kind="INT"`, `kind="STRING"`},                  // a schema the records do not match
		{`kind="STRING"`, `kind="NULL"`},                 // a column of no bytes: trailing bytes
		{`kind="INT"`, `kind="TREE"`},                    // a kind that does not exist
		{`<column name="id" kind="INT"></column>`, ``},   // a column short
		{`</table>`, `</table><table name="T"></table>`}, // T named twice
		{`</store>`, ``},                                 // truncated
		{`<store>`, `<store><table name="T"></table>`},   // T twice, the first with no columns
	} {
		f.Add([]byte(strings.Replace(storeMetaDoc, edit[0], edit[1], 1)))
	}
	f.Add([]byte{})
	f.Add([]byte("not xml <"))
	heap := storeHeap()
	f.Fuzz(func(t *testing.T, meta []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, "store")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string][]byte{"T.heap": heap, "store.xml": meta} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := OpenStore(dir, 4)
		if err == nil {
			defer s.Close()
		}
		var files []string
		filepath.WalkDir(root, func(path string, _ os.DirEntry, _ error) error {
			files = append(files, path[len(root):])
			return nil
		})
		if want := []string{"", "/store", "/store/T.heap", "/store/store.xml"}; !slices.Equal(files, want) {
			t.Fatalf("opening the store left %q, want %q", files, want)
		}
		valid := string(meta) == storeMetaDoc
		if err != nil {
			if valid {
				t.Fatalf("valid store refused: %v", err)
			}
			return
		}
		for _, name := range s.TableNames() {
			tbl, _ := s.Table(name)
			var got []types.Tuple
			it, err := tbl.Scan()
			for err == nil {
				var tup types.Tuple
				if tup, _, err = it.Next(); err != nil || tup == nil {
					break
				}
				got = append(got, tup)
			}
			records := 0
			all := make([]int, tbl.Schema().Arity())
			for i := range all {
				all[i] = i
			}
			recErr := tbl.Records(all, func([][]byte) error { records++; return nil })
			if (err == nil) != (recErr == nil) || (err == nil && records != len(got)) {
				t.Fatalf("table %s: the scan read %d tuples (%v), Records %d (%v)", name, len(got), err, records, recErr)
			}
			if valid && (err != nil || fmt.Sprint(got) != fmt.Sprint(storeRows)) {
				t.Fatalf("valid store reads %v (%v), want %v", got, err, storeRows)
			}
		}
	})
}
