package exec

import (
	"bufio"
	"bytes"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"mocha/internal/types"
)

// Temp-file spill runs for the governed operators. A run is a sequence
// of self-describing records: operators have no schema of their own, so
// every value is stored as a kind byte followed by its wire encoding
// (the same per-kind format types.DecodeValue reads).
//
// Record layout (all integers little-endian):
//
//	u32 recLen                      length of everything that follows
//	u64 seqA, u64 seqB              ordering tags (probe/build or arrival)
//	u32 keyLen, key bytes           encoded group key ("" when unused)
//	u32 ncols, then per column:     u8 kind, value wire bytes
//
// Spill files are created with os.CreateTemp and unlinked immediately:
// the open descriptor keeps the data alive, and the file is reclaimed
// by the OS the moment the descriptor closes — even if the process
// dies — so a missed Close can leak at most a descriptor, never disk.

// spillPartitions is the Grace fan-out for spilled hash joins.
const spillPartitions = 4

// spillBufBytes sizes each spill file's buffered reader/writer. Kept
// small so the fixed per-spill overhead stays affordable under tiny
// budgets; it is accounted against the operator's grant.
const spillBufBytes = 2048

// tupleMemBytes estimates a tuple's resident size for grant accounting:
// wire payload plus slice/header overhead per value.
func tupleMemBytes(t types.Tuple) int64 {
	n := int64(48)
	for _, v := range t {
		n += int64(v.WireSize()) + 24
	}
	return n
}

// batchMemBytes sums tupleMemBytes over a batch.
func batchMemBytes(batch []types.Tuple) int64 {
	var n int64
	for _, t := range batch {
		n += tupleMemBytes(t)
	}
	return n
}

// spillRec is one decoded run record.
type spillRec struct {
	seqA, seqB uint64
	key        []byte
	tup        types.Tuple
}

// spillFile is one unlinked temp file holding run records. It is
// written once, then read (possibly several times — the join's probe
// partitions are rescanned once per build chunk).
type spillFile struct {
	f     *os.File
	w     *bufio.Writer
	r     *bufio.Reader
	buf   []byte
	bytes int64
	recs  int64
}

func newSpillFile() (*spillFile, error) {
	f, err := os.CreateTemp("", "mocha-spill-*")
	if err != nil {
		return nil, fmt.Errorf("exec: spill: %w", err)
	}
	// Unlink now: the descriptor is the only reference, so the file can
	// never outlive the operator (or the process).
	os.Remove(f.Name())
	return &spillFile{f: f, w: bufio.NewWriterSize(f, spillBufBytes)}, nil
}

// flush pushes buffered writes to the file and drops the writer (and
// its accounted buffer); the file is then ready for startRead.
func (sf *spillFile) flush() error {
	if sf.w == nil {
		return nil
	}
	err := sf.w.Flush()
	sf.w = nil
	if err != nil {
		return fmt.Errorf("exec: spill flush: %w", err)
	}
	return nil
}

func (sf *spillFile) close() error {
	if sf == nil || sf.f == nil {
		return nil
	}
	err := sf.f.Close()
	sf.f = nil
	sf.w = nil
	sf.r = nil
	return err
}

// write appends one record.
func (sf *spillFile) write(rec spillRec) error {
	buf := sf.buf[:0]
	buf = append(buf, 0, 0, 0, 0) // recLen placeholder
	buf = binary.LittleEndian.AppendUint64(buf, rec.seqA)
	buf = binary.LittleEndian.AppendUint64(buf, rec.seqB)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.key)))
	buf = append(buf, rec.key...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.tup)))
	for _, v := range rec.tup {
		buf = append(buf, byte(v.Kind()))
		buf = v.AppendTo(buf)
	}
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	sf.buf = buf
	sf.bytes += int64(len(buf))
	sf.recs++
	_, err := sf.w.Write(buf)
	if err != nil {
		return fmt.Errorf("exec: spill write: %w", err)
	}
	return nil
}

// startRead flushes pending writes and (re)positions the file at its
// start for sequential record reads.
func (sf *spillFile) startRead() error {
	if sf.w != nil {
		if err := sf.w.Flush(); err != nil {
			return fmt.Errorf("exec: spill flush: %w", err)
		}
		sf.w = nil
	}
	if _, err := sf.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("exec: spill seek: %w", err)
	}
	if sf.r == nil {
		sf.r = bufio.NewReaderSize(sf.f, spillBufBytes)
	} else {
		sf.r.Reset(sf.f)
	}
	return nil
}

// read returns the next record, or io.EOF at the end of the run. Each
// record is read into memory of its own, which its key and its tuple's
// large values are windows into (spilled tuples are retained by
// consumers past the next read, so the buffer is never reused).
func (sf *spillFile) read() (spillRec, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(sf.r, hdr[:]); err != nil {
		if err == io.EOF {
			return spillRec{}, io.EOF
		}
		return spillRec{}, fmt.Errorf("exec: spill read: %w", err)
	}
	recLen := binary.LittleEndian.Uint32(hdr[:])
	data := make([]byte, recLen)
	if _, err := io.ReadFull(sf.r, data); err != nil {
		return spillRec{}, fmt.Errorf("exec: spill read: %w", err)
	}
	return decodeSpillRec(data)
}

func decodeSpillRec(data []byte) (spillRec, error) {
	bad := func() (spillRec, error) {
		return spillRec{}, fmt.Errorf("exec: corrupt spill record (%d bytes)", len(data))
	}
	if len(data) < 20 {
		return bad()
	}
	var rec spillRec
	rec.seqA = binary.LittleEndian.Uint64(data)
	rec.seqB = binary.LittleEndian.Uint64(data[8:])
	keyLen := int(binary.LittleEndian.Uint32(data[16:]))
	data = data[20:]
	if keyLen > len(data) {
		return bad()
	}
	if keyLen > 0 {
		rec.key = data[:keyLen]
	}
	data = data[keyLen:]
	if len(data) < 4 {
		return bad()
	}
	ncols := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	rec.tup = make(types.Tuple, 0, ncols)
	for i := 0; i < ncols; i++ {
		if len(data) < 1 {
			return bad()
		}
		kind := types.Kind(data[0])
		data = data[1:]
		v, n, err := types.DecodeValue(kind, data)
		if err != nil {
			return spillRec{}, fmt.Errorf("exec: corrupt spill value: %w", err)
		}
		data = data[n:]
		rec.tup = append(rec.tup, v)
	}
	return rec, nil
}

// closeSpillFiles closes every file in the slice, keeping the first
// error, and nils the slice entries' descriptors.
func closeSpillFiles(files []*spillFile) error {
	var first error
	for _, sf := range files {
		if err := sf.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// mergeCursor is one run's head record inside a merge heap.
type mergeCursor struct {
	sf  *spillFile
	rec spillRec
}

// mergeHeap is a k-way merge over runs. less orders head records; the
// join merges by (probeSeq, buildSeq), the aggregate by (key, seq).
type mergeHeap struct {
	cur  []*mergeCursor
	less func(a, b *spillRec) bool
}

func (m *mergeHeap) Len() int           { return len(m.cur) }
func (m *mergeHeap) Less(i, j int) bool { return m.less(&m.cur[i].rec, &m.cur[j].rec) }
func (m *mergeHeap) Swap(i, j int)      { m.cur[i], m.cur[j] = m.cur[j], m.cur[i] }
func (m *mergeHeap) Push(x any)         { m.cur = append(m.cur, x.(*mergeCursor)) }
func (m *mergeHeap) Pop() any {
	old := m.cur
	n := len(old)
	c := old[n-1]
	m.cur = old[:n-1]
	return c
}

// newMergeHeap primes a heap over the given runs (each repositioned to
// its start). Runs that are empty are skipped.
func newMergeHeap(runs []*spillFile, less func(a, b *spillRec) bool) (*mergeHeap, error) {
	m := &mergeHeap{less: less}
	for _, sf := range runs {
		if err := sf.startRead(); err != nil {
			return nil, err
		}
		rec, err := sf.read()
		if err == io.EOF {
			continue
		}
		if err != nil {
			return nil, err
		}
		m.cur = append(m.cur, &mergeCursor{sf: sf, rec: rec})
	}
	heap.Init(m)
	return m, nil
}

// next pops the smallest record and advances its run. ok is false when
// every run is exhausted.
func (m *mergeHeap) next() (spillRec, bool, error) {
	if len(m.cur) == 0 {
		return spillRec{}, false, nil
	}
	c := m.cur[0]
	rec := c.rec
	nxt, err := c.sf.read()
	if err == io.EOF {
		heap.Pop(m)
	} else if err != nil {
		return spillRec{}, false, err
	} else {
		c.rec = nxt
		heap.Fix(m, 0)
	}
	return rec, true, nil
}

// byProbeBuild orders join output runs into the in-memory join's exact
// emission order: probe arrival, then build insertion.
func byProbeBuild(a, b *spillRec) bool {
	if a.seqA != b.seqA {
		return a.seqA < b.seqA
	}
	return a.seqB < b.seqB
}

// byKeySeq orders aggregate runs by encoded group key, then arrival.
func byKeySeq(a, b *spillRec) bool {
	if c := bytes.Compare(a.key, b.key); c != 0 {
		return c < 0
	}
	return a.seqA < b.seqA
}
