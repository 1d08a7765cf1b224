package exec

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"

	"mocha/internal/types"
)

// Spill files for the governed operators. A spilling operator owns one
// temp file for its whole life: created when its first block is written
// and closed in its Close. Every run it spills — a join's build and probe partitions
// and its output runs, an aggregate's sorted runs — is a list of extents
// in that file. Writes are positioned appends at the file's tail, one per
// filled block; reads are positioned by extent.
//
// The file is unlinked the moment it is created: the open descriptor is
// then the only reference, and the OS reclaims the file when it closes —
// even if the process dies — so a missed Close can leak at most a
// descriptor, never disk.
//
// A run is a sequence of records, each a u32 length followed by its body
// (all integers little-endian). Operators have no schema of their own, so
// a row record stores every value as a kind byte followed by its wire
// encoding (the per-kind format types.DecodeValue reads):
//
//	u64 seq                         arrival or build sequence
//	u32 keyLen, key bytes           encoded group key ("" when unused)
//	u32 ncols, then per column:     u8 kind, value wire bytes
//
// A join output record refers to the two rows it joins instead of
// holding them; each reference is the position and length of a row
// record's body in the partitions already on disk:
//
//	u64 probeSeq, u64 buildSeq      the in-memory join's emission order
//	u8  partition
//	u64 probeOff, u32 probeLen
//	u64 buildOff, u32 buildLen

// spillPartitions is the Grace fan-out for spilled hash joins.
const spillPartitions = 4

// spillBlockBytes is the write unit: a run's pending records go to the
// file as one positioned append once they reach it (a record larger than
// a block leaves with the block it completes). Reads are whole extents,
// so it also sizes a reader's buffer over small records. Kept small so
// the fixed per-spill scratch stays affordable under tiny budgets; that
// scratch is accounted against the operator's grant.
const spillBlockBytes = 2048

// refRecBytes is the body size of a join output record.
const refRecBytes = 8 + 8 + 1 + 2*(8+4)

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

// extent is a byte range of a spill file.
type extent struct{ off, n int64 }

func (e extent) end() int64 { return e.off + e.n }

func (e extent) holds(o extent) bool { return o.off >= e.off && o.end() <= e.end() }

// spillRec is one decoded record. A row record sets seqA, key and tup; a
// join output record sets seqA (probe), seqB (build), part, probe and
// build.
type spillRec struct {
	seqA, seqB   uint64
	key          []byte
	tup          types.Tuple
	part         int
	probe, build extent
}

// spillFile is a spilling operator's one temp file; the zero value has
// no file yet.
type spillFile struct {
	f    *os.File
	tail int64
}

// append writes b at the tail, creating the file on first use.
func (sf *spillFile) append(b []byte) (extent, error) {
	if sf.f == nil {
		f, err := os.CreateTemp("", "mocha-spill-*")
		if err != nil {
			return extent{}, fmt.Errorf("exec: spill: %w", err)
		}
		os.Remove(f.Name())
		sf.f = f
	}
	if _, err := sf.f.WriteAt(b, sf.tail); err != nil {
		return extent{}, fmt.Errorf("exec: spill write: %w", err)
	}
	e := extent{off: sf.tail, n: int64(len(b))}
	sf.tail += e.n
	return e, nil
}

// read returns extent e in memory of its own. Records decoded from it
// are windows into that memory, which is never written again: spilled
// rows are kept by consumers past the next read.
func (sf *spillFile) read(e extent) ([]byte, error) {
	buf := make([]byte, e.n)
	if _, err := sf.f.ReadAt(buf, e.off); err != nil {
		return nil, fmt.Errorf("exec: spill read: %w", err)
	}
	return buf, nil
}

func (sf *spillFile) close() error {
	if sf.f == nil {
		return nil
	}
	err := sf.f.Close()
	sf.f = nil
	return err
}

// spillRun is one run: the extents written so far, in order, and the
// pending block that has not reached the file yet.
type spillRun struct {
	ext   []extent
	blk   []byte
	bytes int64
	recs  int64
}

// writeRow appends one row record.
func (r *spillRun) writeRow(sf *spillFile, seq uint64, key string, tup types.Tuple) error {
	start := len(r.blk)
	b := append(r.blk, 0, 0, 0, 0)
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(tup)))
	for _, v := range tup {
		b = append(b, byte(v.Kind()))
		b = v.AppendTo(b)
	}
	r.blk = b
	return r.end(sf, start)
}

// writeRef appends one join output record.
func (r *spillRun) writeRef(sf *spillFile, rec *spillRec) error {
	start := len(r.blk)
	b := append(r.blk, 0, 0, 0, 0)
	b = binary.LittleEndian.AppendUint64(b, rec.seqA)
	b = binary.LittleEndian.AppendUint64(b, rec.seqB)
	b = append(b, byte(rec.part))
	for _, e := range [2]extent{rec.probe, rec.build} {
		b = binary.LittleEndian.AppendUint64(b, uint64(e.off))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.n))
	}
	r.blk = b
	return r.end(sf, start)
}

// end stamps the length of the record begun at start and writes the
// pending block out once it has reached a block.
func (r *spillRun) end(sf *spillFile, start int) error {
	n := len(r.blk) - start - 4
	binary.LittleEndian.PutUint32(r.blk[start:], uint32(n))
	r.bytes += int64(n) + 4
	r.recs++
	if len(r.blk) < spillBlockBytes {
		return nil
	}
	return r.writeBlock(sf)
}

func (r *spillRun) writeBlock(sf *spillFile) error {
	if len(r.blk) == 0 {
		return nil
	}
	e, err := sf.append(r.blk)
	if err != nil {
		return err
	}
	r.ext = append(r.ext, e)
	r.blk = r.blk[:0]
	return nil
}

// flush writes the pending records out and drops the block: the run is
// complete and readable.
func (r *spillRun) flush(sf *spillFile) error {
	err := r.writeBlock(sf)
	r.blk = nil
	return err
}

// readScratch is what reading runs holds at once: one block of each.
func readScratch(runs []*spillRun) int64 {
	var n int64
	for _, r := range runs {
		n += min(r.bytes, spillBlockBytes)
	}
	return n
}

// runReader reads a run's records in order, one extent at a time.
type runReader struct {
	sf   *spillFile
	ext  []extent // not yet read
	buf  []byte   // the extent being read
	base int64    // buf's offset in the file
	off  int      // the next record in buf
}

func (sf *spillFile) reader(r *spillRun) *runReader {
	return &runReader{sf: sf, ext: r.ext}
}

// next returns the next record's body and where it lies in the file, or
// io.EOF at the end of the run.
func (rd *runReader) next() ([]byte, extent, error) {
	for rd.off == len(rd.buf) {
		if len(rd.ext) == 0 {
			return nil, extent{}, io.EOF
		}
		e := rd.ext[0]
		buf, err := rd.sf.read(e)
		if err != nil {
			return nil, extent{}, err
		}
		rd.ext, rd.buf, rd.base, rd.off = rd.ext[1:], buf, e.off, 0
	}
	rest := rd.buf[rd.off:]
	if len(rest) < 4 || int(binary.LittleEndian.Uint32(rest)) > len(rest)-4 {
		return nil, extent{}, fmt.Errorf("exec: corrupt spill block at %d", rd.base+int64(rd.off))
	}
	n := int(binary.LittleEndian.Uint32(rest))
	at := extent{off: rd.base + int64(rd.off) + 4, n: int64(n)}
	rd.off += 4 + n
	return rest[4 : 4+n : 4+n], at, nil
}

func decodeRow(data []byte) (spillRec, error) {
	bad := func() (spillRec, error) {
		return spillRec{}, fmt.Errorf("exec: corrupt spill record (%d bytes)", len(data))
	}
	if len(data) < 12 {
		return bad()
	}
	var rec spillRec
	rec.seqA = binary.LittleEndian.Uint64(data)
	keyLen := int(binary.LittleEndian.Uint32(data[8:]))
	data = data[12:]
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
	if ncols > len(data) {
		return bad()
	}
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

func decodeRef(data []byte) (spillRec, error) {
	if len(data) != refRecBytes || int(data[16]) >= spillPartitions {
		return spillRec{}, fmt.Errorf("exec: corrupt spill reference (%d bytes)", len(data))
	}
	le := binary.LittleEndian
	return spillRec{
		seqA:  le.Uint64(data),
		seqB:  le.Uint64(data[8:]),
		part:  int(data[16]),
		probe: extent{off: int64(le.Uint64(data[17:])), n: int64(le.Uint32(data[25:]))},
		build: extent{off: int64(le.Uint64(data[29:])), n: int64(le.Uint32(data[37:]))},
	}, nil
}

// rowCache serves a spilled join's emission reads of one partition's
// rows on one side. A miss reads the whole extent holding the row, so
// the rows stored after it cost no further read; consecutive references
// to the same row share one decode.
type rowCache struct {
	blk  extent
	buf  []byte
	at   extent // the row last decoded
	last types.Tuple
}

// row returns the row record whose body lies at at in run.
func (c *rowCache) row(sf *spillFile, run *spillRun, at extent) (types.Tuple, error) {
	if c.last != nil && c.at == at {
		return c.last, nil
	}
	if c.buf == nil || !c.blk.holds(at) {
		i := sort.Search(len(run.ext), func(i int) bool { return run.ext[i].end() > at.off })
		if i == len(run.ext) || !run.ext[i].holds(at) {
			return nil, fmt.Errorf("exec: spill reference [%d,+%d) outside its partition", at.off, at.n)
		}
		buf, err := sf.read(run.ext[i])
		if err != nil {
			return nil, err
		}
		c.blk, c.buf = run.ext[i], buf
	}
	rec, err := decodeRow(c.buf[at.off-c.blk.off : at.end()-c.blk.off])
	if err != nil {
		return nil, err
	}
	c.at, c.last = at, rec.tup
	return rec.tup, nil
}

// noteRun folds one finished run into the operator's and the governor's
// spill accounting.
func (b *base) noteRun(gr *Grant, r *spillRun) {
	if r.recs == 0 {
		return
	}
	b.stats.Spills++
	b.stats.SpillBytes += r.bytes
	b.stats.SpillTuples += r.recs
	gr.noteSpill(r.bytes, r.recs)
}

// setScratch replaces the fixed scratch an operator holds on gr (*held)
// with n bytes, accounted best-effort. Bulk data is strictly governed,
// but block scratch must never turn a spill into a failure or a blocking
// wait — it is needed exactly when the pool is full, and blocking while
// the query's own upstream operators hold memory could deadlock the pool
// — so on refusal the operator proceeds unaccounted.
func setScratch(gr *Grant, held *int64, n int64) {
	gr.Release(*held)
	*held = 0
	if gr.Try(n) {
		*held = n
	}
}

// mergeCursor is one run's head record inside a merge heap.
type mergeCursor struct {
	rd  *runReader
	rec spillRec
}

// mergeHeap is a k-way merge over runs. less orders head records; the
// join merges by (probeSeq, buildSeq), the aggregate by (key, seq).
type mergeHeap struct {
	cur    []*mergeCursor
	less   func(a, b *spillRec) bool
	decode func([]byte) (spillRec, error)
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

// newMergeHeap primes a heap over runs of sf whose records decode reads.
// Empty runs are skipped.
func newMergeHeap(sf *spillFile, runs []*spillRun, decode func([]byte) (spillRec, error), less func(a, b *spillRec) bool) (*mergeHeap, error) {
	m := &mergeHeap{less: less, decode: decode}
	for _, r := range runs {
		rd := sf.reader(r)
		rec, err := m.read(rd)
		if err == io.EOF {
			continue
		}
		if err != nil {
			return nil, err
		}
		m.cur = append(m.cur, &mergeCursor{rd: rd, rec: rec})
	}
	heap.Init(m)
	return m, nil
}

func (m *mergeHeap) read(rd *runReader) (spillRec, error) {
	body, _, err := rd.next()
	if err != nil {
		return spillRec{}, err
	}
	return m.decode(body)
}

// next pops the smallest record and advances its run. ok is false when
// every run is exhausted.
func (m *mergeHeap) next() (spillRec, bool, error) {
	if len(m.cur) == 0 {
		return spillRec{}, false, nil
	}
	c := m.cur[0]
	rec := c.rec
	nxt, err := m.read(c.rd)
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
