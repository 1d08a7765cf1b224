package storage

import (
	"fmt"

	"mocha/internal/types"
)

// Table is a typed relation over a heap file: tuples are encoded with the
// middleware schema and stored as heap records.
type Table struct {
	name   string
	schema types.Schema
	heap   *HeapFile
	pool   *BufferPool
}

// NewTable wraps a heap file as a typed table.
func NewTable(name string, schema types.Schema, heap *HeapFile, pool *BufferPool) *Table {
	return &Table{name: name, schema: schema, heap: heap, pool: pool}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() types.Schema { return t.schema }

// Pool returns the table's buffer pool (for cache statistics).
func (t *Table) Pool() *BufferPool { return t.pool }

// Insert validates and stores one tuple.
func (t *Table) Insert(tup types.Tuple) (RID, error) {
	if len(tup) != t.schema.Arity() {
		return RID{}, fmt.Errorf("storage: table %s: tuple arity %d, schema arity %d", t.name, len(tup), t.schema.Arity())
	}
	for i, o := range tup {
		if o.Kind() != t.schema.Columns[i].Kind {
			return RID{}, fmt.Errorf("storage: table %s column %q: value is %v, want %v",
				t.name, t.schema.Columns[i].Name, o.Kind(), t.schema.Columns[i].Kind)
		}
	}
	return t.heap.Insert(tup.AppendTo(nil))
}

// Get fetches and decodes the tuple at rid.
func (t *Table) Get(rid RID) (types.Tuple, error) {
	rec, err := t.heap.Get(rid)
	if err != nil {
		return nil, err
	}
	var slab types.Slab
	return t.decode(&slab, rid, rec)
}

// decode decodes the record at rid into a tuple carved from slab, which
// must consume it whole: Get, Scan and Records refuse the same records
// with the same error.
func (t *Table) decode(slab *types.Slab, rid RID, rec []byte) (types.Tuple, error) {
	tup, n, err := slab.DecodeTuple(t.schema, rec)
	if err != nil {
		return nil, fmt.Errorf("storage: table %s record %v: %w", t.name, rid, err)
	}
	return tup, t.whole(rid, rec, n)
}

// whole refuses a record whose columns end n bytes into it, short of
// its end.
func (t *Table) whole(rid RID, rec []byte, n int) error {
	if n != len(rec) {
		return fmt.Errorf("storage: table %s record %v has %d trailing bytes", t.name, rid, len(rec)-n)
	}
	return nil
}

// Count returns the live tuple count.
func (t *Table) Count() (uint64, error) { return t.heap.Count() }

// TableIterator yields decoded tuples in storage order. A scan's record
// lives only until the next one (Iterator), so each is copied out into
// memory the iterator owns: the tuples of one heap fill share a value
// slab, and their bytes share a block with their neighbours' (a raster
// gets one of its own), so a kept tuple retains at most its block.
type TableIterator struct {
	t    *Table
	it   *Iterator
	slab types.Slab
	// BytesRead accumulates the wire size of tuples produced, i.e. the
	// data volume accessed at the source (the CVDA contribution).
	BytesRead int64
}

// Scan returns an iterator over all tuples.
func (t *Table) Scan() (*TableIterator, error) {
	it, err := t.heap.Scan()
	if err != nil {
		return nil, err
	}
	return &TableIterator{t: t, it: it}, nil
}

// Next returns the next tuple, or nil at end.
func (ti *TableIterator) Next() (types.Tuple, RID, error) {
	rec, rid, err := ti.it.Next()
	if err != nil || rec == nil {
		return nil, rid, err
	}
	ti.slab.Reserve(ti.it.buffered()+1, ti.t.schema.Arity(), ti.t.schema.Headers())
	tup, err := ti.t.decode(&ti.slab, rid, ti.slab.Copy(rec))
	if err != nil {
		return nil, rid, err
	}
	// decode consumed the record whole, so its length is the tuple's
	// wire size.
	ti.BytesRead += int64(len(rec))
	return tup, rid, nil
}

// Records calls emit for every record of the table, in storage order,
// with the encodings of the columns cols names, in that order: a stored
// record is the row's wire encoding (DESIGN §3.9), so each is a window
// into it. Every column is checked by DecodeValue's length rules and
// the record must be consumed whole, so a record Get refuses fails here
// with Get's error. enc is reused from record to record, and the bytes
// it windows are the scan's, valid until emit returns: a caller that
// keeps any of them copies them. Records returns the error emit
// returns.
func (t *Table) Records(cols []int, emit func(enc [][]byte) error) error {
	it, err := t.heap.Scan()
	if err != nil {
		return err
	}
	ends := make([]int, t.schema.Arity()+1) // column c is rec[ends[c]:ends[c+1]]
	enc := make([][]byte, len(cols))
	for {
		rec, rid, err := it.Next()
		if err != nil || rec == nil {
			return err
		}
		for i, c := range t.schema.Columns {
			n, err := types.ValueSize(c.Kind, rec[ends[i]:])
			if err != nil {
				return fmt.Errorf("storage: table %s record %v: column %q: %w", t.name, rid, c.Name, err)
			}
			ends[i+1] = ends[i] + n
		}
		if err := t.whole(rid, rec, ends[len(ends)-1]); err != nil {
			return err
		}
		for i, c := range cols {
			enc[i] = rec[ends[c]:ends[c+1]:ends[c+1]]
		}
		if err := emit(enc); err != nil {
			return err
		}
	}
}
