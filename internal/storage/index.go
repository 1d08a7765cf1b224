package storage

import (
	"fmt"

	"mocha/internal/types"
)

// Secondary indexes: a B+tree over one INT column of a table, maintained
// on insert and delete. The DAP uses them to satisfy range predicates
// without full scans (a "local selection" iterator in the paper's
// terms).

// Index is a secondary index over one table column.
type Index struct {
	column int
	tree   *BTree
}

// Column returns the indexed column position.
func (ix *Index) Column() int { return ix.column }

// indexKey extracts the B+tree key for a value.
func indexKey(v types.Object) (int64, error) {
	i, ok := v.(types.Int)
	if !ok {
		return 0, fmt.Errorf("storage: index on %v column not supported (INT only)", v.Kind())
	}
	return int64(i), nil
}

// CreateIndex builds an in-memory-disk-backed index over an INT column
// and backfills it from existing rows.
func (t *Table) CreateIndex(column string) (*Index, error) {
	ci := t.schema.ColumnIndex(column)
	if ci < 0 {
		return nil, fmt.Errorf("storage: table %s has no column %q", t.name, column)
	}
	if t.schema.Columns[ci].Kind != types.KindInt {
		return nil, fmt.Errorf("storage: index on %v column %q not supported (INT only)",
			t.schema.Columns[ci].Kind, column)
	}
	for _, ix := range t.indexes {
		if ix.column == ci {
			return nil, fmt.Errorf("storage: column %q already indexed", column)
		}
	}
	bt, err := CreateBTree(NewBufferPool(NewMemDisk(), DefaultPoolFrames))
	if err != nil {
		return nil, err
	}
	ix := &Index{column: ci, tree: bt}
	// Backfill.
	it, err := t.Scan()
	if err != nil {
		return nil, err
	}
	for {
		tup, rid, err := it.Next()
		if err != nil {
			return nil, err
		}
		if tup == nil {
			break
		}
		key, err := indexKey(tup[ci])
		if err != nil {
			return nil, err
		}
		if err := bt.Insert(key, PackRID(rid)); err != nil {
			return nil, err
		}
	}
	t.indexes = append(t.indexes, ix)
	return ix, nil
}

// IndexOn returns the index over the given column position, if any.
func (t *Table) IndexOn(column int) (*Index, bool) {
	for _, ix := range t.indexes {
		if ix.column == column {
			return ix, true
		}
	}
	return nil, false
}

// IndexScan calls emit, in key order, for every record whose indexed
// column value lies in [lo, hi], with the encodings of the columns cols
// names, checked and windowed as Records does, and the record's RID.
// Each record is its own copy, which nothing writes again.
func (t *Table) IndexScan(ix *Index, lo, hi int64, cols []int, emit func(enc [][]byte, rid RID) error) error {
	var rids []RID
	if err := ix.tree.Range(lo, hi, func(_ int64, v uint64) bool {
		rids = append(rids, UnpackRID(v))
		return true
	}); err != nil {
		return err
	}
	window := t.windows(cols)
	for _, rid := range rids {
		rec, err := t.heap.Get(rid)
		if err != nil {
			return err
		}
		enc, err := window(rid, rec)
		if err != nil {
			return err
		}
		if err := emit(enc, rid); err != nil {
			return err
		}
	}
	return nil
}

// maintainIndexesInsert adds a new row to every index.
func (t *Table) maintainIndexesInsert(tup types.Tuple, rid RID) error {
	for _, ix := range t.indexes {
		key, err := indexKey(tup[ix.column])
		if err != nil {
			return err
		}
		if err := ix.tree.Insert(key, PackRID(rid)); err != nil {
			return err
		}
	}
	return nil
}

// maintainIndexesDelete removes a row from every index.
func (t *Table) maintainIndexesDelete(tup types.Tuple, rid RID) error {
	for _, ix := range t.indexes {
		key, err := indexKey(tup[ix.column])
		if err != nil {
			return err
		}
		if _, err := ix.tree.Delete(key, PackRID(rid)); err != nil {
			return err
		}
	}
	return nil
}
