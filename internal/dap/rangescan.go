package dap

import (
	"mocha/internal/core"
	"mocha/internal/storage"
	"mocha/internal/types"
)

// RangeScanner is optionally implemented by access drivers that can
// satisfy a range restriction over one INT column without a full table
// scan (e.g. via a B+tree index). The boolean result reports whether the
// driver actually handled the range; false falls back to a full scan.
type RangeScanner interface {
	ScanRange(table string, column int, lo, hi int64, emit func(types.Tuple) error) (bool, error)
}

// ScanRange implements RangeScanner over the embedded store's secondary
// indexes.
func (d *StorageDriver) ScanRange(table string, column int, lo, hi int64, emit func(types.Tuple) error) (bool, error) {
	t, ok := d.Store.Table(table)
	if !ok {
		return false, nil
	}
	ix, ok := t.IndexOn(column)
	if !ok {
		return false, nil
	}
	err := t.IndexScan(ix, lo, hi, func(tup types.Tuple, _ storage.RID) error {
		return emit(tup)
	})
	return true, err
}

// scanSource drives the data extraction for a fragment: an index range
// scan when a driver index covers one of the fragment's range
// predicates, otherwise a full scan. It reports whether an index was
// used (for diagnostics).
func scanSource(driver AccessDriver, frag *core.Fragment, emit func(types.Tuple) error) (bool, error) {
	if rs, ok := driver.(RangeScanner); ok {
		for _, p := range frag.Predicates {
			col, lo, hi, match := core.ColumnRange(p)
			if !match || col < 0 || col >= len(frag.Cols) {
				continue
			}
			handled, err := rs.ScanRange(frag.Table, frag.Cols[col], lo, hi, emit)
			if err != nil {
				return true, err
			}
			if handled {
				// The predicate is re-applied by the executor, which is
				// redundant but keeps correctness independent of index
				// boundary semantics.
				return true, nil
			}
		}
	}
	return false, driver.Scan(frag.Table, emit)
}
