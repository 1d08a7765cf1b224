package dap

import (
	"fmt"

	"mocha/internal/storage"
	"mocha/internal/types"
)

// StorageDriver serves tables from the embedded object-relational store —
// the role Informix and Oracle8i play in the paper's prototype, accessed
// here through iterators rather than JDBC.
type StorageDriver struct {
	Store *storage.Store
}

// TableSchema implements AccessDriver.
func (d *StorageDriver) TableSchema(table string) (types.Schema, error) {
	t, ok := d.Store.Table(table)
	if !ok {
		return types.Schema{}, fmt.Errorf("dap: data server has no table %q", table)
	}
	return t.Schema(), nil
}

// Scan implements AccessDriver.
func (d *StorageDriver) Scan(table string, emit func(types.Tuple) error) error {
	t, ok := d.Store.Table(table)
	if !ok {
		return fmt.Errorf("dap: data server has no table %q", table)
	}
	it, err := t.Scan()
	if err != nil {
		return err
	}
	for {
		tup, _, err := it.Next()
		if err != nil {
			return err
		}
		if tup == nil {
			return nil
		}
		if err := emit(tup); err != nil {
			return err
		}
	}
}

// RecordScanner is optionally implemented by access drivers whose rows
// are stored in the wire tuple format (DESIGN §3.9), so that a fragment
// that lowers to no operator (exec.Forwarded) can forward them
// undecoded. ScanRecords calls emit for every row of the table with the
// encodings of the columns cols names, in that order, each checked by
// DecodeValue's length rules; the slices are valid only during the call.
// It returns the error emit returns (in particular exec.ErrStopped).
type RecordScanner interface {
	ScanRecords(table string, cols []int, emit func(enc [][]byte) error) error
}

// ScanRecords implements RecordScanner: a stored record is the row's
// wire encoding, and its columns are windows into the scan's page arena.
func (d *StorageDriver) ScanRecords(table string, cols []int, emit func([][]byte) error) error {
	t, ok := d.Store.Table(table)
	if !ok {
		return fmt.Errorf("dap: data server has no table %q", table)
	}
	it, err := t.Scan()
	if err != nil {
		return err
	}
	// ends[c] is where column c-1 ends and column c starts.
	ends := make([]int, t.Schema().Arity()+1)
	enc := make([][]byte, len(cols))
	for {
		rec, _, err := it.NextRecord(ends[1:])
		if err != nil {
			return err
		}
		if rec == nil {
			return nil
		}
		for i, c := range cols {
			enc[i] = rec[ends[c]:ends[c+1]:ends[c+1]]
		}
		if err := emit(enc); err != nil {
			return err
		}
	}
}
