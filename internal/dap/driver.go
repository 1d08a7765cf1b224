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

// Scan implements AccessDriver: a stored record is the row's wire
// encoding, and its columns are windows into the scan's reused buffers.
func (d *StorageDriver) Scan(table string, cols []int, emit func([][]byte) error) error {
	t, ok := d.Store.Table(table)
	if !ok {
		return fmt.Errorf("dap: data server has no table %q", table)
	}
	return t.Records(cols, emit)
}
