// Package storage implements the Data Server substrate (section 3.4): an
// embedded object-relational storage engine playing the role the paper
// assigns to Informix and Oracle8i behind each DAP. It provides page-
// based heap files with overflow chains (raster attributes are ~1 MB,
// far larger than a page), an LRU buffer pool, a disk-backed B+tree
// index, and typed tables over the middleware schema.
package storage

import (
	"fmt"
	"os"
	"sync"
)

// PageSize is the fixed on-disk page size.
const PageSize = 8192

// PageID identifies a page within one file.
type PageID uint32

// InvalidPageID is the nil page pointer.
const InvalidPageID PageID = 0xFFFFFFFF

// DiskManager abstracts page-granular storage for one file.
type DiskManager interface {
	// ReadPage fills buf (len PageSize) with the page's content.
	ReadPage(id PageID, buf []byte) error
	// WritePage persists buf (len PageSize) as the page's content.
	WritePage(id PageID, buf []byte) error
	// AllocatePage grows the file by one zeroed page.
	AllocatePage() (PageID, error)
	// NumPages returns the current page count.
	NumPages() uint32
	// Sync flushes to stable storage.
	Sync() error
	// Close releases resources.
	Close() error
}

// FileDisk is a DiskManager over an operating-system file.
type FileDisk struct {
	mu    sync.Mutex
	f     *os.File
	pages uint32
}

// OpenFileDisk opens a page file, or with create makes a new one.
func OpenFileDisk(path string, create bool) (*FileDisk, error) {
	flag := os.O_RDWR
	if create {
		flag |= os.O_CREATE | os.O_EXCL
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s is not page-aligned (%d bytes)", path, st.Size())
	}
	return &FileDisk{f: f, pages: uint32(st.Size() / PageSize)}, nil
}

// ReadPage implements DiskManager.
func (d *FileDisk) ReadPage(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if uint32(id) >= d.pages {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	_, err := d.f.ReadAt(buf[:PageSize], int64(id)*PageSize)
	return err
}

// WritePage implements DiskManager.
func (d *FileDisk) WritePage(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if uint32(id) >= d.pages {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	_, err := d.f.WriteAt(buf[:PageSize], int64(id)*PageSize)
	return err
}

// AllocatePage implements DiskManager.
func (d *FileDisk) AllocatePage() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := PageID(d.pages)
	if id == InvalidPageID {
		return 0, fmt.Errorf("storage: file full")
	}
	zero := make([]byte, PageSize)
	if _, err := d.f.WriteAt(zero, int64(id)*PageSize); err != nil {
		return 0, err
	}
	d.pages++
	return id, nil
}

// NumPages implements DiskManager.
func (d *FileDisk) NumPages() uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pages
}

// Sync implements DiskManager.
func (d *FileDisk) Sync() error { return d.f.Sync() }

// Close implements DiskManager.
func (d *FileDisk) Close() error { return d.f.Close() }

// MemDisk is an in-memory DiskManager, used by tests and by benchmark
// runs that want to exclude real disk latency.
type MemDisk struct {
	mu    sync.Mutex
	pages [][]byte
}

// NewMemDisk returns an empty in-memory disk.
func NewMemDisk() *MemDisk { return &MemDisk{} }

// ReadPage implements DiskManager.
func (d *MemDisk) ReadPage(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("storage: read of unallocated page %d", id)
	}
	copy(buf[:PageSize], d.pages[id])
	return nil
}

// WritePage implements DiskManager.
func (d *MemDisk) WritePage(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.pages) {
		return fmt.Errorf("storage: write of unallocated page %d", id)
	}
	copy(d.pages[id], buf[:PageSize])
	return nil
}

// AllocatePage implements DiskManager.
func (d *MemDisk) AllocatePage() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pages = append(d.pages, make([]byte, PageSize))
	return PageID(len(d.pages) - 1), nil
}

// NumPages implements DiskManager.
func (d *MemDisk) NumPages() uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return uint32(len(d.pages))
}

// Sync implements DiskManager.
func (d *MemDisk) Sync() error { return nil }

// Close implements DiskManager.
func (d *MemDisk) Close() error { return nil }
