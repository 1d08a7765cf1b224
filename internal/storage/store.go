package storage

import (
	"encoding/xml"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"mocha/internal/types"
)

// Store manages the tables of one data site: a directory with one heap
// file per table plus an XML metadata file, or a purely in-memory
// equivalent when no directory is given (used by tests and benchmarks).
type Store struct {
	dir    string
	frames int

	mu     sync.Mutex
	tables map[string]*Table
	meta   storeMeta
}

type storeMeta struct {
	XMLName xml.Name    `xml:"store"`
	Tables  []tableMeta `xml:"table"`
}

type tableMeta struct {
	Name    string         `xml:"name,attr"`
	Columns []types.Column `xml:"column"`
}

// DefaultPoolFrames is the per-table buffer pool size.
const DefaultPoolFrames = 512

// OpenStore opens (creating if needed) the store in dir. An empty dir
// yields an in-memory store.
func OpenStore(dir string, poolFrames int) (*Store, error) {
	if poolFrames <= 0 {
		poolFrames = DefaultPoolFrames
	}
	s := &Store{dir: dir, frames: poolFrames, tables: make(map[string]*Table)}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create store dir: %w", err)
	}
	metaPath := filepath.Join(dir, "store.xml")
	data, err := os.ReadFile(metaPath)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: read store metadata: %w", err)
	}
	if err := xml.Unmarshal(data, &s.meta); err != nil {
		return nil, fmt.Errorf("storage: parse store metadata: %w", err)
	}
	for _, tm := range s.meta.Tables {
		if _, err := s.attach(tm.Name, types.Schema{Columns: tm.Columns}, false); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// attach opens the heap file of table name, or with create makes it, and
// adds the table. Names are read from store.xml, which comes from outside
// the program: a name must be a file name in the store's directory and
// new, and opening a store creates no file.
func (s *Store) attach(name string, schema types.Schema, create bool) (*Table, error) {
	if !filepath.IsLocal(name) || filepath.Base(name) != name {
		return nil, fmt.Errorf("storage: %q is not a table name", name)
	}
	if _, exists := s.tables[name]; exists {
		return nil, fmt.Errorf("storage: table %s already exists", name)
	}
	var disk DiskManager
	if s.dir == "" {
		disk = NewMemDisk()
	} else {
		fd, err := OpenFileDisk(filepath.Join(s.dir, name+".heap"), create)
		if err != nil {
			return nil, err
		}
		disk = fd
	}
	bp := NewBufferPool(disk, s.frames)
	open := OpenHeapFile
	if create {
		open = CreateHeapFile
	}
	heap, err := open(bp)
	if err != nil {
		disk.Close()
		return nil, fmt.Errorf("storage: table %s: %w", name, err)
	}
	t := NewTable(name, schema, heap, bp)
	s.tables[name] = t
	return t, nil
}

// Create makes a new table.
func (s *Store) Create(name string, schema types.Schema) (*Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.attach(name, schema, true)
	if err != nil {
		return nil, err
	}
	s.meta.Tables = append(s.meta.Tables, tableMeta{Name: name, Columns: schema.Columns})
	if err := s.saveMetaLocked(); err != nil {
		return nil, err
	}
	return t, nil
}

// Table returns the named table.
func (s *Store) Table(name string) (*Table, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[name]
	return t, ok
}

// TableNames lists tables, sorted.
func (s *Store) TableNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (s *Store) saveMetaLocked() error {
	if s.dir == "" {
		return nil
	}
	data, err := xml.MarshalIndent(&s.meta, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(s.dir, "store.xml"), data, 0o644)
}

// Close flushes all tables and closes their files.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for _, t := range s.tables {
		if err := t.pool.FlushAll(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := t.pool.disk.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
