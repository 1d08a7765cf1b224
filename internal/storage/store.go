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
		disk, err := OpenFileDisk(filepath.Join(dir, tm.Name+".heap"))
		if err != nil {
			return nil, err
		}
		bp := NewBufferPool(disk, poolFrames)
		heap, err := OpenHeapFile(bp)
		if err != nil {
			disk.Close()
			return nil, fmt.Errorf("storage: table %s: %w", tm.Name, err)
		}
		s.tables[tm.Name] = NewTable(tm.Name, types.Schema{Columns: tm.Columns}, heap, bp)
	}
	return s, nil
}

// Create makes a new table.
func (s *Store) Create(name string, schema types.Schema) (*Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.tables[name]; exists {
		return nil, fmt.Errorf("storage: table %s already exists", name)
	}
	var disk DiskManager
	if s.dir == "" {
		disk = NewMemDisk()
	} else {
		path := filepath.Join(s.dir, name+".heap")
		if _, err := os.Stat(path); err == nil {
			return nil, fmt.Errorf("storage: heap file for %s already exists", name)
		}
		fd, err := OpenFileDisk(path)
		if err != nil {
			return nil, err
		}
		disk = fd
	}
	bp := NewBufferPool(disk, s.frames)
	heap, err := CreateHeapFile(bp)
	if err != nil {
		disk.Close()
		return nil, err
	}
	t := NewTable(name, schema, heap, bp)
	s.tables[name] = t
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

// Drop removes a table and its heap file.
func (s *Store) Drop(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[name]
	if !ok {
		return fmt.Errorf("storage: no table %s", name)
	}
	delete(s.tables, name)
	for i, tm := range s.meta.Tables {
		if tm.Name == name {
			s.meta.Tables = append(s.meta.Tables[:i], s.meta.Tables[i+1:]...)
			break
		}
	}
	_ = t.pool.FlushAll()
	if s.dir != "" {
		if err := os.Remove(filepath.Join(s.dir, name+".heap")); err != nil {
			return err
		}
		return s.saveMetaLocked()
	}
	return nil
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

// Close flushes all tables.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for _, t := range s.tables {
		if err := t.pool.FlushAll(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
