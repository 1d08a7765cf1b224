// Package catalog implements MOCHA's metadata catalog (section 3.5).
// Views, data types and query operators are "resources" identified by a
// URI, each described by an RDF-style XML document. The catalog drives
// both query optimization (table statistics, operator selectivities) and
// automatic code deployment (mapping operators to repository classes).
package catalog

import (
	"encoding/xml"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"mocha/internal/ops"
	"mocha/internal/types"
)

// ColumnStats records the average wire size of one column's values; the
// VRF computation is built on these.
type ColumnStats struct {
	Name     string `xml:"name,attr"`
	AvgBytes int    `xml:"avg-bytes,attr"`
}

// TableStats summarizes a table for the optimizer.
type TableStats struct {
	RowCount int64         `xml:"row-count,attr"`
	Columns  []ColumnStats `xml:"column"`
}

// AvgTupleBytes is the mean wire size of a full tuple.
func (s TableStats) AvgTupleBytes() int {
	var n int
	for _, c := range s.Columns {
		n += c.AvgBytes
	}
	return n
}

// AvgColBytes returns the average size of the named column (0 if
// unknown).
func (s TableStats) AvgColBytes(name string) int {
	for _, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return c.AvgBytes
		}
	}
	return 0
}

// TableDef describes one distributed relation: where it lives, its
// middleware schema and its statistics.
type TableDef struct {
	Name   string
	URI    string
	Site   string // name of the data site whose DAP serves this table
	Schema types.Schema
	Stats  TableStats
	// Placement, when non-nil, shards the table across the fleet: rows
	// live in per-partition physical tables on replica sites, and Site
	// only names the primary replica of the first partition (a
	// compatibility anchor for code that wants "the" site).
	Placement *Placement
}

// Site describes a data site: the network address its DAP listens on.
type Site struct {
	Name string `xml:"name,attr"`
	Addr string `xml:"addr,attr"`
}

// Catalog is the QPC's metadata store. It is safe for concurrent use.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*TableDef
	sites  map[string]*Site
	sel    map[string]float64 // predicate selectivities, keyed op\x00table
	ops    *ops.Registry
	repo   *Repository
}

// New creates a catalog over an operator registry and code repository.
func New(reg *ops.Registry, repo *Repository) *Catalog {
	return &Catalog{
		tables: make(map[string]*TableDef),
		sites:  make(map[string]*Site),
		sel:    make(map[string]float64),
		ops:    reg,
		repo:   repo,
	}
}

// Ops returns the operator registry.
func (c *Catalog) Ops() *ops.Registry { return c.ops }

// Repo returns the code repository.
func (c *Catalog) Repo() *Repository { return c.repo }

// AddSite registers a data site.
func (c *Catalog) AddSite(s *Site) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sites[strings.ToLower(s.Name)] = s
}

// SiteByName resolves a site.
func (c *Catalog) SiteByName(name string) (*Site, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.sites[strings.ToLower(name)]
	return s, ok
}

// Sites lists registered data sites, sorted by name (the heartbeat
// prober's worklist).
func (c *Catalog) Sites() []*Site {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Site, 0, len(c.sites))
	for _, s := range c.sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AddTable registers a table definition.
func (c *Catalog) AddTable(t *TableDef) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(t.Name)
	if _, dup := c.tables[key]; dup {
		return fmt.Errorf("catalog: table %s already registered", t.Name)
	}
	if _, ok := c.sites[strings.ToLower(t.Site)]; !ok {
		return fmt.Errorf("catalog: table %s references unknown site %q", t.Name, t.Site)
	}
	if t.Placement != nil {
		known := func(site string) bool {
			_, ok := c.sites[strings.ToLower(site)]
			return ok
		}
		if err := t.Placement.Validate(t.Schema, known); err != nil {
			return fmt.Errorf("catalog: table %s placement: %w", t.Name, err)
		}
	}
	c.tables[key] = t
	return nil
}

// Table resolves a table by name.
func (c *Catalog) Table(name string) (*TableDef, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	return t, ok
}

// TableNames lists registered tables, sorted.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

// SetSelectivity records the estimated selectivity of a predicate
// operator applied to a table, as stored by the paper's catalog
// ("selectivity of various operators").
func (c *Catalog) SetSelectivity(operator, table string, sf float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sel[selKey(operator, table)] = sf
}

// DefaultSelectivity is assumed when the catalog has no estimate.
const DefaultSelectivity = 1.0 / 3

// Selectivity returns the estimated selectivity for (operator, table).
func (c *Catalog) Selectivity(operator, table string) float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if sf, ok := c.sel[selKey(operator, table)]; ok {
		return sf
	}
	return DefaultSelectivity
}

func selKey(op, table string) string {
	return strings.ToLower(op) + "\x00" + strings.ToLower(table)
}

// catalogDoc is the XML persistence format.
type catalogDoc struct {
	XMLName xml.Name   `xml:"catalog"`
	Sites   []*Site    `xml:"site"`
	Tables  []tableDoc `xml:"table"`
	Sels    []selDoc   `xml:"selectivity"`
}

type tableDoc struct {
	Name      string         `xml:"name,attr"`
	URI       string         `xml:"uri,attr"`
	Site      string         `xml:"site,attr"`
	Columns   []types.Column `xml:"column"`
	Stats     TableStats     `xml:"stats"`
	Placement *Placement     `xml:"placement"`
}

type selDoc struct {
	Operator string  `xml:"operator,attr"`
	Table    string  `xml:"table,attr"`
	SF       float64 `xml:"sf,attr"`
}

// Save writes the catalog (sites, tables, selectivities) as XML.
func (c *Catalog) Save(path string) error {
	c.mu.RLock()
	doc := catalogDoc{}
	for _, s := range c.sites {
		doc.Sites = append(doc.Sites, s)
	}
	for _, t := range c.tables {
		doc.Tables = append(doc.Tables, tableDoc{Name: t.Name, URI: t.URI, Site: t.Site,
			Columns: t.Schema.Columns, Stats: t.Stats, Placement: t.Placement.Clone()})
	}
	for k, sf := range c.sel {
		parts := strings.SplitN(k, "\x00", 2)
		doc.Sels = append(doc.Sels, selDoc{Operator: parts[0], Table: parts[1], SF: sf})
	}
	c.mu.RUnlock()
	sort.Slice(doc.Sites, func(i, j int) bool { return doc.Sites[i].Name < doc.Sites[j].Name })
	sort.Slice(doc.Tables, func(i, j int) bool { return doc.Tables[i].Name < doc.Tables[j].Name })
	sort.Slice(doc.Sels, func(i, j int) bool {
		return doc.Sels[i].Operator+doc.Sels[i].Table < doc.Sels[j].Operator+doc.Sels[j].Table
	})
	data, err := xml.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Load merges a saved catalog file into c.
func (c *Catalog) Load(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc catalogDoc
	if err := xml.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("catalog: parse %s: %w", path, err)
	}
	for _, s := range doc.Sites {
		c.AddSite(s)
	}
	for _, td := range doc.Tables {
		if err := c.AddTable(&TableDef{Name: td.Name, URI: td.URI, Site: td.Site, Schema: types.Schema{Columns: td.Columns}, Stats: td.Stats, Placement: td.Placement}); err != nil {
			return err
		}
	}
	for _, s := range doc.Sels {
		c.SetSelectivity(s.Operator, s.Table, s.SF)
	}
	return nil
}
