// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (section 5). It stands up an
// embedded cluster over a bandwidth-shaped network, loads scaled Sequoia
// 2000 data, runs each benchmark query under both placement strategies,
// and prints rows shaped like the paper's: execution-time breakdowns
// (DB/CPU/Net/Misc), data volumes (CVDA/CVDT) and CVRFs.
package bench

import (
	"fmt"
	"strings"

	"mocha/internal/netsim"
	"mocha/internal/sequoia"
	"mocha/internal/storage"
	"mocha/pkg/mocha"
)

// Env is a ready benchmark environment.
type Env struct {
	Cluster *mocha.Cluster
	Cfg     sequoia.Config
	// Shaper is the modeled link (nil = unshaped, for volume-only runs).
	Shaper *netsim.Shaper
	opts   Options
	stores map[string]*storage.Store
	// record accumulates labeled measurements for machine-readable
	// reports (see RunExperimentReport).
	record []Measurement
}

// siteStore returns a site's backing store (nil if unknown).
func (e *Env) siteStore(site string) *storage.Store { return e.stores[site] }

// NewEnvLike builds a fresh environment with the same options as e but
// the DAP code cache toggled.
func NewEnvLike(e *Env, disableCache bool) (*Env, error) {
	opts := e.opts
	opts.DisableDAPCodeCache = disableCache
	return NewEnv(opts)
}

// Options configures an environment.
type Options struct {
	// Scale shrinks the paper datasets (1.0 = Table 1 sizes).
	Scale float64
	// Shaper models the network (default: the paper's 10 Mbps Ethernet).
	Shaper *netsim.Shaper
	// Unshaped disables link shaping entirely (fast volume-focused runs).
	Unshaped bool
	// DisableDAPCodeCache forces per-query code re-shipping.
	DisableDAPCodeCache bool
	// Exec tunes the shared operator-tree executor (batch size, prefetch
	// depth, serial fallback, memory budget) on the QPC and every DAP.
	Exec mocha.Tuning
	// MaxConcurrent bounds concurrently executing queries on the QPC
	// (0 = unbounded).
	MaxConcurrent int
	// QueueDepth bounds queries waiting for an admission slot.
	QueueDepth int
	// RasterPartitions range-partitions Rasters on time into N shards
	// scattered over the three sites with 2-way replication (0 or 1 =
	// the standard single-site table).
	RasterPartitions int
}

// NewEnv builds the three-site benchmark deployment: site1 holds
// Polygons, Graphs, Rasters and Rasters1; site2 holds Rasters2; site3
// holds Rasters3 (the third leg of the Q6 multi-join).
func NewEnv(opts Options) (*Env, error) {
	if opts.Scale <= 0 {
		opts.Scale = 0.1
	}
	shaper := opts.Shaper
	if shaper == nil && !opts.Unshaped {
		shaper = netsim.Ethernet10Mbps
	}
	cfg := sequoia.Scaled(opts.Scale)
	cluster, err := mocha.NewCluster(mocha.ClusterConfig{
		Shaper:              shaper,
		DisableDAPCodeCache: opts.DisableDAPCodeCache,
		Exec:                opts.Exec,
		MaxConcurrent:       opts.MaxConcurrent,
		QueueDepth:          opts.QueueDepth,
	})
	if err != nil {
		return nil, err
	}
	s1, err := mocha.NewStore()
	if err != nil {
		return nil, err
	}
	s2, err := mocha.NewStore()
	if err != nil {
		return nil, err
	}
	s3, err := mocha.NewStore()
	if err != nil {
		return nil, err
	}
	if err := sequoia.GenerateAll(s1, cfg); err != nil {
		return nil, err
	}
	if err := sequoia.GenerateJoinPair(s1, s2, cfg); err != nil {
		return nil, err
	}
	if err := sequoia.GenerateJoinThird(s3, cfg); err != nil {
		return nil, err
	}
	if err := cluster.AddSite("site1", s1); err != nil {
		return nil, err
	}
	if err := cluster.AddSite("site2", s2); err != nil {
		return nil, err
	}
	if err := cluster.AddSite("site3", s3); err != nil {
		return nil, err
	}
	for _, tbl := range []string{"Polygons", "Graphs", "Rasters", "Rasters1"} {
		if tbl == "Rasters" && opts.RasterPartitions > 1 {
			continue
		}
		if err := cluster.RegisterTable("site1", tbl); err != nil {
			return nil, err
		}
	}
	if err := cluster.RegisterTable("site2", "Rasters2"); err != nil {
		return nil, err
	}
	if err := cluster.RegisterTable("site3", "Rasters3"); err != nil {
		return nil, err
	}
	if opts.RasterPartitions > 1 {
		stores := map[string]*storage.Store{"site1": s1, "site2": s2, "site3": s3}
		spec, err := shardRasters(stores, opts.RasterPartitions)
		if err != nil {
			return nil, err
		}
		if err := cluster.RegisterPartitionedTable("Rasters", spec); err != nil {
			return nil, err
		}
	}
	env := &Env{
		Cluster: cluster, Cfg: cfg, Shaper: shaper, opts: opts,
		stores: map[string]*storage.Store{"site1": s1, "site2": s2, "site3": s3},
	}
	return env, nil
}

// shardRasters range-partitions site1's generated Rasters table on time
// into n shards, each replicated on two sites assigned round-robin so
// primaries alternate across the fleet.
func shardRasters(stores map[string]*storage.Store, n int) (*mocha.PartitionSpec, error) {
	sites := []string{"site1", "site2", "site3"}
	src, ok := stores["site1"].Table("Rasters")
	if !ok {
		return nil, fmt.Errorf("bench: missing generated Rasters table")
	}
	ti := src.Schema().ColumnIndex("time")
	if ti < 0 {
		return nil, fmt.Errorf("bench: Rasters has no time column")
	}
	it, err := src.Scan()
	if err != nil {
		return nil, err
	}
	var lo, hi int64
	first := true
	for {
		tup, _, err := it.Next()
		if err != nil {
			return nil, err
		}
		if tup == nil {
			break
		}
		v := int64(tup[ti].(mocha.Int))
		if first || v < lo {
			lo = v
		}
		if first || v > hi {
			hi = v
		}
		first = false
	}
	cuts := make([]int64, 0, n-1)
	for i := 1; i < n; i++ {
		cuts = append(cuts, lo+(hi-lo+1)*int64(i)/int64(n))
	}
	sets := make([][]string, n)
	for i := range sets {
		sets[i] = []string{sites[i%len(sites)], sites[(i+1)%len(sites)]}
	}
	spec := mocha.RangePlacement("Rasters", "time", cuts, sets)
	if err := mocha.SplitTable(src, spec, stores, nil, ""); err != nil {
		return nil, err
	}
	return spec, nil
}

// Close releases the environment.
func (e *Env) Close() { e.Cluster.Close() }

// Measurement is one measured query execution.
type Measurement struct {
	// Label is the figure row name (Q1, Q2, a selectivity bucket, ...).
	Label    string
	Query    string
	Strategy string
	Rows     int
	Stats    mocha.QueryStats
}

// Run executes sql under the given strategy.
func (e *Env) Run(sql string, strategy mocha.Strategy) (Measurement, error) {
	e.Cluster.SetStrategy(strategy)
	res, err := e.Cluster.Execute(sql)
	if err != nil {
		return Measurement{}, fmt.Errorf("bench: %v: %w", strategy, err)
	}
	name := map[mocha.Strategy]string{
		mocha.StrategyAuto:     "auto",
		mocha.StrategyCodeShip: "DAP (code ship)",
		mocha.StrategyDataShip: "QPC (data ship)",
	}[strategy]
	return Measurement{Query: sql, Strategy: name, Rows: len(res.Rows), Stats: res.Stats}, nil
}

// runLabeled executes sql like Run and records the measurement under a
// figure label for the experiment's machine-readable report.
func (e *Env) runLabeled(label, sql string, strategy mocha.Strategy) (Measurement, error) {
	m, err := e.Run(sql, strategy)
	if err != nil {
		return m, err
	}
	m.Label = label
	e.record = append(e.record, m)
	return m, nil
}

// Table is a formatted experiment output.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

func oneLine(sql string) string {
	return strings.Join(strings.Fields(sql), " ")
}

func ms(v float64) string    { return fmt.Sprintf("%.1f", v) }
func bytesOf(v int64) string { return fmt.Sprintf("%d", v) }
func ratio(v float64) string { return fmt.Sprintf("%.6f", v) }

// breakdownRow renders a Measurement as a Figure 9(a)-style row.
func breakdownRow(label string, m Measurement) []string {
	s := m.Stats
	return []string{
		label, m.Strategy, ms(s.TotalMS), ms(s.DBMS), ms(s.CPUMS),
		ms(s.NetMS), ms(s.MiscMS), fmt.Sprintf("%d", m.Rows),
	}
}

// volumeRow renders a Measurement as a Figure 9(b)-style row.
func volumeRow(label string, m Measurement) []string {
	s := m.Stats
	return []string{
		label, m.Strategy, bytesOf(s.CVDA), bytesOf(s.CVDT),
		bytesOf(s.ResultBytes), ratio(s.CVRF()),
	}
}
