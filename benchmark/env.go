package main

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"sort"

	"mocha/internal/netsim"
	"mocha/internal/sequoia"
	"mocha/internal/storage"
	"mocha/internal/types"
	"mocha/pkg/mocha"
)

// defaultScale is the Sequoia scale every contract run uses (README.md,
// "Sizing", records why 0.05).
const defaultScale = 0.05

// dataset is the generated Sequoia data: three site stores, wired as
// internal/bench.NewEnv wires them (re-implemented here so the seed is
// settable), plus the six statements of the mix.
type dataset struct {
	cfg    sequoia.Config
	stores [3]*storage.Store
	// sql[i] is statement Q(i+1).
	sql [6]string
	// q4Cal is the 25 % calibration point Q4 runs at.
	q4Cal sequoia.Q4Calibration
}

var siteNames = [3]string{"site1", "site2", "site3"}

// siteTables lists the tables each site registers.
var siteTables = [3][]string{
	{"Polygons", "Graphs", "Rasters", "Rasters1"},
	{"Rasters2"},
	{"Rasters3"},
}

func newDataset(seed int64, scale float64) (*dataset, error) {
	cfg := sequoia.Scaled(scale)
	cfg.Seed = seed
	ds := &dataset{cfg: cfg}
	for i := range ds.stores {
		s, err := mocha.NewStore()
		if err != nil {
			return nil, err
		}
		ds.stores[i] = s
	}
	if err := sequoia.GenerateAll(ds.stores[0], cfg); err != nil {
		return nil, err
	}
	if err := sequoia.GenerateJoinPair(ds.stores[0], ds.stores[1], cfg); err != nil {
		return nil, err
	}
	if err := sequoia.GenerateJoinThird(ds.stores[2], cfg); err != nil {
		return nil, err
	}
	cals, err := sequoia.CalibrateQ4(ds.stores[0], []float64{0.25})
	if err != nil {
		return nil, err
	}
	ds.q4Cal = cals[0]
	ds.sql = [6]string{
		sequoia.Q1, sequoia.Q2(cfg), sequoia.Q3,
		sequoia.Q4(ds.q4Cal.MaxVerts, ds.q4Cal.MaxLength),
		sequoia.Q5, sequoia.Q6,
	}
	return ds, nil
}

// cluster stands up a three-site cluster over the dataset's stores,
// which the oracle cluster and the workload cluster share read-only.
func (ds *dataset) cluster(cc mocha.ClusterConfig) (*mocha.Cluster, error) {
	cl, err := mocha.NewCluster(cc)
	if err != nil {
		return nil, err
	}
	for i, site := range siteNames {
		if err := cl.AddSite(site, ds.stores[i]); err != nil {
			return nil, err
		}
		for _, tbl := range siteTables[i] {
			if err := cl.RegisterTable(site, tbl); err != nil {
				return nil, err
			}
		}
	}
	// The two SetSelectivity calls Fig 10 makes for its Q4 point.
	cl.SetSelectivity("NumVertices", "Graphs", ds.q4Cal.VertSelectivity)
	cl.SetSelectivity("TotalLength", "Graphs", ds.q4Cal.LenSelectivity)
	return cl, nil
}

func (w workloadDef) clusterConfig() mocha.ClusterConfig {
	cc := mocha.ClusterConfig{Strategy: w.Strategy}
	if w.Shaped {
		cc.Shaper = netsim.Ethernet10Mbps
	}
	cc.Exec.MemBudgetBytes = w.MemBudget
	return cc
}

// rowDigest is the sorted multiset of per-row hashes of a result.
type rowDigest []uint64

var digestSeed = maphash.MakeSeed()

// digester hashes result rows one at a time, reusing its encode buffer.
type digester struct {
	buf  []byte
	rows rowDigest
}

func (d *digester) add(t types.Tuple) {
	d.buf = t.AppendTo(d.buf[:0])
	d.rows = append(d.rows, maphash.Bytes(digestSeed, d.buf))
}

func (d *digester) finish() rowDigest {
	sort.Slice(d.rows, func(i, j int) bool { return d.rows[i] < d.rows[j] })
	return d.rows
}

func (a rowDigest) equal(b rowDigest) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// oracle computes the expected row multiset of every statement on an
// unshaped, ungoverned, data-shipping cluster, and cross-checks the row
// counts the generator fixes by construction, so an engine-wide failure
// (say, every query returning nothing) cannot make oracle and workload
// agree.
func (ds *dataset) oracle() ([6]rowDigest, error) {
	var want [6]rowDigest
	cl, err := ds.cluster(mocha.ClusterConfig{Strategy: mocha.StrategyDataShip})
	if err != nil {
		return want, err
	}
	// Close only flushes the (in-memory) stores, so the workload cluster
	// set up over the same stores afterwards still reads them.
	defer cl.Close()
	perLoc := ds.cfg.JoinTuplesPerLoc
	wantRows := [6]int{
		-1, // Q1: one row per land-use kind actually drawn; checked > 0
		ds.cfg.RasterRows,
		ds.cfg.RasterRows,
		int(ds.q4Cal.Actual*float64(ds.cfg.GraphRows) + 0.5),
		ds.cfg.JoinCommonLocations * perLoc * perLoc,
		ds.cfg.JoinCommonLocations * perLoc * perLoc * perLoc,
	}
	for i, sql := range ds.sql {
		res, err := cl.Execute(sql)
		if err != nil {
			return want, fmt.Errorf("oracle Q%d: %w", i+1, err)
		}
		if n := len(res.Rows); n == 0 || (wantRows[i] >= 0 && n != wantRows[i]) {
			return want, fmt.Errorf("oracle Q%d: %d rows, generator implies %d", i+1, n, wantRows[i])
		}
		var d digester
		for _, t := range res.Rows {
			d.add(t)
		}
		want[i] = d.finish()
	}
	return want, nil
}

// passOrder returns the statement order of the next pass: a permutation
// of the six statements drawn from the seeded generator, so the order is
// reproducible and no statement always runs behind the same predecessor.
func passOrder(rng *rand.Rand) [6]int {
	order := [6]int{0, 1, 2, 3, 4, 5}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}
