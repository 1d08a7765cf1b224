// mocha-datagen generates the Sequoia 2000 benchmark datasets into
// on-disk stores for two data sites and writes the matching QPC catalog.
//
// Usage:
//
//	mocha-datagen -out /var/mocha -scale 0.1 \
//	    -site1 localhost:7701 -site2 localhost:7702
//
// Then:
//
//	mocha-dap -site site1 -data /var/mocha/site1 -listen :7701
//	mocha-dap -site site2 -data /var/mocha/site2 -listen :7702
//	mocha-qpc -catalog /var/mocha/catalog.xml
package main

import (
	"flag"
	"fmt"
	"log"
	"path/filepath"

	"mocha/internal/catalog"
	"mocha/internal/ops"
	"mocha/internal/sequoia"
	"mocha/internal/storage"
	"mocha/pkg/mocha"
)

func main() {
	out := flag.String("out", "mocha-data", "output directory")
	scale := flag.Float64("scale", 0.1, "dataset scale (1.0 = the paper's Table 1 sizes; 200+ MB)")
	site1 := flag.String("site1", "localhost:7701", "DAP address for site1 in the catalog")
	site2 := flag.String("site2", "localhost:7702", "DAP address for site2 in the catalog")
	seed := flag.Int64("seed", 42, "generator seed")
	partitions := flag.Int("partitions", 1, "range-partition Rasters on time into N shards across the sites (1 = single table)")
	replicas := flag.Int("replicas", 1, "replica sites per Rasters shard (capped at the site count)")
	flag.Parse()

	cfg := sequoia.Scaled(*scale)
	cfg.Seed = *seed

	s1, err := storage.OpenStore(filepath.Join(*out, "site1"), 0)
	if err != nil {
		log.Fatal(err)
	}
	s2, err := storage.OpenStore(filepath.Join(*out, "site2"), 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("generating at scale %.3f (Polygons %d, Graphs %d, Rasters %d×%dpx)...\n",
		*scale, cfg.PolygonRows, cfg.GraphRows, cfg.RasterRows, cfg.RasterDim)
	if err := sequoia.GenerateAll(s1, cfg); err != nil {
		log.Fatal(err)
	}
	if err := sequoia.GenerateJoinPair(s1, s2, cfg); err != nil {
		log.Fatal(err)
	}

	stores := map[string]*storage.Store{"site1": s1, "site2": s2}
	var spec *mocha.PartitionSpec
	if *partitions > 1 {
		src, ok := s1.Table("Rasters")
		if !ok {
			log.Fatal("missing table Rasters")
		}
		spec, err = shardRasters(src, stores, *partitions, *replicas)
		if err != nil {
			log.Fatal(err)
		}
	}

	reg := ops.Builtins()
	cat := catalog.New(reg, catalog.NewRepositoryFromRegistry(reg))
	cat.AddSite(&catalog.Site{Name: "site1", Addr: *site1})
	cat.AddSite(&catalog.Site{Name: "site2", Addr: *site2})
	register := func(store *storage.Store, site, table string) {
		tbl, ok := store.Table(table)
		if !ok {
			log.Fatalf("missing table %s", table)
		}
		stats, err := mocha.ComputeTableStats(tbl)
		if err != nil {
			log.Fatal(err)
		}
		if err := cat.AddTable(&catalog.TableDef{
			Name: table, URI: "mocha://" + site + "/" + table,
			Site: site, Schema: tbl.Schema(), Stats: stats,
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s %8d rows, %5d avg bytes/row  @ %s\n",
			table, stats.RowCount, stats.AvgTupleBytes(), site)
	}
	for _, tbl := range []string{"Polygons", "Graphs", "Rasters", "Rasters1"} {
		if tbl == "Rasters" && spec != nil {
			continue
		}
		register(s1, "site1", tbl)
	}
	register(s2, "site2", "Rasters2")
	if spec != nil {
		if err := registerPartitioned(cat, stores, "Rasters", spec); err != nil {
			log.Fatal(err)
		}
	}

	if err := s1.Close(); err != nil {
		log.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		log.Fatal(err)
	}
	catPath := filepath.Join(*out, "catalog.xml")
	if err := cat.Save(catPath); err != nil {
		log.Fatal(err)
	}
	fmt.Println("catalog written to", catPath)
}

// shardRasters range-partitions the generated Rasters table on time into
// n shards with k-way replication, assigning each shard's replica set
// round-robin over the sites so primaries alternate.
func shardRasters(src *storage.Table, stores map[string]*storage.Store, n, k int) (*mocha.PartitionSpec, error) {
	sites := []string{"site1", "site2"}
	if k < 1 {
		k = 1
	}
	if k > len(sites) {
		k = len(sites)
	}
	ti := src.Schema().ColumnIndex("time")
	if ti < 0 {
		return nil, fmt.Errorf("Rasters has no time column")
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
		for j := 0; j < k; j++ {
			sets[i] = append(sets[i], sites[(i+j)%len(sites)])
		}
	}
	spec := mocha.RangePlacement("Rasters", "time", cuts, sets)
	if err := mocha.SplitTable(src, spec, stores, nil, ""); err != nil {
		return nil, err
	}
	return spec, nil
}

// registerPartitioned catalogs a sharded logical table: schema from the
// first shard's primary, statistics summed over every shard once, and
// the placement recorded so the QPC plans scatter/gather over it.
func registerPartitioned(cat *catalog.Catalog, stores map[string]*storage.Store, name string, spec *mocha.PartitionSpec) error {
	var schema mocha.Schema
	shards := make([]catalog.TableStats, len(spec.Parts))
	for pi, part := range spec.Parts {
		tbl, ok := stores[part.Replicas[0]].Table(part.Table)
		if !ok {
			return fmt.Errorf("missing shard table %s", part.Table)
		}
		if pi == 0 {
			schema = tbl.Schema()
		}
		var err error
		if shards[pi], err = mocha.ComputeTableStats(tbl); err != nil {
			return err
		}
		fmt.Printf("  %-10s %8d rows  @ %v\n", part.Table, shards[pi].RowCount, part.Replicas)
	}
	total := catalog.ShardStats(schema, shards)
	if err := cat.AddTable(&catalog.TableDef{
		Name: name, URI: "mocha://partitioned/" + name,
		Site: spec.Parts[0].Replicas[0], Schema: schema,
		Stats: total, Placement: spec.Clone(),
	}); err != nil {
		return err
	}
	fmt.Printf("  %-10s %8d rows, %5d avg bytes/row  (%d shards)\n",
		name, total.RowCount, total.AvgTupleBytes(), len(spec.Parts))
	return nil
}
