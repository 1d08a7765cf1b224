package mocha

import (
	"fmt"

	"mocha/internal/catalog"
	"mocha/internal/storage"
)

// Partitioned tables. A Sequoia-style table can be range- or
// hash-partitioned across several DAP sites and replicated K-way: each
// partition's rows live in a physical per-shard table present on every
// replica site, and the catalog records the placement so the optimizer
// scatters per-partition fragments (pruned by WHERE predicates on the
// partition key) and gathers their streams in partition order.

// PartitionSpec re-exports the catalog placement: partition key, kind
// (range or hash) and the shard list in partition order.
type PartitionSpec = catalog.Placement

// PartitionPart re-exports one shard of a PartitionSpec.
type PartitionPart = catalog.Partition

// Placement kinds.
const (
	PlaceRange = catalog.PlaceRange
	PlaceHash  = catalog.PlaceHash
)

// PartitionTableName names partition i's physical table for a logical
// table — the convention SplitTable and the placement builders share.
func PartitionTableName(table string, i int) string {
	return fmt.Sprintf("%s__p%d", table, i)
}

// RangePlacement builds an n-way range placement on key for table,
// where n = len(cuts)+1: partition 0 holds keys below cuts[0],
// partition i holds [cuts[i-1], cuts[i]), and the last partition holds
// keys from cuts[n-2] up. replicas[i] lists partition i's replica
// sites, primary first; len(replicas) must be n.
func RangePlacement(table, key string, cuts []int64, replicas [][]string) *PartitionSpec {
	n := len(cuts) + 1
	spec := &PartitionSpec{Key: key, Kind: PlaceRange}
	for i := 0; i < n; i++ {
		part := PartitionPart{Table: PartitionTableName(table, i)}
		if i < len(replicas) {
			part.Replicas = append([]string(nil), replicas[i]...)
		}
		if i > 0 {
			part.HasLo, part.Lo = true, cuts[i-1]
		}
		if i < len(cuts) {
			part.HasHi, part.Hi = true, cuts[i]
		}
		spec.Parts = append(spec.Parts, part)
	}
	return spec
}

// HashPlacement builds a hash placement on key for table with
// len(replicas) buckets; replicas[i] lists bucket i's replica sites,
// primary first.
func HashPlacement(table, key string, replicas [][]string) *PartitionSpec {
	spec := &PartitionSpec{Key: key, Kind: PlaceHash}
	for i, reps := range replicas {
		spec.Parts = append(spec.Parts, PartitionPart{
			Table:    PartitionTableName(table, i),
			Replicas: append([]string(nil), reps...),
			Bucket:   i,
		})
	}
	return spec
}

// SplitTable shards a generated table according to spec: every row is
// routed by its partition key into its shard's physical table, written
// to each of the shard's replica stores. When oracle is non-nil the
// rows are also appended to oracle's oracleName table in
// partition-concatenation order — the single-site reference layout
// that a scattered, gathered scan reproduces byte-for-byte.
func SplitTable(src *storage.Table, spec *PartitionSpec, stores map[string]*storage.Store, oracle *storage.Store, oracleName string) error {
	schema := src.Schema()
	ki := schema.ColumnIndex(spec.Key)
	if ki < 0 {
		return fmt.Errorf("mocha: partition key %q is not a column", spec.Key)
	}

	// Route rows into per-partition buckets first: the oracle needs
	// partition-concatenation order, not source order.
	buckets := make([][]Tuple, len(spec.Parts))
	it, err := src.Scan()
	if err != nil {
		return err
	}
	for {
		tup, _, err := it.Next()
		if err != nil {
			return err
		}
		if tup == nil {
			break
		}
		pi, err := spec.Route(tup[ki])
		if err != nil {
			return err
		}
		buckets[pi] = append(buckets[pi], tup)
	}

	for pi, part := range spec.Parts {
		for _, site := range part.Replicas {
			st, ok := stores[site]
			if !ok {
				return fmt.Errorf("mocha: partition %d replicates on site %q with no store", pi, site)
			}
			tbl, err := st.Create(part.Table, schema)
			if err != nil {
				return err
			}
			for _, tup := range buckets[pi] {
				if _, err := tbl.Insert(tup); err != nil {
					return err
				}
			}
		}
	}
	if oracle != nil {
		tbl, err := oracle.Create(oracleName, schema)
		if err != nil {
			return err
		}
		for _, rows := range buckets {
			for _, tup := range rows {
				if _, err := tbl.Insert(tup); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// RegisterPartitionedTable registers a sharded logical table: the
// schema comes from the first shard's primary replica, the statistics
// sum every shard once (replicas hold copies, not extra rows), and the
// placement is recorded for the optimizer's scatter/gather planning.
// The shards' physical tables must already exist on their replica
// sites (see SplitTable).
func (cl *Cluster) RegisterPartitionedTable(name string, spec *PartitionSpec) error {
	if len(spec.Parts) == 0 {
		return fmt.Errorf("mocha: placement for %s has no partitions", name)
	}
	var schema Schema
	shards := make([]catalog.TableStats, len(spec.Parts))
	for pi, part := range spec.Parts {
		primary := part.Replicas[0]
		cl.mu.Lock()
		driver, ok := cl.drivers[primary]
		cl.mu.Unlock()
		if !ok {
			return fmt.Errorf("mocha: unknown site %q", primary)
		}
		ps, err := driver.TableSchema(part.Table)
		if err != nil {
			return fmt.Errorf("mocha: partition %d of %s: %w", pi, name, err)
		}
		if pi == 0 {
			schema = ps
		}
		if shards[pi], err = computeDriverStats(driver, part.Table, ps); err != nil {
			return err
		}
	}
	return cl.catalog.AddTable(&catalog.TableDef{
		Name:      name,
		URI:       "mocha://partitioned/" + name,
		Site:      spec.Parts[0].Replicas[0],
		Schema:    schema,
		Stats:     catalog.ShardStats(schema, shards),
		Placement: spec.Clone(),
	})
}
