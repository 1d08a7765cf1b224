package catalog

import (
	"fmt"
	"sort"

	"mocha/internal/types"
)

// Placement kinds. A range placement carries per-partition [Lo, Hi)
// bounds on an integer partition key; a hash placement assigns each key
// to bucket Small.Hash() % len(Parts).
const (
	PlaceRange = "range"
	PlaceHash  = "hash"
)

// Partition is one shard of a partitioned table: the physical table
// name holding the shard's rows, the replica sites that store an exact
// copy (Replicas[0] is the primary, the replica plans prefer), and the
// key bounds or hash bucket selecting rows into it.
type Partition struct {
	Table    string   `xml:"table,attr"`
	Replicas []string `xml:"replica"`

	// Range placements: the shard holds keys k with
	// (!HasLo || k >= Lo) && (!HasHi || k < Hi).
	HasLo bool  `xml:"has-lo,attr,omitempty"`
	HasHi bool  `xml:"has-hi,attr,omitempty"`
	Lo    int64 `xml:"lo,attr,omitempty"`
	Hi    int64 `xml:"hi,attr,omitempty"`

	// Hash placements: the shard's bucket index (== its position).
	Bucket int `xml:"bucket,attr,omitempty"`
}

// Placement describes how a logical table is sharded across the fleet:
// the partition key column, the partitioning kind, and the shards in
// partition order. Partition order is semantic — a partitioned scan
// delivers shard streams concatenated in this order, so results stay
// byte-identical to a single table stored in the same concatenation.
type Placement struct {
	Key   string      `xml:"key,attr"`
	Kind  string      `xml:"kind,attr"`
	Parts []Partition `xml:"part"`
}

// Validate checks the placement against the logical schema and the set
// of known sites. It enforces the invariants the planner and the
// failover machinery rely on: a known key column, at least one shard,
// every shard named and replicated on known sites, contiguous hash
// buckets, and non-inverted range bounds.
func (p *Placement) Validate(schema types.Schema, knownSite func(string) bool) error {
	if p.Kind != PlaceRange && p.Kind != PlaceHash {
		return fmt.Errorf("placement kind %q: want %q or %q", p.Kind, PlaceRange, PlaceHash)
	}
	if schema.ColumnIndex(p.Key) < 0 {
		return fmt.Errorf("placement key %q is not a column", p.Key)
	}
	if len(p.Parts) == 0 {
		return fmt.Errorf("placement has no partitions")
	}
	for i, part := range p.Parts {
		if part.Table == "" {
			return fmt.Errorf("partition %d has no physical table name", i)
		}
		if len(part.Replicas) == 0 {
			return fmt.Errorf("partition %d (%s) has no replicas", i, part.Table)
		}
		seen := map[string]bool{}
		for _, site := range part.Replicas {
			if seen[site] {
				return fmt.Errorf("partition %d (%s) lists replica site %q twice", i, part.Table, site)
			}
			seen[site] = true
			if knownSite != nil && !knownSite(site) {
				return fmt.Errorf("partition %d (%s) replicates on unknown site %q", i, part.Table, site)
			}
		}
		switch p.Kind {
		case PlaceHash:
			if part.Bucket != i {
				return fmt.Errorf("partition %d (%s) has bucket %d; hash buckets must be contiguous", i, part.Table, part.Bucket)
			}
		case PlaceRange:
			if part.HasLo && part.HasHi && part.Lo >= part.Hi {
				return fmt.Errorf("partition %d (%s) has empty range [%d, %d)", i, part.Table, part.Lo, part.Hi)
			}
		}
	}
	return nil
}

// HashBucket maps a partition-key value to its bucket among n, using
// the type system's canonical Small hash — the single routing function
// shared by data loading and predicate pruning. The second result is
// false for values that cannot be hashed (large objects, nulls).
func HashBucket(v types.Object, n int) (int, bool) {
	s, ok := v.(types.Small)
	if !ok || n <= 0 {
		return 0, false
	}
	if _, isNull := v.(types.Null); isNull {
		return 0, false
	}
	return int(s.Hash() % uint64(n)), true
}

// IntKey extracts the int64 partition-key value range placements
// compare against. Only integer keys range-partition.
func IntKey(v types.Object) (int64, bool) {
	i, ok := v.(types.Int)
	if !ok {
		return 0, false
	}
	return int64(i), true
}

// Route returns the index of the partition that stores a row whose
// partition key is v.
func (p *Placement) Route(v types.Object) (int, error) {
	switch p.Kind {
	case PlaceHash:
		b, ok := HashBucket(v, len(p.Parts))
		if !ok {
			return 0, fmt.Errorf("placement: cannot hash key value %v", v)
		}
		return b, nil
	case PlaceRange:
		k, ok := IntKey(v)
		if !ok {
			return 0, fmt.Errorf("placement: range key value %v is not an integer", v)
		}
		for i, part := range p.Parts {
			if (!part.HasLo || k >= part.Lo) && (!part.HasHi || k < part.Hi) {
				return i, nil
			}
		}
		return 0, fmt.Errorf("placement: key %d falls in no partition range", k)
	}
	return 0, fmt.Errorf("placement: unknown kind %q", p.Kind)
}

// HoldsRange reports whether partition i can hold any key in the
// inclusive interval [lo, hi]. An open side is the int64 extreme.
func (p *Placement) HoldsRange(i int, lo, hi int64) bool {
	part := p.Parts[i]
	if part.HasLo && hi < part.Lo {
		return false
	}
	if part.HasHi && lo >= part.Hi {
		return false
	}
	return true
}

// Sites returns the sorted set of sites holding at least one replica.
func (p *Placement) Sites() []string {
	seen := map[string]bool{}
	for _, part := range p.Parts {
		for _, s := range part.Replicas {
			seen[s] = true
		}
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Clone deep-copies the placement so callers can hold it without
// aliasing catalog state.
func (p *Placement) Clone() *Placement {
	if p == nil {
		return nil
	}
	c := &Placement{Key: p.Key, Kind: p.Kind, Parts: make([]Partition, len(p.Parts))}
	for i, part := range p.Parts {
		c.Parts[i] = part
		c.Parts[i].Replicas = append([]string(nil), part.Replicas...)
	}
	return c
}
