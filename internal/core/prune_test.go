package core

import (
	"reflect"
	"testing"

	"mocha/internal/catalog"
	"mocha/internal/types"
)

// Partition-pruning tests: the pruner must keep exactly the partitions
// a predicate can reach — boundary keys land on the right side of a
// range cut, hash equality routes through the canonical bucket hash,
// and any shape it cannot reason about falls back to every partition.

func rangePlacement3() *catalog.Placement {
	// [-inf, 100), [100, 200), [200, +inf) on key "time".
	return &catalog.Placement{
		Key: "time", Kind: catalog.PlaceRange,
		Parts: []catalog.Partition{
			{Table: "t__p0", Replicas: []string{"site1"}, HasHi: true, Hi: 100},
			{Table: "t__p1", Replicas: []string{"site2"}, HasLo: true, Lo: 100, HasHi: true, Hi: 200},
			{Table: "t__p2", Replicas: []string{"site3"}, HasLo: true, Lo: 200},
		},
	}
}

func hashPlacement(n int) *catalog.Placement {
	pl := &catalog.Placement{Key: "time", Kind: catalog.PlaceHash}
	for i := 0; i < n; i++ {
		pl.Parts = append(pl.Parts, catalog.Partition{
			Table: "t__p" + string(rune('0'+i)), Replicas: []string{"site1"}, Bucket: i,
		})
	}
	return pl
}

func binop(op string, l, r *PExpr) *PExpr {
	return &PExpr{Kind: ExprBinop, Op: op, Ret: types.KindBool, Args: []*PExpr{l, r}}
}

func keyCmp(op string, v int64) *PExpr {
	return binop(op, NewCol(0, types.KindInt), NewConst(types.Int(v)))
}

func TestPruneRange(t *testing.T) {
	pl := rangePlacement3()
	cases := []struct {
		name string
		pred *PExpr
		want []int
	}{
		{"eq-middle", keyCmp("=", 150), []int{1}},
		{"eq-lower-boundary", keyCmp("=", 100), []int{1}},
		{"eq-below-boundary", keyCmp("=", 99), []int{0}},
		{"eq-upper-boundary", keyCmp("=", 200), []int{2}},
		{"lt-cut", keyCmp("<", 100), []int{0}},
		{"lt-past-cut", keyCmp("<", 101), []int{0, 1}},
		{"le-below-cut", keyCmp("<=", 99), []int{0}},
		{"le-cut", keyCmp("<=", 100), []int{0, 1}},
		{"ge-cut", keyCmp(">=", 200), []int{2}},
		{"gt-below-cut", keyCmp(">", 199), []int{2}},
		{"ge-below-cut", keyCmp(">=", 199), []int{1, 2}},
		{"and-interval", binop("AND", keyCmp(">=", 100), keyCmp("<", 200)), []int{1}},
		{"and-empty", binop("AND", keyCmp("<", 100), keyCmp(">=", 200)), []int{}},
		{"or-outer", binop("OR", keyCmp("<", 100), keyCmp(">=", 200)), []int{0, 2}},
		{"const-on-left", binop("<", NewConst(types.Int(150)), NewCol(0, types.KindInt)), []int{1, 2}},
		{"const-on-left-ge", binop(">=", NewConst(types.Int(99)), NewCol(0, types.KindInt)), []int{0}},
		{"const-on-left-eq", binop("=", NewConst(types.Int(200)), NewCol(0, types.KindInt)), []int{2}},
		{"other-column", binop("=", NewCol(1, types.KindInt), NewConst(types.Int(3))), []int{0, 1, 2}},
		{"neq-no-prune", keyCmp("<>", 150), []int{0, 1, 2}},
		{"arith-no-prune", binop("=",
			binop("+", NewCol(0, types.KindInt), NewConst(types.Int(1))),
			NewConst(types.Int(5))), []int{0, 1, 2}},
		{"non-integer-no-prune", binop("=", NewCol(0, types.KindInt),
			NewConst(types.String_("x"))), []int{0, 1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := PrunePartitions(pl, 0, []*PExpr{tc.pred})
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("pruned to %v, want %v", got, tc.want)
			}
		})
	}
}

func TestPruneRangeConjunction(t *testing.T) {
	// Multiple predicates intersect: each list entry is ANDed.
	pl := rangePlacement3()
	got := PrunePartitions(pl, 0, []*PExpr{keyCmp(">=", 50), keyCmp("<", 150)})
	if want := []int{0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("pruned to %v, want %v", got, want)
	}
}

func TestPruneHash(t *testing.T) {
	const n = 4
	pl := hashPlacement(n)
	bucket := func(v int64) int {
		b, ok := catalog.HashBucket(types.Int(v), n)
		if !ok {
			t.Fatalf("Int(%d) must hash", v)
		}
		return b
	}
	t.Run("equality-routes", func(t *testing.T) {
		for v := int64(0); v < 16; v++ {
			flipped := binop("=", NewConst(types.Int(v)), NewCol(0, types.KindInt))
			for _, pred := range []*PExpr{keyCmp("=", v), flipped} {
				got := PrunePartitions(pl, 0, []*PExpr{pred})
				if want := []int{bucket(v)}; !reflect.DeepEqual(got, want) {
					t.Fatalf("%s pruned to %v, want %v", pred, got, want)
				}
			}
		}
	})
	t.Run("inequality-no-prune", func(t *testing.T) {
		got := PrunePartitions(pl, 0, []*PExpr{keyCmp("<", 5)})
		if len(got) != n {
			t.Fatalf("hash placement must not prune ranges, got %v", got)
		}
	})
	t.Run("or-unions-buckets", func(t *testing.T) {
		got := PrunePartitions(pl, 0, []*PExpr{binop("OR", keyCmp("=", 2), keyCmp("=", 7))})
		want := map[int]bool{bucket(2): true, bucket(7): true}
		if len(got) != len(want) {
			t.Fatalf("pruned to %v, want buckets %v", got, want)
		}
		for _, b := range got {
			if !want[b] {
				t.Fatalf("pruned to %v, want buckets %v", got, want)
			}
		}
	})
}

func TestPruneNoPredicates(t *testing.T) {
	got := PrunePartitions(rangePlacement3(), 0, nil)
	if want := []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("no predicates must keep all partitions, got %v", got)
	}
}

// TestPruneAgreesWithRoute cross-checks the two sides of the placement
// contract: for every key k, the partition Route loads k into is kept
// by pruning on `key = k`.
func TestPruneAgreesWithRoute(t *testing.T) {
	for _, pl := range []*catalog.Placement{rangePlacement3(), hashPlacement(3)} {
		for v := int64(-5); v < 305; v += 7 {
			pi, err := pl.Route(types.Int(v))
			if err != nil {
				t.Fatal(err)
			}
			kept := PrunePartitions(pl, 0, []*PExpr{keyCmp("=", v)})
			found := false
			for _, k := range kept {
				if k == pi {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s: key %d routed to %d but pruned to %v", pl.Kind, v, pi, kept)
			}
		}
	}
}
