package core

import (
	"math"
	"sort"

	"mocha/internal/catalog"
	"mocha/internal/types"
)

// PrunePartitions computes which partitions of a placement can hold
// rows satisfying the conjunction of preds, where keyCol is the
// partition key's column index in the predicates' input space. Any
// predicate shape the pruner cannot reason about simply constrains
// nothing — the result falls back to every partition, never fewer than
// the truth requires. The returned indexes are ascending.
//
// Both placement kinds prune on what ColumnRange recognises — the key
// column compared with an integer literal, either operand order — and
// on AND/OR combinations of those: range placements keep the
// partitions the interval reaches, hash placements prune only on
// equality, through the same canonical hash that routed rows at load
// time.
func PrunePartitions(pl *catalog.Placement, keyCol int, preds []*PExpr) []int {
	n := len(pl.Parts)
	keep := allParts(n)
	for _, pred := range preds {
		keep = intersectParts(keep, prunablePred(pl, keyCol, pred))
	}
	out := make([]int, 0, len(keep))
	for i := range keep {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

func allParts(n int) map[int]bool {
	m := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		m[i] = true
	}
	return m
}

func intersectParts(a, b map[int]bool) map[int]bool {
	out := map[int]bool{}
	for i := range a {
		if b[i] {
			out[i] = true
		}
	}
	return out
}

func unionParts(a, b map[int]bool) map[int]bool {
	out := map[int]bool{}
	for i := range a {
		out[i] = true
	}
	for i := range b {
		out[i] = true
	}
	return out
}

// prunablePred returns the partitions a single predicate tree admits.
func prunablePred(pl *catalog.Placement, keyCol int, e *PExpr) map[int]bool {
	n := len(pl.Parts)
	if e == nil || e.Kind != ExprBinop {
		return allParts(n)
	}
	switch e.Op {
	case "AND":
		return intersectParts(prunablePred(pl, keyCol, e.Args[0]), prunablePred(pl, keyCol, e.Args[1]))
	case "OR":
		return unionParts(prunablePred(pl, keyCol, e.Args[0]), prunablePred(pl, keyCol, e.Args[1]))
	}
	col, lo, hi, ok := ColumnRange(e)
	if !ok || col != keyCol {
		return allParts(n)
	}
	out := map[int]bool{}
	switch pl.Kind {
	case catalog.PlaceHash:
		b, ok := catalog.HashBucket(types.Int(lo), n)
		if lo != hi || !ok {
			return allParts(n)
		}
		out[b] = true
	case catalog.PlaceRange:
		for i := range pl.Parts {
			if pl.HoldsRange(i, lo, hi) {
				out[i] = true
			}
		}
	default:
		return allParts(n)
	}
	return out
}

// ColumnRange recognises <int column> cmp <int constant>, either
// operand order, for cmp one of = < <= > >=, and returns the column and
// the closed interval [lo, hi] the comparison admits (an open side is
// the int64 extreme). It is the one reading of such a predicate: the
// planner prunes partitions by it and the DAP picks index range scans
// by it.
func ColumnRange(e *PExpr) (col int, lo, hi int64, ok bool) {
	if e.Kind != ExprBinop || len(e.Args) != 2 {
		return 0, 0, 0, false
	}
	c, k, op := e.Args[0], e.Args[1], e.Op
	if c.Kind == ExprConst { // const op col reads as col op' const
		c, k = k, c
		switch op {
		case "<":
			op = ">"
		case "<=":
			op = ">="
		case ">":
			op = "<"
		case ">=":
			op = "<="
		}
	}
	v, isInt := k.Const.(types.Int)
	if c.Kind != ExprCol || c.Ret != types.KindInt || k.Kind != ExprConst || !isInt {
		return 0, 0, 0, false
	}
	lo, hi = math.MinInt64, math.MaxInt64
	switch op {
	case "=":
		lo, hi = int64(v), int64(v)
	case "<":
		hi = int64(v) - 1
	case "<=":
		hi = int64(v)
	case ">":
		lo = int64(v) + 1
	case ">=":
		lo = int64(v)
	default:
		return 0, 0, 0, false
	}
	return c.Col, lo, hi, true
}
