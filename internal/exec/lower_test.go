package exec

import (
	"fmt"
	"testing"

	"mocha/internal/core"
	"mocha/internal/types"
	"mocha/internal/vm"
)

// Seam fixtures: a two-fragment plan — fragment 0 unpartitioned, a
// semi-join participant, shipping one cost-stamped class; fragment 1
// scattered over three replicated shards.
func seamPlan() *core.Plan {
	sch := types.NewSchema(types.Column{Name: "a", Kind: types.KindInt})
	f0 := &core.Fragment{
		Site: "site1", Table: "T", SemiJoinCol: 0,
		InSchema: sch, OutSchema: sch,
		Code: []core.CodeRef{
			{Name: "AvgEnergy", Checksum: "aaaa", Cost: vm.CostInfo{Bounded: true, BudgetInstrs: 100,
				FixedUnits: 7, PerTripUnits: 18}},
			{Name: "Clip", Checksum: "bbbb"}, // no scratch
		},
		CutPoint: "below=[call AvgEnergy]", CutAlts: 2,
	}
	f1 := &core.Fragment{
		Site: "site1", Table: "P", SemiJoinCol: -1,
		InSchema: sch, OutSchema: sch,
		PartsTotal: 3, PartKey: "a",
		Parts: []core.PartTarget{
			{ID: 0, Table: "P_p0", Site: "site1", Replicas: []string{"site1", "site2"}},
			{ID: 2, Table: "P_p2", Site: "site3", Replicas: []string{"site3", "site1"}},
		},
	}
	return &core.Plan{Fragments: []*core.Fragment{f0, f1}, Limit: -1}
}

func TestBindPlanExpandsUnits(t *testing.T) {
	plan := seamPlan()
	// Pick the *last* replica so the test can see pick's choice win over
	// the partition's recorded primary.
	sp := BindPlan(plan, func(reps []string) string { return reps[len(reps)-1] })
	if len(sp.Units) != 3 {
		t.Fatalf("units = %d, want 3 (1 whole fragment + 2 surviving shards)", len(sp.Units))
	}
	u0 := sp.Units[0]
	if u0.FragIdx != 0 || u0.Part != -1 || u0.Of != 0 {
		t.Errorf("unpartitioned unit coords = %d/%d/%d", u0.FragIdx, u0.Part, u0.Of)
	}
	if u0.Frag != plan.Fragments[0] {
		t.Error("unpartitioned unit must alias the shared plan fragment")
	}
	u1, u2 := sp.Units[1], sp.Units[2]
	if u1.Part != 0 || u2.Part != 2 || u1.Of != 3 || u2.Of != 3 {
		t.Errorf("shard coords = %d/%d and %d/%d, want 0/3 and 2/3", u1.Part, u1.Of, u2.Part, u2.Of)
	}
	// pick chose the second replica; the ladder is primary-first.
	if u1.Frag.Site != "site2" || u1.Frag.Table != "P_p0" {
		t.Errorf("shard 0 bound to %s/%s, want site2/P_p0", u1.Frag.Site, u1.Frag.Table)
	}
	if fmt.Sprint(u1.Replicas) != "[site2 site1]" {
		t.Errorf("shard 0 replica ladder = %v, want picked site first", u1.Replicas)
	}
	// Shard copies must not leak scatter metadata back into the unit.
	if u1.Frag.PartsTotal != 0 || u1.Frag.Parts != nil {
		t.Error("shard fragment still carries partition metadata")
	}
	// And the shared plan fragment is untouched.
	if plan.Fragments[1].Table != "P" || plan.Fragments[1].PartsTotal != 3 {
		t.Error("BindPlan mutated the plan's scattered fragment")
	}
}

func TestSemiJoinParticipants(t *testing.T) {
	plan := seamPlan()
	if got := SemiJoinParticipants(plan); fmt.Sprint(got) != "[0]" {
		t.Errorf("SemiJoinParticipants = %v, want [0]", got)
	}
	plan.Fragments[0].SemiJoinCol = -1
	if got := SemiJoinParticipants(plan); got != nil {
		t.Errorf("SemiJoinParticipants = %v, want none", got)
	}
}

// intCol / intConst build the tiny expressions the lowering tests run:
// pure column/constant trees never touch the operator binder.
func ltPred(col int, limit int32) *core.PExpr {
	return &core.PExpr{Kind: core.ExprBinop, Op: "<", Ret: types.KindBool,
		Args: []*core.PExpr{core.NewCol(col, types.KindInt), core.NewConst(types.Int(limit))}}
}

func TestLowerFragmentPipeline(t *testing.T) {
	sch := types.NewSchema(types.Column{Name: "a", Kind: types.KindInt})
	frag := &core.Fragment{
		Site: "site1", Table: "T", SemiJoinCol: 0,
		InSchema: sch, OutSchema: sch,
		Chain: core.Chain{
			Predicates:  []*core.PExpr{ltPred(0, 5)},
			Projections: []core.Output{{Name: "a", Expr: core.NewCol(0, types.KindInt)}},
		},
		Limit: 2,
	}
	src := NewSource("op:remote[0]", slicePull(intRows(1, 2, 3, 4, 5, 6)), 3)
	keys := map[uint64][]types.Object{}
	for _, v := range []int32{2, 3, 4, 6} {
		o := types.Int(v)
		h := o.Hash()
		keys[h] = append(keys[h], o)
	}
	var got []types.Tuple
	tree, err := LowerFragment(frag, nil, src, keys,
		func(tup types.Tuple) error { got = append(got, tup); return nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := collect(t, tree.Root, tree.Ops)
	_ = rows
	// semi-join keeps {2,3,4,6}; the predicate keeps {2,3,4}; the limit
	// keeps the first two.
	if fmt.Sprint(got) != "[(2) (3)]" {
		t.Errorf("fragment pipeline emitted %v, want [(2) (3)]", got)
	}
}

func TestLowerPlanGatherAndOrder(t *testing.T) {
	sch := types.NewSchema(types.Column{Name: "a", Kind: types.KindInt})
	frag := &core.Fragment{
		Site: "site1", Table: "P", SemiJoinCol: -1,
		InSchema: sch, OutSchema: sch,
		PartsTotal: 2, PartKey: "a",
		Parts: []core.PartTarget{
			{ID: 0, Table: "P_p0", Site: "site1", Replicas: []string{"site1"}},
			{ID: 1, Table: "P_p1", Site: "site2", Replicas: []string{"site2"}},
		},
	}
	plan := &core.Plan{
		Fragments:      []*core.Fragment{frag},
		CombinedSchema: sch,
		Chain: core.Chain{
			Projections: []core.Output{{Name: "a", Expr: core.NewCol(0, types.KindInt)}},
		},
		OrderBy: []core.OrderSpec{{Col: 0, Desc: true}},
		Limit:   3,
	}
	pulls := [][]PullFunc{{
		slicePull(intRows(1, 4, 2)),
		slicePull(intRows(5, 3)),
	}}
	var got []types.Tuple
	tree, err := LowerPlan(plan, nil, pulls,
		func(tup types.Tuple) error { got = append(got, tup); return nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	collect(t, tree.Root, tree.Ops)
	// Gather unions both shard streams; top-k keeps the 3 largest.
	if fmt.Sprint(got) != "[(5) (4) (3)]" {
		t.Errorf("gathered top-k emitted %v, want [(5) (4) (3)]", got)
	}
	// A source/fragment count mismatch is a structural error.
	if _, err := LowerPlan(plan, nil, nil, func(types.Tuple) error { return nil }, nil); err == nil {
		t.Error("LowerPlan accepted 0 sources for 1 fragment")
	}
}
