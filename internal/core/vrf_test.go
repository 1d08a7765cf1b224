package core

import (
	"testing"
	"testing/quick"

	"mocha/internal/catalog"
	"mocha/internal/ops"
	"mocha/internal/types"
	"mocha/internal/vm"
)

// cutVRF is the volume reduction factor of a cut as price sees it: the
// bytes the cut ships over the bytes the scan-only cut ships.
func cutVRF(p *planner, asg cutAssignment) float64 {
	scan := p.cut.dag.scanOnly()
	return float64(p.price(p.cut.dag, 0, &asg).CVDT) / float64(p.price(p.cut.dag, 0, &scan).CVDT)
}

// statsCatalog is a one-table catalog T(k, g, image) with the given
// average column sizes.
func statsCatalog(t testing.TB, kBytes, gBytes, imageBytes int) *catalog.Catalog {
	t.Helper()
	reg := ops.Builtins()
	cat := catalog.New(reg, catalog.NewRepositoryFromRegistry(reg))
	cat.AddSite(&catalog.Site{Name: "site1", Addr: "dap1"})
	if err := cat.AddTable(&catalog.TableDef{
		Name: "T", URI: "mocha://tables/T", Site: "site1",
		Schema: types.NewSchema(
			types.Column{Name: "k", Kind: types.KindString},
			types.Column{Name: "g", Kind: types.KindGraph},
			types.Column{Name: "image", Kind: types.KindRaster},
		),
		Stats: catalog.TableStats{RowCount: 100, Columns: []catalog.ColumnStats{
			{Name: "k", AvgBytes: kBytes}, {Name: "g", AvgBytes: gBytes}, {Name: "image", AvgBytes: imageBytes},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestQuickPredicateVRFBounds: for any selectivity and attribute sizes,
// the VRF of pushing a predicate stays within [0, SF] — shipping the
// reduced rows can never look worse than the bare selectivity, which is
// exactly the paper's argument for the metric.
func TestQuickPredicateVRFBounds(t *testing.T) {
	const sql = "SELECT k FROM T WHERE NumVertices(g) < 10"
	f := func(sfRaw uint8, outRaw, argRaw uint16) bool {
		sf := float64(sfRaw%101) / 100
		outBytes := int(outRaw%4096) + 1
		argOnly := int(argRaw) + 1
		vrf := func(argOnly int) float64 {
			cat := statsCatalog(t, outBytes, argOnly, 1)
			cat.SetSelectivity("NumVertices", "T", sf)
			p := testPlanner(t, cat, StrategyAuto, sql)
			return cutVRF(p, pushed(p.cut.dag, p.cut.dag.preds[0][0]))
		}
		v := vrf(argOnly)
		if v < 0 || v > sf+1e-12 {
			return false
		}
		// More argument-only bytes can only shrink the VRF.
		return vrf(argOnly+1000) <= v+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickProjectionVRFMonotone: a projection's VRF scales inversely
// with its argument volume.
func TestQuickProjectionVRFMonotone(t *testing.T) {
	const sql = "SELECT AvgEnergy(image) FROM T"
	f := func(szRaw uint16) bool {
		size := int(szRaw) + 16
		vrf := func(size int) float64 {
			p := testPlanner(t, statsCatalog(t, 1, 1, size), StrategyAuto, sql)
			return cutVRF(p, pushed(p.cut.dag, p.cut.dag.calls[0][0]))
		}
		// Fixed 8-byte result: doubling the input halves the VRF.
		v := vrf(size)
		return vrf(size*2) <= v+1e-12 && v > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCostModelMonotonicity: more bytes ⇒ more time, for both terms.
func TestCostModelMonotonicity(t *testing.T) {
	m := DefaultCostModel()
	if m.NetworkMS(2000) <= m.NetworkMS(1000) {
		t.Error("network cost not monotone")
	}
	if m.CompMS(2000, 1, false) <= m.CompMS(1000, 1, false) {
		t.Error("compute cost not monotone")
	}
	if m.CompMS(1000, 1, true) <= m.CompMS(1000, 1, false) {
		t.Error("VM execution should cost more than native")
	}
	if (CostModel{}).NetworkMS(1000) != 0 {
		t.Error("zero-bandwidth model should cost nothing")
	}
	// 1.25 MB at 10 Mbps = 1000 ms.
	if got := m.NetworkMS(1_250_000); got != 1000 {
		t.Errorf("NetworkMS(1.25MB) = %g, want 1000", got)
	}
}

// TestPlacementRankOrdering: rank (SF−1)/cost sorts highly selective,
// cheap predicates first.
func TestPlacementRankOrdering(t *testing.T) {
	p := &planner{opt: &Optimizer{Model: DefaultCostModel()}}
	d := &queryDAG{}
	rank := func(sf, costPB float64) float64 {
		return p.predRank(d, &cutNode{pred: true, sf: sf, costPB: costPB, argBytes: 100})
	}
	cheapSelective, expensiveSelective, cheapLoose := rank(0.1, 0.01), rank(0.1, 10), rank(0.9, 0.01)
	if !(cheapSelective < cheapLoose) {
		t.Error("selective predicate should rank before loose one at equal cost")
	}
	if !(cheapSelective < expensiveSelective) {
		t.Error("cheap predicate should rank before expensive one at equal SF")
	}
}

// TestCompMSStatic pins the static pricing formula and its rate
// fallback: invocations x (fixed + pertrip x argBytes) interpreted
// instructions at InstrsPerMS, with a zero/negative rate falling back
// to the default.
func TestCompMSStatic(t *testing.T) {
	ci := vm.CostInfo{FixedUnits: 100, PerTripUnits: 2}
	m := DefaultCostModel()
	want := 10 * (100.0 + 2.0*50) / m.InstrsPerMS
	if got := m.CompMSStatic(10, 50, ci); got != want {
		t.Errorf("CompMSStatic = %v, want %v", got, want)
	}
	m.InstrsPerMS = 0
	if got := m.CompMSStatic(10, 50, ci); got != want {
		t.Errorf("CompMSStatic with zero rate = %v, want default-rate %v", got, want)
	}
}
