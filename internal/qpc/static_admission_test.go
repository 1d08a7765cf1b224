package qpc

import (
	"errors"
	"testing"

	"mocha/internal/catalog"
	"mocha/internal/core"
	"mocha/internal/dap"
	"mocha/internal/exec"
	"mocha/internal/netsim"
	"mocha/internal/ops"
	"mocha/internal/sequoia"
	"mocha/internal/storage"
	"mocha/internal/vm"
)

// testQPCBudget wires the standard one-DAP test server but with the
// query-memory governor armed at the given budget.
func testQPCBudget(t *testing.T, budget int64) *Server {
	t.Helper()
	network := netsim.NewNetwork(nil)
	store, err := storage.OpenStore("", 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := sequoia.GenerateAll(store, sequoia.TestScale()); err != nil {
		t.Fatal(err)
	}
	l, err := network.Listen("dap1")
	if err != nil {
		t.Fatal(err)
	}
	go dap.New(dap.Config{Site: "site1", Driver: &dap.StorageDriver{Store: store}}).Serve(l)
	t.Cleanup(func() { l.Close() })

	reg := ops.Builtins()
	cat := catalog.New(reg, catalog.NewRepositoryFromRegistry(reg))
	cat.AddSite(&catalog.Site{Name: "site1", Addr: "dap1"})
	registerStoreTables(t, cat, store, "site1", "Rasters")
	return New(Config{
		Cat: cat, Dial: network.Dial, Strategy: core.StrategyAuto,
		Exec: exec.Tuning{MemBudgetBytes: budget},
	})
}

// TestAdmissionStaticScratch pins the admission contract: under a
// governor, a code-shipping plan reserves its verifier-derived static
// scratch before any setup work, so a budget smaller than the shipped
// code's frame bound rejects the query up front with OverBudgetError
// instead of failing mid-stream — and a sufficient budget admits it.
func TestAdmissionStaticScratch(t *testing.T) {
	// AvgEnergy's static scratch bound is a few hundred bytes; 64 bytes
	// cannot even hold one value slot.
	s := testQPCBudget(t, 64)
	_, err := s.Execute(codeShipQuery)
	if err == nil {
		t.Fatal("expected over-budget admission failure, query succeeded")
	}
	var ob *exec.OverBudgetError
	if !errors.As(err, &ob) {
		t.Fatalf("want OverBudgetError, got %v", err)
	}
	if ob.Op != "admission:static-scratch" {
		t.Fatalf("over-budget op = %q, want admission:static-scratch", ob.Op)
	}

	// A generous budget admits and runs the same query.
	s2 := testQPCBudget(t, 1<<20)
	if s2.Governor() == nil {
		t.Fatal("budgeted server has no governor")
	}
	res, err := s2.Execute(codeShipQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
}

// TestStaticScratchBytes checks the plan fold directly: the refs'
// scratch bounds sum, a ref bounding none contributes nothing, and a
// canary run — its plan carrying the canary's ref — reserves the
// canary's bound in place of the active release's.
func TestStaticScratchBytes(t *testing.T) {
	plan := &core.Plan{Fragments: []*core.Fragment{
		{Code: []core.CodeRef{
			{Name: "AvgEnergy", Cost: vm.CostInfo{Bounded: true, BudgetInstrs: 100, FixedUnits: 10,
				PerTripUnits: 2, ScratchBytes: 448, AllocBounded: true, Purity: "pure"}},
			{Name: "Legacy"}, // no scratch: contributes 0
		}},
		{Code: []core.CodeRef{
			{Name: "Overlap", Cost: vm.CostInfo{FixedUnits: 5, PerTripUnits: 1, ScratchBytes: 100, Purity: "pure"}},
		}},
	}}
	for _, tc := range []struct {
		name string
		plan *core.Plan
		want int64
	}{
		{"prepared", plan, 548},
		{"canary", canaryPlan(plan, core.CodeRef{Name: "AvgEnergy", Cost: vm.CostInfo{Bounded: true,
			BudgetInstrs: 200, FixedUnits: 20, PerTripUnits: 4, ScratchBytes: 960, AllocBounded: true, Purity: "pure"}}), 1060},
		{"canary bounding no scratch", canaryPlan(plan, core.CodeRef{Name: "AvgEnergy"}), 100},
		{"no code", &core.Plan{Fragments: []*core.Fragment{{}}}, 0},
	} {
		if got := exec.StaticScratchBytes(tc.plan); got != tc.want {
			t.Errorf("%s: StaticScratchBytes = %d, want %d", tc.name, got, tc.want)
		}
	}
}
