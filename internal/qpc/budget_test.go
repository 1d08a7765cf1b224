package qpc

import (
	"fmt"
	"testing"

	"mocha/internal/catalog"
	"mocha/internal/core"
	"mocha/internal/dap"
	"mocha/internal/exec"
	"mocha/internal/netsim"
	"mocha/internal/ops"
	"mocha/internal/sequoia"
	"mocha/internal/storage"
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

// TestShippedCodeNeedsNoQPCBudget: the classes a plan ships run only in
// the DAPs' machines, which admit their frames when the class arrives
// (Limits.Admit), so the QPC's governor reserves nothing for them. A
// code-shipping query runs under a 64-byte QPC budget — which could not
// hold one value slot of AvgEnergy's frames — with the rows and bytes
// of an ungoverned QPC, and the governor ends drained.
func TestShippedCodeNeedsNoQPCBudget(t *testing.T) {
	want, err := testQPCBudget(t, 0).Execute(codeShipQuery)
	if err != nil {
		t.Fatal(err)
	}
	s := testQPCBudget(t, 64)
	if s.Governor() == nil {
		t.Fatal("budgeted server has no governor")
	}
	res, err := s.Execute(codeShipQuery)
	if err != nil {
		t.Fatalf("a 64 B budget refused a code-shipping query: %v", err)
	}
	if len(res.Rows) == 0 || fmt.Sprint(res.Rows) != fmt.Sprint(want.Rows) {
		t.Errorf("under a 64 B budget: %d rows, ungoverned %d", len(res.Rows), len(want.Rows))
	}
	if res.Stats.CVDT != want.Stats.CVDT {
		t.Errorf("CVDT %d under a 64 B budget, %d ungoverned", res.Stats.CVDT, want.Stats.CVDT)
	}
	if g := s.Governor().Granted(); g != 0 {
		t.Errorf("governor holds %d B after the query", g)
	}
}
