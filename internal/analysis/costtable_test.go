package analysis

import "testing"

func TestCostTableClean(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/core/vrf.go": `package core

const simplePredCostPerByte = 0.05

func place(m Model, rowBytes int64) float64 {
	return m.CompMS(rowBytes, simplePredCostPerByte, true)
}
`,
	})
	fs, err := CostTable(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("clean tree flagged: %s", f)
	}
}

func TestCostTableViolations(t *testing.T) {
	root := writeTree(t, map[string]string{
		// Raw per-byte cost literals in planner code.
		"internal/core/opt.go": `package core

func build(m Model) Placement {
	p := Placement{CompCostPerByte: 0.25}
	q := Def{CPUCostPerByte: -1.2}
	_ = q
	_ = m.CompMS(100, 5, true)
	return p
}
`,
	})
	fs, err := CostTable(root)
	if err != nil {
		t.Fatal(err)
	}
	for frag, want := range map[string]int{
		"raw numeric CompCostPerByte":                1,
		"raw numeric CPUCostPerByte":                 1,
		"raw numeric per-byte cost passed to CompMS": 1,
	} {
		if got := findingsWith(fs, frag); got != want {
			t.Errorf("findings containing %q = %d, want %d\nall: %v", frag, got, want, fs)
		}
	}
	if len(fs) != 3 {
		t.Errorf("got %d findings, want 3: %v", len(fs), fs)
	}
}

func TestCostTableSkipsCatalogAndTests(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/ops/defs.go": `package ops

var d = Def{CPUCostPerByte: 1.5} // catalog statistics are exempt
`,
		"examples/customop/main.go": `package main

var d = Def{CPUCostPerByte: 1.2} // user-facing example mirrors the catalog
`,
		"internal/core/opt_test.go": `package core

var d = Placement{CompCostPerByte: 9.9} // tests are never linted
`,
	})
	fs, err := CostTable(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("exempt file flagged: %s", f)
	}
}
