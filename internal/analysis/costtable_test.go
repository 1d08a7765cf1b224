package analysis

import "testing"

const opcodeGo = `package vm

type Op uint8

const (
	OpNop Op = iota
	OpRet
	OpCall
	numOps
)

const (
	HostSqrt = iota
	HostPow
	NumHost
)
`

const costGoClean = `package vm

var opCost = [numOps]int64{
	OpNop: 1, OpRet: 1, OpCall: 8,
}

var hostCost = [NumHost]int64{
	HostSqrt: 30, HostPow: 60,
}

func OpCost(op Op) int64   { return opCost[op] }
func HostCost(id int) int64 { return hostCost[id] }
`

func TestCostTableClean(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/vm/opcode.go": opcodeGo,
		"internal/vm/cost.go":   costGoClean,
		"internal/ops/defs.go": `package ops

var d = Def{CPUCostPerByte: 1.5} // catalog statistics are exempt
`,
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
		"internal/vm/opcode.go": opcodeGo,
		// OpCall unpriced, OpNop priced twice, a ghost opcode priced, a
		// zero cost, and a host intrinsic missing.
		"internal/vm/cost.go": `package vm

var opCost = [numOps]int64{
	OpNop: 1, OpNop: 1, OpGhost: 2, OpRet: 0,
}

var hostCost = [NumHost]int64{
	HostSqrt: 30,
}
`,
		// The table referenced outside cost.go.
		"internal/vm/machine.go": `package vm

func step(op Op) int64 { return opCost[op] }
`,
		// Raw per-byte cost literals in planner code.
		"internal/core/opt.go": `package core

func build(m Model) Placement {
	p := Placement{CompCostPerByte: 0.25}
	q := Def{CPUCostPerByte: 1.2}
	_ = q
	_ = m.CompMS(100, 0.05, true)
	return p
}
`,
	})
	fs, err := CostTable(root)
	if err != nil {
		t.Fatal(err)
	}
	for frag, want := range map[string]int{
		"has no opCost entry":                        1, // OpCall
		"prices \"OpNop\" more than once":            1,
		"not a declared opcode":                      1, // OpGhost
		"must be a positive integer literal":         1, // OpRet: 0
		"has no hostCost entry":                      1, // HostPow
		"referenced outside cost.go":                 1, // machine.go
		"raw numeric CompCostPerByte":                1,
		"raw numeric CPUCostPerByte":                 1,
		"raw numeric per-byte cost passed to CompMS": 1,
	} {
		if got := findingsWith(fs, frag); got != want {
			t.Errorf("findings containing %q = %d, want %d\nall: %v", frag, got, want, fs)
		}
	}
}

func TestCostTableSkipsCatalogAndTests(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/vm/opcode.go": opcodeGo,
		"internal/vm/cost.go":   costGoClean,
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
