package core

import (
	"mocha/internal/catalog"
	"mocha/internal/ops"
	"mocha/internal/types"
	"mocha/internal/vm"
)

// This file implements the paper's cost model (section 4):
//
//	Cost(Ω) = CompCost(Ω) + NetworkCost(Ω)
//
// and the Volume Reduction Factor (Definition 4.1),
//
//	VRF(Ω) = VDT / VDA,
//
// where VDT is the data volume transmitted after applying Ω and VDA the
// volume of Ω's inputs. Operators with VRF < 1 are data-reducing and are
// code-shipped to the DAP; the rest are data-inflating and evaluated at
// the QPC under data shipping.

// CostModel holds the environment constants for cost estimation.
type CostModel struct {
	// BitsPerSec is the modeled network bandwidth.
	BitsPerSec float64
	// CPUBytesPerMS is how many operator-input bytes one millisecond of
	// CPU processes at unit CPUCostPerByte.
	CPUBytesPerMS float64
	// VMOverhead multiplies CompCost for operators executed in the MVM
	// at a DAP (shipped bytecode is slower than native code; section
	// 3.9.1 discusses the Java-vs-C analogue).
	VMOverhead float64
	// DefaultGroups estimates GROUP BY output cardinality when the
	// catalog lacks distinct counts.
	DefaultGroups int64
	// InstrsPerMS is how many interpreted MVM instructions one
	// millisecond of DAP CPU executes — the rate that converts
	// verifier-derived static cost units into modeled time. Zero falls
	// back to defaultInstrsPerMS.
	InstrsPerMS float64
}

// defaultInstrsPerMS models a DAP interpreting 50M MVM instructions per
// second.
const defaultInstrsPerMS = 50_000

// simplePredCostPerByte prices a simple comparison predicate that has
// no operator class behind it. It is the only cost literal outside the
// MVM instruction table and the operator catalog (enforced by the costtable
// linter).
const simplePredCostPerByte = 0.05

// DefaultCostModel mirrors the paper's testbed: a 10 Mbps link.
func DefaultCostModel() CostModel {
	return CostModel{
		BitsPerSec:    10e6,
		CPUBytesPerMS: 500_000,
		VMOverhead:    3,
		DefaultGroups: 100,
		InstrsPerMS:   defaultInstrsPerMS,
	}
}

// NetworkMS returns the modeled transfer time for a byte volume.
func (m CostModel) NetworkMS(bytes float64) float64 {
	if m.BitsPerSec <= 0 {
		return 0
	}
	return bytes * 8 / m.BitsPerSec * 1000
}

// CompMS returns the modeled compute time for processing argBytes of
// operator input at a relative per-byte cost.
func (m CostModel) CompMS(argBytes int64, costPerByte float64, inVM bool) float64 {
	ms := float64(argBytes) * costPerByte / m.CPUBytesPerMS
	if inVM {
		ms *= m.VMOverhead
	}
	return ms
}

// CompMSStatic prices invocations of a shipped operator from its
// verifier-derived static cost summary: FixedUnits per invocation plus
// PerTripUnits per argument byte (an input-dependent loop steps roughly
// once per byte of its input), at InstrsPerMS interpreted instructions
// per millisecond. VMOverhead does not apply — the units already count
// MVM instructions, so the interpretation rate is the overhead.
func (m CostModel) CompMSStatic(invocations, argBytes int64, c vm.CostInfo) float64 {
	rate := m.InstrsPerMS
	if rate <= 0 {
		rate = defaultInstrsPerMS
	}
	units := float64(c.FixedUnits) + float64(c.PerTripUnits)*float64(argBytes)
	return float64(invocations) * units / rate
}

// stats helpers -------------------------------------------------------

// colAvgBytes returns the average size of one column, preferring catalog
// stats and falling back to the kind's fixed size.
func colAvgBytes(c types.Column, stats catalog.TableStats) int {
	if n := stats.AvgColBytes(c.Name); n > 0 {
		return n
	}
	if n := c.Kind.FixedWireSize(); n > 0 {
		return n
	}
	return 64 // variable-sized column with no stats
}

// callResultBytes estimates the result size of a call expression.
func callResultBytes(e *PExpr, reg *ops.Registry, argBytes int) int {
	if d, ok := reg.Lookup(e.Func); ok {
		return d.EstimateResultBytes(argBytes)
	}
	if n := e.Ret.FixedWireSize(); n > 0 {
		return n
	}
	return argBytes
}

// firstCall returns the first user-defined call within an expression, or
// nil for a simple expression. It identifies the predicate's dominant
// operator (the one the catalog keys selectivity by and the cut point
// names); pricing walks the predicate's call nodes instead.
func firstCall(e *PExpr) *PExpr {
	var found *PExpr
	e.Walk(func(x *PExpr) {
		if found == nil && x.Kind == ExprCall {
			found = x
		}
	})
	return found
}

// predicateSelectivity estimates a predicate's selectivity: the
// catalog's per-operator estimate when the predicate contains a complex
// call, otherwise a form-based default.
func predicateSelectivity(e *PExpr, table string, cat *catalog.Catalog) float64 {
	if call := firstCall(e); call != nil {
		return cat.Selectivity(call.Func, table)
	}
	if e.Kind == ExprBinop && e.Op == "=" {
		return 0.1
	}
	return catalog.DefaultSelectivity
}
