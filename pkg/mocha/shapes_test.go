package mocha

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mocha/internal/sequoia"
)

// paperStatement is one row of the evaluation's workload (Table 2) with
// the shape the paper reports for it.
type paperStatement struct {
	label string
	sql   string
	// inflates marks Q3: its operator grows the data, so shipping the
	// data wins. Every other statement reduces, so shipping the code wins.
	inflates bool
	// timed marks the statements whose winner is also asserted on wall
	// clock behind the paper's link. Q5 and Q6 are not: at test scale
	// their two plans finish within scheduler noise of each other.
	timed bool
	// ablation marks the two statements of the section 5.3 estimate
	// comparison.
	ablation bool
	// cal is the Q4 calibration of a Figure 10 point (nil elsewhere).
	cal *sequoia.Q4Calibration
}

// paperStatements lists Q1–Q3, Q4 at the five selectivities of Figure
// 10, and the Q5/Q6 joins.
func paperStatements(t *testing.T, cl *Cluster, scale sequoia.Config) []paperStatement {
	t.Helper()
	cals, err := sequoia.CalibrateQ4(cl.stores["site1"], []float64{0.1, 0.25, 0.5, 0.75, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	stmts := []paperStatement{
		{label: "Q1", sql: sequoia.Q1, timed: true},
		{label: "Q2", sql: sequoia.Q2(scale), timed: true, ablation: true},
		{label: "Q3", sql: sequoia.Q3, inflates: true, timed: true},
	}
	for i := range cals {
		cal := &cals[i]
		stmts = append(stmts, paperStatement{
			label:    fmt.Sprintf("Q4@%.0f%%", cal.Target*100),
			sql:      sequoia.Q4(cal.MaxVerts, cal.MaxLength),
			timed:    true,
			ablation: cal.Target == 0.5,
			cal:      cal,
		})
	}
	return append(stmts,
		paperStatement{label: "Q5", sql: sequoia.Q5},
		paperStatement{label: "Q6", sql: sequoia.Q6},
	)
}

// runPaperStatements executes every statement under every strategy and
// appends one table line per run to log.
func runPaperStatements(t *testing.T, cl *Cluster, stmts []paperStatement, strategies []Strategy, log *strings.Builder) []map[Strategy]*Result {
	t.Helper()
	out := make([]map[Strategy]*Result, len(stmts))
	for i, st := range stmts {
		if st.cal != nil {
			cl.SetSelectivity("NumVertices", "Graphs", st.cal.VertSelectivity)
			cl.SetSelectivity("TotalLength", "Graphs", st.cal.LenSelectivity)
		}
		out[i] = map[Strategy]*Result{}
		for _, strat := range strategies {
			cl.SetStrategy(strat)
			res, err := cl.Execute(st.sql)
			if err != nil {
				t.Fatalf("%s under %v: %v", st.label, strat, err)
			}
			out[i][strat] = res
			s := res.Stats
			fmt.Fprintf(log, "%-8s %-13v %8.1f %6.1f %6.1f %7.1f %6.1f %8d %8d %9.6f %8d %8d %5d\n",
				st.label, strat, s.TotalMS, s.DBMS, s.CPUMS, s.NetMS, s.MiscMS,
				s.CVDA, s.CVDT, s.CVRF(), res.Plan.Est.CVDT, res.Plan.Est.CVDTSelOnly, len(res.Rows))
		}
	}
	return out
}

const paperTableHeader = "query    strategy      total ms  db ms cpu ms  net ms misc ms     CVDA     CVDT      CVRF      est sel-only  rows\n"

// TestPaperShapes asserts the result shapes of the paper's evaluation
// (section 5: Table 2, Figures 9–11 and the section 5.3 estimate claim)
// and logs the table EXPERIMENTS.md's figure sections are pasted from.
// Volumes are exact, so every volume ordering is asserted on an unshaped
// cluster under all three strategies; the one wall-clock claim — the
// lower-CVRF plan is the faster plan — is asserted behind the paper's
// 10 Mbit/s link, where modelled transfer time dominates.
func TestPaperShapes(t *testing.T) {
	t.Run("volumes", func(t *testing.T) {
		cl, scale := testCluster(t, ClusterConfig{})
		stmts := paperStatements(t, cl, scale)
		var log strings.Builder
		runs := runPaperStatements(t, cl, stmts,
			[]Strategy{StrategyCodeShip, StrategyDataShip, StrategyAuto}, &log)
		t.Logf("unshaped link:\n%s%s", paperTableHeader, log.String())

		var prevQ4 int64
		for i, st := range stmts {
			code, data, auto := runs[i][StrategyCodeShip], runs[i][StrategyDataShip], runs[i][StrategyAuto]
			if len(data.Rows) == 0 {
				t.Fatalf("%s returned no rows; its shapes would be vacuous", st.label)
			}
			sameRows(t, st.label+" code-vs-data", code.Rows, data.Rows)
			sameRows(t, st.label+" auto-vs-data", auto.Rows, data.Rows)
			for strat, res := range runs[i] {
				s := res.Stats
				if s.CVDA <= 0 || s.CVRF() != float64(s.CVDT)/float64(s.CVDA) {
					t.Errorf("%s under %v: CVRF %g is not CVDT/CVDA = %d/%d", st.label, strat, s.CVRF(), s.CVDT, s.CVDA)
				}
			}
			// Figures 9(b), 10(b), 11: data shipping moves what it reads;
			// code shipping moves less, except through the inflating Q3.
			if data.Stats.CVDT != data.Stats.CVDA {
				t.Errorf("%s data-ship: CVRF %g, want 1", st.label, data.Stats.CVRF())
			}
			if st.inflates {
				if code.Stats.CVDT <= 3*data.Stats.CVDT {
					t.Errorf("%s: code-ship CVDT %d should be ~4x data-ship %d", st.label, code.Stats.CVDT, data.Stats.CVDT)
				}
			} else if code.Stats.CVDT >= data.Stats.CVDT {
				t.Errorf("%s: code-ship CVDT %d not below data-ship %d", st.label, code.Stats.CVDT, data.Stats.CVDT)
			}
			// Figure 9(b): the optimizer's own choice never moves more
			// than the better forced plan.
			if best := min(code.Stats.CVDT, data.Stats.CVDT); auto.Stats.CVDT > best {
				t.Errorf("%s: auto CVDT %d above the better forced plan's %d", st.label, auto.Stats.CVDT, best)
			}
			// Section 5.3: the VRF estimate of transmitted volume beats the
			// selectivity-and-cardinality-only estimate.
			if st.ablation {
				est := code.Plan.Est
				actual := float64(code.Stats.CVDT)
				if math.Abs(float64(est.CVDT)-actual) >= math.Abs(float64(est.CVDTSelOnly)-actual) {
					t.Errorf("%s: VRF estimate %d is no closer to the measured %d than sel-only %d",
						st.label, est.CVDT, code.Stats.CVDT, est.CVDTSelOnly)
				}
			}
			if st.cal == nil {
				continue
			}
			// Figure 10(b): volume under code shipping grows with
			// selectivity, and stays far below selectivity × table bytes —
			// what an optimizer pricing by selectivity alone would expect.
			if code.Stats.CVDT <= prevQ4 {
				t.Errorf("%s: code-ship CVDT %d not above the previous point's %d", st.label, code.Stats.CVDT, prevQ4)
			}
			prevQ4 = code.Stats.CVDT
			if 4*float64(code.Stats.CVDT) >= st.cal.Actual*float64(data.Stats.CVDT) {
				t.Errorf("%s: code-ship CVDT %d not below a quarter of %.2f x %d",
					st.label, code.Stats.CVDT, st.cal.Actual, data.Stats.CVDT)
			}
		}
	})

	t.Run("times_at_10Mbps", func(t *testing.T) {
		cl, scale := testCluster(t, ClusterConfig{Shaper: Ethernet10Mbps()})
		stmts := paperStatements(t, cl, scale)
		var log strings.Builder
		runs := runPaperStatements(t, cl, stmts, []Strategy{StrategyCodeShip, StrategyDataShip}, &log)
		t.Logf("10 Mbit/s, 300 us link:\n%s%s", paperTableHeader, log.String())

		// Figures 9(a), 10(a): the lower-CVRF plan is the faster plan.
		for i, st := range stmts {
			if !st.timed {
				continue
			}
			fast, slow := runs[i][StrategyCodeShip], runs[i][StrategyDataShip]
			if st.inflates {
				fast, slow = slow, fast
			}
			if fast.Stats.CVRF() >= slow.Stats.CVRF() {
				t.Errorf("%s: expected winner has CVRF %g against %g", st.label, fast.Stats.CVRF(), slow.Stats.CVRF())
			}
			if fast.Stats.TotalMS >= slow.Stats.TotalMS {
				t.Errorf("%s: lower-CVRF plan took %.1f ms against %.1f ms", st.label, fast.Stats.TotalMS, slow.Stats.TotalMS)
			}
		}
	})
}
