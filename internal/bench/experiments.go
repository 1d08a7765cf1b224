package bench

import (
	"fmt"

	"mocha/internal/sequoia"
	"mocha/pkg/mocha"
)

// Experiment identifiers, one per table/figure of the paper plus the
// ablations called out in DESIGN.md.
const (
	ExpTable1        = "table1"
	ExpTable2        = "table2"
	ExpFig9a         = "fig9a"
	ExpFig9b         = "fig9b"
	ExpFig10a        = "fig10a"
	ExpFig10b        = "fig10b"
	ExpFig11         = "fig11"
	ExpAblationVRF   = "ablation-vrf"
	ExpAblationCache = "ablation-codecache"
	ExpExecOverlap   = "exec-overlap"
)

// AllExperiments lists every experiment in presentation order.
var AllExperiments = []string{
	ExpTable1, ExpTable2, ExpFig9a, ExpFig9b, ExpFig10a, ExpFig10b,
	ExpFig11, ExpAblationVRF, ExpAblationCache, ExpExecOverlap,
}

// RunExperiment dispatches by identifier.
func (e *Env) RunExperiment(id string) ([]Table, error) {
	switch id {
	case ExpTable1:
		t, err := e.Table1()
		return []Table{t}, err
	case ExpTable2:
		return []Table{e.Table2()}, nil
	case ExpFig9a, ExpFig9b:
		a, b, err := e.Fig9()
		if err != nil {
			return nil, err
		}
		if id == ExpFig9a {
			return []Table{a}, nil
		}
		return []Table{b}, nil
	case ExpFig10a, ExpFig10b:
		a, b, err := e.Fig10(nil)
		if err != nil {
			return nil, err
		}
		if id == ExpFig10a {
			return []Table{a}, nil
		}
		return []Table{b}, nil
	case ExpFig11:
		t, err := e.Fig11()
		return []Table{t}, err
	case ExpAblationVRF:
		t, err := e.AblationVRF()
		return []Table{t}, err
	case ExpAblationCache:
		t, err := e.AblationCodeCache()
		return []Table{t}, err
	case ExpExecOverlap:
		t, err := e.ExecOverlap()
		return []Table{t}, err
	}
	return nil, fmt.Errorf("bench: unknown experiment %q", id)
}

// Table1 reports the generated datasets, mirroring the paper's Table 1.
func (e *Env) Table1() (Table, error) {
	t := Table{
		Title:  "Table 1: datasets",
		Note:   fmt.Sprintf("generated at scale (paper sizes: Polygons 77,643/18.8MB, Graphs 201,650/31MB, Rasters 200/200MB)"),
		Header: []string{"table", "rows", "bytes", "avg row"},
	}
	for _, name := range []string{"Polygons", "Graphs", "Rasters", "Rasters1", "Rasters2"} {
		tbl, ok := e.Cluster.Catalog().Table(name)
		if !ok {
			return t, fmt.Errorf("bench: table %s not registered", name)
		}
		total := tbl.Stats.RowCount * int64(tbl.Stats.AvgTupleBytes())
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", tbl.Stats.RowCount),
			fmt.Sprintf("%d", total),
			fmt.Sprintf("%d", tbl.Stats.AvgTupleBytes()),
		})
	}
	return t, nil
}

// Table2 lists the benchmark queries.
func (e *Env) Table2() Table {
	t := Table{
		Title:  "Table 2: benchmark queries",
		Header: []string{"id", "sql"},
	}
	t.Rows = append(t.Rows, []string{"Q1", oneLine(sequoia.Q1)})
	t.Rows = append(t.Rows, []string{"Q2", oneLine(sequoia.Q2(e.Cfg))})
	t.Rows = append(t.Rows, []string{"Q3", oneLine(sequoia.Q3)})
	t.Rows = append(t.Rows, []string{"Q4", oneLine(sequoia.Q4(0, 0)) + "   (constants set per selectivity)"})
	t.Rows = append(t.Rows, []string{"Q5", oneLine(sequoia.Q5)})
	return t
}

// Fig9 runs Q1 (aggregates), Q2 (reducing projection) and Q3 (inflating
// projection) under both strategies, producing the execution-time
// breakdown of Figure 9(a) and the volume comparison of Figure 9(b).
func (e *Env) Fig9() (Table, Table, error) {
	a := Table{
		Title:  "Figure 9(a): execution time, single data source",
		Note:   "paper shape: DAP wins Q1 ~4:1 and Q2 ~3:1; QPC wins Q3 (inflating op)",
		Header: []string{"query", "strategy", "total ms", "db ms", "cpu ms", "net ms", "misc ms", "rows"},
	}
	b := Table{
		Title:  "Figure 9(b): data volumes, single data source",
		Note:   "paper shape: lowest-CVRF plan is the fastest plan in every case",
		Header: []string{"query", "strategy", "CVDA", "CVDT", "result bytes", "CVRF"},
	}
	queries := []struct {
		label string
		sql   string
	}{
		{"Q1", sequoia.Q1},
		{"Q2", sequoia.Q2(e.Cfg)},
		{"Q3", sequoia.Q3},
	}
	for _, q := range queries {
		for _, strat := range []mocha.Strategy{mocha.StrategyCodeShip, mocha.StrategyDataShip} {
			m, err := e.runLabeled(q.label, q.sql, strat)
			if err != nil {
				return a, b, fmt.Errorf("%s: %w", q.label, err)
			}
			a.Rows = append(a.Rows, breakdownRow(q.label, m))
			b.Rows = append(b.Rows, volumeRow(q.label, m))
		}
	}
	return a, b, nil
}

// DefaultQ4Selectivities is the x-axis of Figure 10.
var DefaultQ4Selectivities = []float64{0.1, 0.25, 0.5, 0.75, 1.0}

// Fig10 runs Q4 across predicate selectivities under both strategies.
func (e *Env) Fig10(sels []float64) (Table, Table, error) {
	if sels == nil {
		sels = DefaultQ4Selectivities
	}
	a := Table{
		Title:  "Figure 10(a): Q4 execution time vs selectivity",
		Note:   "paper shape: DAP wins at every selectivity (2-3:1)",
		Header: []string{"selectivity", "strategy", "total ms", "db ms", "cpu ms", "net ms", "misc ms", "rows"},
	}
	b := Table{
		Title:  "Figure 10(b): Q4 transmitted volume vs selectivity",
		Note:   "paper shape: volume under code shipping ≪ selectivity × table bytes",
		Header: []string{"selectivity", "strategy", "CVDA", "CVDT", "result bytes", "CVRF"},
	}
	store := e.siteStore("site1")
	cals, err := sequoia.CalibrateQ4(store, sels)
	if err != nil {
		return a, b, err
	}
	for _, cal := range cals {
		e.Cluster.SetSelectivity("NumVertices", "Graphs", cal.VertSelectivity)
		e.Cluster.SetSelectivity("TotalLength", "Graphs", cal.LenSelectivity)
		sql := sequoia.Q4(cal.MaxVerts, cal.MaxLength)
		label := fmt.Sprintf("%.0f%% (actual %.0f%%)", cal.Target*100, cal.Actual*100)
		for _, strat := range []mocha.Strategy{mocha.StrategyCodeShip, mocha.StrategyDataShip} {
			m, err := e.runLabeled(label, sql, strat)
			if err != nil {
				return a, b, err
			}
			a.Rows = append(a.Rows, breakdownRow(label, m))
			b.Rows = append(b.Rows, volumeRow(label, m))
		}
	}
	return a, b, nil
}

// Fig11 runs the distributed join Q5 under both strategies, including
// the join-time component of the paper's Figure 11.
func (e *Env) Fig11() (Table, error) {
	t := Table{
		Title:  "Figure 11: Q5 distributed join",
		Note:   "paper shape: semi-join + code shipping wins ~2.5:1; CVRF 1 vs ~0.0001",
		Header: []string{"strategy", "total ms", "db ms", "cpu ms", "net ms", "join ms", "misc ms", "CVDA", "CVDT", "CVRF", "rows"},
	}
	for _, strat := range []mocha.Strategy{mocha.StrategyCodeShip, mocha.StrategyDataShip} {
		m, err := e.runLabeled("Q5", sequoia.Q5, strat)
		if err != nil {
			return t, err
		}
		s := m.Stats
		t.Rows = append(t.Rows, []string{
			m.Strategy, ms(s.TotalMS), ms(s.DBMS), ms(s.CPUMS), ms(s.NetMS),
			ms(s.JoinMS), ms(s.MiscMS), bytesOf(s.CVDA), bytesOf(s.CVDT),
			ratio(s.CVRF()), fmt.Sprintf("%d", m.Rows),
		})
	}
	return t, nil
}

// AblationVRF compares the VRF-based transmitted-volume estimate with
// the selectivity-and-cardinality-only estimate against the measured
// volume — the accuracy claim of section 5.3.
func (e *Env) AblationVRF() (Table, error) {
	t := Table{
		Title:  "Ablation: VRF vs selectivity-only volume estimation",
		Note:   "estimates come from the optimizer; 'measured' is the wire truth",
		Header: []string{"query", "measured CVDT", "VRF estimate", "sel-only estimate", "VRF err", "sel-only err"},
	}
	store := e.siteStore("site1")
	cals, err := sequoia.CalibrateQ4(store, []float64{0.5})
	if err != nil {
		return t, err
	}
	cal := cals[0]
	e.Cluster.SetSelectivity("NumVertices", "Graphs", cal.VertSelectivity)
	e.Cluster.SetSelectivity("TotalLength", "Graphs", cal.LenSelectivity)
	cases := []struct {
		label string
		sql   string
	}{
		{"Q2", sequoia.Q2(e.Cfg)},
		{"Q4@50%", sequoia.Q4(cal.MaxVerts, cal.MaxLength)},
	}
	for _, c := range cases {
		e.Cluster.SetStrategy(mocha.StrategyCodeShip)
		res, err := e.Cluster.Execute(c.sql)
		if err != nil {
			return t, err
		}
		measured := float64(res.Stats.CVDT)
		est := float64(res.Plan.Est.CVDT)
		selOnly := float64(res.Plan.Est.CVDTSelOnly)
		relErr := func(x float64) string {
			if measured == 0 {
				return "n/a"
			}
			return fmt.Sprintf("%+.0f%%", (x-measured)/measured*100)
		}
		t.Rows = append(t.Rows, []string{
			c.label,
			fmt.Sprintf("%.0f", measured),
			fmt.Sprintf("%.0f", est),
			fmt.Sprintf("%.0f", selOnly),
			relErr(est), relErr(selOnly),
		})
	}
	return t, nil
}

// ExecOverlap measures what the pipelined executor buys on the Q6
// triple-site join: with Serial tuning the QPC drains one remote stream
// at a time and builds hash tables sequentially (the pre-operator-tree
// behaviour); with default tuning both hash builds run concurrently
// while bounded prefetchers keep every fragment stream moving, so the
// three sites' transfer times overlap instead of adding up.
func (e *Env) ExecOverlap() (Table, error) {
	t := Table{
		Title:  "Ablation: executor overlap (concurrent builds + stream prefetch)",
		Note:   "Q6 triple-site join under data shipping; best of 3 after warmup",
		Header: []string{"executor", "strategy", "total ms", "db ms", "cpu ms", "net ms", "join ms", "rows"},
	}
	modes := []struct {
		label  string
		tuning mocha.Tuning
	}{
		{"serial", mocha.Tuning{Serial: true}},
		{"overlapped", mocha.Tuning{}},
	}
	var totals [2]float64
	for i, mode := range modes {
		opts := e.opts
		opts.Exec = mode.tuning
		env2, err := NewEnv(opts)
		if err != nil {
			return t, err
		}
		// Warm up caches and the code path, then keep the best of three:
		// overlap is a wall-clock claim, so scheduler noise must not pick
		// the winner.
		if _, err := env2.Run(sequoia.Q6, mocha.StrategyDataShip); err != nil {
			env2.Close()
			return t, err
		}
		var best Measurement
		for run := 0; run < 3; run++ {
			m, err := env2.Run(sequoia.Q6, mocha.StrategyDataShip)
			if err != nil {
				env2.Close()
				return t, err
			}
			if run == 0 || m.Stats.TotalMS < best.Stats.TotalMS {
				best = m
			}
		}
		env2.Close()
		best.Label = mode.label
		e.record = append(e.record, best)
		totals[i] = best.Stats.TotalMS
		s := best.Stats
		t.Rows = append(t.Rows, []string{
			mode.label, best.Strategy, ms(s.TotalMS), ms(s.DBMS), ms(s.CPUMS),
			ms(s.NetMS), ms(s.JoinMS), fmt.Sprintf("%d", best.Rows),
		})
	}
	if totals[1] > 0 {
		t.Rows = append(t.Rows, []string{
			"speedup", "", fmt.Sprintf("%.2fx", totals[0]/totals[1]),
			"", "", "", "", "",
		})
	}
	return t, nil
}

// AblationCodeCache measures repeated-query deployment cost with the DAP
// code cache on (the section 3.6 caching extension) and off.
func (e *Env) AblationCodeCache() (Table, error) {
	t := Table{
		Title:  "Ablation: DAP code cache",
		Note:   "same query three times; classes shipped per run",
		Header: []string{"cache", "run", "classes shipped", "code bytes", "deploy ms"},
	}
	sql := "SELECT time, AvgEnergy(image) FROM Rasters WHERE AvgEnergy(image) < 200"
	for _, disabled := range []bool{false, true} {
		env2, err := NewEnvLike(e, disabled)
		if err != nil {
			return t, err
		}
		label := "on"
		if disabled {
			label = "off"
		}
		for run := 1; run <= 3; run++ {
			m, err := env2.Run(sql, mocha.StrategyCodeShip)
			if err != nil {
				env2.Close()
				return t, err
			}
			t.Rows = append(t.Rows, []string{
				label, fmt.Sprintf("%d", run),
				fmt.Sprintf("%d", m.Stats.CodeClassesShipped),
				fmt.Sprintf("%d", m.Stats.CodeBytesShipped),
				ms(m.Stats.DeployMS),
			})
		}
		env2.Close()
	}
	return t, nil
}
