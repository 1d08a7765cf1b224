package qpc

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"mocha/internal/core"
	"mocha/internal/obs"
	"mocha/internal/types"
)

// Analyze executes sql, discarding result rows, and returns the stats
// and assembled cross-site trace — the machinery behind EXPLAIN ANALYZE.
func (s *Server) Analyze(ctx context.Context, sql string) (*core.Plan, *QueryStats, *obs.Trace, error) {
	q, err := s.Prepare(sql)
	if err != nil {
		return nil, nil, nil, err
	}
	stats, trace, err := q.RunTraced(ctx, func(types.Tuple) error { return nil })
	if err != nil {
		return q.Plan, nil, trace, err
	}
	return q.Plan, stats, trace, nil
}

// ExplainAnalyze executes sql and renders the plan, the measured
// execution breakdown, and the per-fragment span timeline.
func (s *Server) ExplainAnalyze(ctx context.Context, sql string) (string, error) {
	plan, stats, trace, err := s.Analyze(ctx, sql)
	if err != nil {
		return "", err
	}
	return RenderAnalysis(plan, stats, trace), nil
}

// RenderAnalysis formats an EXPLAIN ANALYZE report: the optimizer's plan
// rendering followed by the measured time/volume breakdown and the
// cross-site span timeline. Time is shown twice over: the wall row is
// the query's sequential phases, which add up to the total; the work row
// is what the sites did inside them, each component summed over sites
// that ran concurrently, so it answers where effort went, not how long
// the query took.
func RenderAnalysis(plan *core.Plan, stats *QueryStats, trace *obs.Trace) string {
	var b strings.Builder
	b.WriteString(strings.TrimRight(core.Explain(plan), "\n"))
	b.WriteString("\n\n")
	// Spans come ordered by start, so the wall phases arrive in the order
	// they ran.
	var phases []string
	var dapSetup int64
	for _, s := range trace.Spans() {
		switch {
		case obs.IsWall(s):
			phases = append(phases, fmt.Sprintf("%s %.1f", s.Name, float64(s.DurMicros)/1000))
		case obs.ClassOf(s) == obs.ClassMisc:
			dapSetup += s.DurMicros
		}
	}
	fmt.Fprintf(&b, "executed: total %.1fms\n", stats.TotalMS)
	fmt.Fprintf(&b, "  wall: %s (ms, one after another)\n", strings.Join(phases, " + "))
	fmt.Fprintf(&b, "  work: db %.1f, cpu %.1f, net %.1f, join %.1f, dap set-up %.1f (ms, summed across sites)\n",
		stats.DBMS, stats.CPUMS, stats.NetMS, stats.JoinMS, float64(dapSetup)/1000)
	fmt.Fprintf(&b, "volumes: cvda %d B, cvdt %d B, cvrf %.4f, result %d tuples / %d B\n",
		stats.CVDA, stats.CVDT, stats.CVRF(), stats.ResultTuples, stats.ResultBytes)
	fmt.Fprintf(&b, "code shipping: %d classes / %d B shipped, %d cache hits\n",
		stats.CodeClassesShipped, stats.CodeBytesShipped, stats.CacheHits)
	if ops := renderOperators(trace); ops != "" {
		b.WriteString("\n")
		b.WriteString(ops)
	}
	b.WriteString("\n")
	b.WriteString(trace.Render())
	return b.String()
}

// renderOperators formats the per-operator execution breakdown from the
// trace's operator spans ("op:*"): rows pulled from children, rows
// produced, output batches, and self time (work in the operator itself,
// excluding its children), grouped by site. Empty when the trace holds
// no operator spans (e.g. a failed execution).
func renderOperators(trace *obs.Trace) string {
	spans := trace.Spans()
	var ops []obs.Span
	for _, s := range spans {
		if strings.HasPrefix(s.Name, obs.SpanOpPrefix) {
			ops = append(ops, s)
		}
	}
	if len(ops) == 0 {
		return ""
	}
	sort.SliceStable(ops, func(i, j int) bool {
		if ops[i].Site != ops[j].Site {
			return ops[i].Site < ops[j].Site
		}
		return ops[i].Name < ops[j].Name
	})
	var b strings.Builder
	b.WriteString("operators:\n")
	header := [7]string{"operator", "site", "rows in", "rows out", "batches", "self", "spilled"}
	widths := [7]int{}
	for i, h := range header {
		widths[i] = len(h)
	}
	rows := make([][7]string, 0, len(ops))
	for _, s := range ops {
		site := s.Site
		if site == "" {
			site = "qpc"
		}
		spilled := "-"
		if s.SpillBytes > 0 {
			spilled = fmt.Sprintf("%d B", s.SpillBytes)
		}
		row := [7]string{
			s.Name, site,
			fmt.Sprintf("%d", s.RowsIn),
			fmt.Sprintf("%d", s.Tuples),
			fmt.Sprintf("%d", s.Batches),
			fmt.Sprintf("%.1fms", float64(s.DurMicros)/1000),
			spilled,
		}
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
		rows = append(rows, row)
	}
	line := func(cells [7]string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for _, row := range rows {
		line(row)
	}
	return b.String()
}
