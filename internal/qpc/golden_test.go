package qpc

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mocha/internal/core"
	"mocha/internal/netsim"
)

// Golden-file coverage for the EXPLAIN and EXPLAIN ANALYZE renderings.
// Regenerate with:
//
//	go test ./internal/qpc -run Golden -update

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

var (
	traceIDRe = regexp.MustCompile(`q[0-9a-f]{8}-[0-9a-f]{4}`)
	msRe      = regexp.MustCompile(`\d+\.\d+ms`)
	floatRe   = regexp.MustCompile(`\d+\.\d+`)
	spaceRe   = regexp.MustCompile(`[ \t]+`)
)

// normalizeAnalysis strips everything nondeterministic from an EXPLAIN
// ANALYZE report — trace IDs, wall-clock timings, and the column padding
// derived from them — while keeping the structure, span names, sites,
// byte volumes and tuple counts, which are all deterministic.
func normalizeAnalysis(s string) string {
	s = traceIDRe.ReplaceAllString(s, "q<ID>")
	s = msRe.ReplaceAllString(s, "#ms")
	s = floatRe.ReplaceAllString(s, "#")
	var out []string
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		out = append(out, strings.TrimRight(spaceRe.ReplaceAllString(line, " "), " "))
	}
	return strings.Join(out, "\n") + "\n"
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(want) != got {
		t.Errorf("output diverges from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestGoldenExplain(t *testing.T) {
	cases := []struct {
		name string
		sql  string
	}{
		{"explain_scan_predicate", "SELECT time, AvgEnergy(image) FROM Rasters WHERE AvgEnergy(image) < 100"},
		{"explain_aggregate", "SELECT band, Count(time) FROM Rasters GROUP BY band"},
		{"explain_inflate", "SELECT time, IncrRes(image, 2) FROM Rasters"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := testQPC(t, core.StrategyAuto)
			text, err := s.Explain(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			// Plans are deterministic; only normalize cost floats so
			// estimator refinements don't churn the structural golden.
			got := normalizeAnalysis(text)
			checkGolden(t, tc.name, got)
		})
	}
}

// TestGoldenExplainAnalyzeRecovery pins the report shape on the two
// recovery paths: a stream interrupted and continued mid-flight (the
// resume span appears, volumes match a clean run) and a plan forced to
// data shipping by an open breaker (the degraded annotation appears and
// no code ships).
func TestGoldenExplainAnalyzeRecovery(t *testing.T) {
	t.Run("resumed_stream", func(t *testing.T) {
		h := newResumeHarness(t, nil, nil)
		// Deterministic byte threshold mid-stream: the ~166 KiB image
		// stream dies once around the halfway frame, then resumes.
		h.network.SetFault("dap1", &netsim.FaultPlan{DropFirstConnAfterBytes: 80 << 10})
		text, err := h.srv.ExplainAnalyze(context.Background(), streamQuery)
		if err != nil {
			t.Fatal(err)
		}
		if h.qpcCounter("qpc_stream_resumes") == 0 {
			t.Fatal("fault did not strike; golden would not cover the resume path")
		}
		checkGolden(t, "explain_analyze_resumed_stream", normalizeAnalysis(text))
	})
	t.Run("degraded_data_shipping", func(t *testing.T) {
		h := newResumeHarness(t, nil, nil)
		h.srv.Health().ForceOpen("site1")
		text, err := h.srv.ExplainAnalyze(context.Background(), codeShipQuery)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "explain_analyze_degraded_site", normalizeAnalysis(text))
	})
}

// TestGoldenExplainPartitioned pins the plan and analysis renderings of
// scattered queries: the partitions line (surviving/total shards with
// their serving replicas), and the per-shard remote spans in the
// analysis.
func TestGoldenExplainPartitioned(t *testing.T) {
	t.Run("scatter", func(t *testing.T) {
		h := newPartitionHarness(t, nil)
		text, err := h.srv.Explain(partScanQuery)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "explain_partitioned_scatter", normalizeAnalysis(text))
	})
	t.Run("pruned", func(t *testing.T) {
		h := newPartitionHarness(t, nil)
		text, err := h.srv.Explain("SELECT time, band FROM Rasters WHERE time < 1")
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "explain_partitioned_pruned", normalizeAnalysis(text))
	})
	t.Run("analyze_scatter", func(t *testing.T) {
		h := newPartitionHarness(t, nil)
		text, err := h.srv.ExplainAnalyze(context.Background(), partScanQuery)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "explain_analyze_partitioned_scatter", normalizeAnalysis(text))
	})
}

func TestGoldenExplainAnalyze(t *testing.T) {
	t.Run("single_site", func(t *testing.T) {
		s := testQPC(t, core.StrategyAuto)
		text, err := s.ExplainAnalyze(context.Background(), "SELECT time, AvgEnergy(image) FROM Rasters WHERE AvgEnergy(image) < 100")
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "explain_analyze_single_site", normalizeAnalysis(text))
	})
	t.Run("two_site_join", func(t *testing.T) {
		h := newChaosHarness(t, nil)
		text, err := h.srv.ExplainAnalyze(context.Background(), joinQuery)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "explain_analyze_two_site_join", normalizeAnalysis(text))
	})
}
