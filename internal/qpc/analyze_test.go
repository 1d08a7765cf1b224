package qpc

import (
	"context"
	"strings"
	"testing"
	"time"

	"mocha/internal/core"
)

// widenFrameTimeout keeps code-shipping queries (whose first DAP
// response waits on operator compilation, slow under -race) inside the
// per-frame bound.
func widenFrameTimeout(c *Config) { c.FrameTimeout = 2 * time.Second }

// TestAnalyzeTraceNetBytesMatchCVDT pins the observability layer's core
// accounting invariant: the bytes attributed to network transfer across
// all trace spans must equal the CVDT the stats report. Both numbers
// are derived from the same transfers by independent code paths (span
// AddBytes at each streaming site vs. the QueryStats accumulators), so
// a drifting instrumentation point shows up as a mismatch here.
func TestAnalyzeTraceNetBytesMatchCVDT(t *testing.T) {
	cases := []struct {
		name string
		sql  string
		tune func(*Config)
	}{
		{"two_site_join", joinQuery, widenFrameTimeout},
		// Forced code shipping runs the join as a semi-join: the key sets
		// cross the network both ways and are CVDT like any other byte.
		{"two_site_semijoin", joinQuery, forceCodeShip},
		{"single_site_stream", streamQuery, widenFrameTimeout},
		{"single_site_codeship", codeShipQuery, widenFrameTimeout},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newChaosHarness(t, tc.tune)
			_, stats, trace, err := h.srv.Analyze(context.Background(), tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if trace == nil {
				t.Fatal("Analyze returned no trace")
			}
			if tc.name == "two_site_semijoin" {
				var sent, recvd int64
				for _, sp := range trace.Spans() {
					switch sp.Name {
					case "keys:send":
						sent += sp.NetBytes
					case "keys:recv":
						recvd += sp.NetBytes
					}
				}
				if sent == 0 || recvd == 0 {
					t.Errorf("semi-join key spans carry %d B sent, %d B received; the exchange went uncounted", sent, recvd)
				}
			}
			if got, want := trace.NetBytes(), stats.CVDT; got != want {
				t.Errorf("trace spans carry %d net bytes, stats report CVDT %d", got, want)
			}
			if stats.CVDT == 0 {
				t.Error("query moved no bytes; the invariant was checked vacuously")
			}
		})
	}
}

// TestAnalyzeTwoSiteSpansPerFragment verifies the acceptance shape of
// EXPLAIN ANALYZE on a query spanning both sites: every site that runs
// a fragment contributes stream spans, and the rendered report exposes
// the per-fragment timeline.
func TestAnalyzeTwoSiteSpansPerFragment(t *testing.T) {
	h := newChaosHarness(t, nil)
	_, stats, trace, err := h.srv.Analyze(context.Background(), joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	streams := map[string]int64{}
	for _, sp := range trace.Spans() {
		if strings.HasPrefix(sp.Name, "stream") || strings.HasPrefix(sp.Name, "keys:") {
			streams[sp.Site] += sp.NetBytes
		}
	}
	for _, site := range []string{"site1", "site2"} {
		if streams[site] == 0 {
			t.Errorf("no net bytes attributed to a stream span of %s; spans: %v", site, trace.Spans())
		}
	}
	var total int64
	for _, b := range streams {
		total += b
	}
	if total != stats.CVDT {
		t.Errorf("per-site stream bytes sum to %d, CVDT is %d", total, stats.CVDT)
	}

	text, err := h.srv.ExplainAnalyze(context.Background(), joinQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trace", "site1", "site2", "stream"} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, text)
		}
	}
}

// TestAnalyzeUnderEveryStrategy checks the invariant is not an artifact
// of one placement: forced code shipping, forced data shipping and the
// optimizer's choice all keep span net bytes equal to CVDT.
func TestAnalyzeUnderEveryStrategy(t *testing.T) {
	for _, strat := range []core.Strategy{core.StrategyCodeShip, core.StrategyDataShip, core.StrategyAuto} {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			h := newChaosHarness(t, func(c *Config) {
				c.Strategy = strat
				widenFrameTimeout(c)
			})
			_, stats, trace, err := h.srv.Analyze(context.Background(), codeShipQuery)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := trace.NetBytes(), stats.CVDT; got != want {
				t.Errorf("%v: trace net bytes %d != CVDT %d", strat, got, want)
			}
		})
	}
}
