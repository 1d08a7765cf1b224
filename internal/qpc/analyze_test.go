package qpc

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"mocha/internal/core"
	"mocha/internal/netsim"
	"mocha/internal/obs"
)

// widenFrameTimeout keeps code-shipping queries (whose first DAP
// response waits on operator compilation, slow under -race) inside the
// per-frame bound.
func widenFrameTimeout(c *Config) { c.FrameTimeout = 2 * time.Second }

// TestAnalyzeTraceNetBytesMatchCVDT pins that the stats are a view of
// the trace: the bytes its spans attribute to network transfer are the
// CVDT the stats report, and the bytes they attribute to source reads
// the CVDA — the semi-join included, whose key scans read the source a
// second time (648 B in all) but are bookkeeping, not volume accessed
// (324 B).
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
			if got, want := trace.DBBytes(), stats.CVDA; got != want {
				t.Errorf("trace spans carry %d source bytes, stats report CVDA %d", got, want)
			}
			if stats.CVDT == 0 || stats.CVDA == 0 {
				t.Error("query read or moved no bytes; the invariant was checked vacuously")
			}
		})
	}
}

// TestWallPhasesSumToTotal pins that total_ms has a decomposition that
// adds up, and that what it adds up to is the time the caller waited.
// The wall spans are recorded back to back — planning, then from the
// query's arrival to its sessions' close — so each begins where the last
// ended and total_ms, their sum, has no gap to hide in; against a
// stopwatch around the call the total may only miss what follows the
// last phase (folding the trace into stats): 5 % or 200 µs. Checked on a
// plain join, the semi-join (which adds the keys phase), a stream cut and
// continued mid-flight, and a shard that fails over to its sibling replica.
// The work components are not part of it: they are summed across
// concurrent sites and may exceed the total.
func TestWallPhasesSumToTotal(t *testing.T) {
	cases := []struct {
		name  string
		run   func(t *testing.T) (*QueryStats, *obs.Trace, float64)
		phase string // a phase or recovery span the case must show
	}{
		{"two_site_join", func(t *testing.T) (*QueryStats, *obs.Trace, float64) {
			return analyzed(t, newChaosHarness(t, widenFrameTimeout).srv, joinQuery)
		}, obs.PhasePipeline},
		{"two_site_semijoin", func(t *testing.T) (*QueryStats, *obs.Trace, float64) {
			return analyzed(t, newChaosHarness(t, forceCodeShip).srv, joinQuery)
		}, obs.PhaseKeys},
		{"resumed_stream", func(t *testing.T) (*QueryStats, *obs.Trace, float64) {
			h := newResumeHarness(t, nil, nil)
			h.network.SetFault("dap1", &netsim.FaultPlan{DropFirstConnAfterBytes: 80 << 10})
			return analyzed(t, h.srv, streamQuery)
		}, obs.PhaseResume},
		{"replica_failover", func(t *testing.T) (*QueryStats, *obs.Trace, float64) {
			h := newPartitionHarness(t, func(c *Config) { c.Breaker = BreakerPolicy{FailureThreshold: 1} })
			clean, _, _ := analyzed(t, h.srv, partScanQuery)
			h.network.SetFault("dap1", &netsim.FaultPlan{DropFirstConnAfterBytes: clean.CVDT / 4})
			return analyzed(t, h.srv, partScanQuery)
		}, obs.PhaseFailover},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The stopwatch half is at the scheduler's mercy: one attempt in
			// three within tolerance is enough. The rest must hold every time.
			var gaps []string
			for attempt := 0; attempt < 3; attempt++ {
				stats, trace, elapsedMS := tc.run(t)
				var sum float64
				var names []string
				var end int64
				saw := false
				for _, sp := range trace.Spans() {
					saw = saw || sp.Name == tc.phase
					if !obs.IsWall(sp) {
						continue
					}
					if d := sp.StartMicros - end; d < -2 || d > 2 {
						t.Errorf("%s begins at %d µs, the phase before it ended at %d", sp.Name, sp.StartMicros, end)
					}
					end = sp.StartMicros + sp.DurMicros
					sum += float64(sp.DurMicros) / 1000
					names = append(names, sp.Name)
				}
				if !saw {
					t.Fatalf("trace has no %s span; the case does not cover what it names", tc.phase)
				}
				if math.Abs(stats.TotalMS-sum) > 0.001 {
					t.Errorf("wall phases %v sum to %.3f ms, total is %.3f ms", names, sum, stats.TotalMS)
				}
				if stats.MiscMS < stats.PlanMS+stats.DeployMS {
					t.Errorf("misc %.3f ms lost plan %.3f + deploy %.3f", stats.MiscMS, stats.PlanMS, stats.DeployMS)
				}
				gap := elapsedMS - stats.TotalMS
				if gap >= 0 && (gap <= 0.2 || gap <= 0.05*elapsedMS) {
					return
				}
				gaps = append(gaps, fmt.Sprintf("total %.3f of %.3f ms waited", stats.TotalMS, elapsedMS))
			}
			t.Errorf("total_ms never within 5%% / 200 µs of the stopwatch: %v", gaps)
		})
	}
}

// analyzed runs sql under EXPLAIN ANALYZE's machinery, timing the call.
func analyzed(t *testing.T, srv *Server, sql string) (*QueryStats, *obs.Trace, float64) {
	t.Helper()
	start := time.Now()
	_, stats, trace, err := srv.Analyze(context.Background(), sql)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	return stats, trace, float64(elapsed.Microseconds()) / 1000
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
