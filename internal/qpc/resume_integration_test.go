package qpc

// Integration coverage for incremental stream recovery: a QPC and a DAP
// over netsim, with drop faults striking mid-stream. The DAP batches
// small (4 KiB target) so the Rasters stream spans many frames and a
// resume has a real prefix to save; the replay window is small (32 KiB)
// so the retransmission bound is tight and test-assertable.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mocha/internal/catalog"
	"mocha/internal/core"
	"mocha/internal/dap"
	"mocha/internal/netsim"
	"mocha/internal/obs"
	"mocha/internal/ops"
	"mocha/internal/sequoia"
	"mocha/internal/storage"
	"mocha/internal/types"
)

const testReplayWindow = 32 << 10

// resumeHarness is a QPC with one DAP site ("site1" at addr "dap1")
// holding the Sequoia tables, with dedicated metric registries on both
// sides so counter assertions are isolated per test.
type resumeHarness struct {
	srv     *Server
	network *netsim.Network
	dapReg  *obs.Registry
}

func newResumeHarness(t *testing.T, tuneQ func(*Config), tuneD func(*dap.Config)) *resumeHarness {
	t.Helper()
	network := netsim.NewNetwork(nil)
	cfg := sequoia.TestScale()
	store, err := storage.OpenStore("", 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := sequoia.GenerateAll(store, cfg); err != nil {
		t.Fatal(err)
	}

	dapReg := obs.NewRegistry()
	dcfg := dap.Config{
		Site:              "site1",
		Driver:            &dap.StorageDriver{Store: store},
		IdleTimeout:       2 * time.Second,
		FrameTimeout:      time.Second,
		BatchBytes:        4 << 10,
		ReplayWindowBytes: testReplayWindow,
		Metrics:           dapReg,
	}
	if tuneD != nil {
		tuneD(&dcfg)
	}
	l, err := network.Listen("dap1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go dap.New(dcfg).Serve(l)

	reg := ops.Builtins()
	cat := catalog.New(reg, catalog.NewRepositoryFromRegistry(reg))
	cat.AddSite(&catalog.Site{Name: "site1", Addr: "dap1"})
	registerStoreTables(t, cat, store, "site1", "Polygons", "Graphs", "Rasters")

	qcfg := Config{
		Cat:          cat,
		Dial:         network.Dial,
		Strategy:     core.StrategyAuto,
		Metrics:      obs.NewRegistry(),
		QueryTimeout: 5 * time.Second,
		FrameTimeout: 2 * time.Second,
		Retry: RetryPolicy{
			MaxAttempts: 4,
			BaseDelay:   5 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
			Multiplier:  2,
			Jitter:      0.5,
			Budget:      8,
		},
	}
	if tuneQ != nil {
		tuneQ(&qcfg)
	}
	return &resumeHarness{srv: New(qcfg), network: network, dapReg: dapReg}
}

func (h *resumeHarness) executeWithin(t *testing.T, wall time.Duration, sql string) (*Result, error) {
	t.Helper()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := h.srv.Execute(sql)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(wall):
		t.Fatalf("query %q hung for more than %v", sql, wall)
		return nil, nil
	}
}

func (h *resumeHarness) qpcCounter(name string) int64 {
	return h.srv.Metrics().Counter(name).Value()
}

// TestResumeSingleDropMidStream is the acceptance scenario: one drop
// strikes the image stream mid-flight, the QPC's next START continues it,
// and the query completes with volumes identical to a clean run. The
// DAP retransmits only its replay window, and the bytes already
// delivered before the drop are counted as the resume's saving.
func TestResumeSingleDropMidStream(t *testing.T) {
	clean := newResumeHarness(t, nil, nil)
	base, err := clean.executeWithin(t, 10*time.Second, streamQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Rows) == 0 || base.Stats.CVDT == 0 {
		t.Fatalf("clean baseline moved nothing: %d rows, CVDT %d", len(base.Rows), base.Stats.CVDT)
	}

	h := newResumeHarness(t, nil, nil)
	// Strike well inside the stream: past the handshake, with frames
	// still to come.
	h.network.SetFault("dap1", &netsim.FaultPlan{DropFirstConnAfterBytes: base.Stats.CVDT / 2})
	res, err := h.executeWithin(t, 10*time.Second, streamQuery)
	if err != nil {
		t.Fatalf("query should survive a single mid-stream drop by continuing the stream: %v", err)
	}
	if len(res.Rows) != len(base.Rows) {
		t.Errorf("resumed query returned %d rows, clean run %d", len(res.Rows), len(base.Rows))
	}
	if res.Stats.CVDT != base.Stats.CVDT {
		t.Errorf("CVDT %d after resume, clean run moved %d (replayed frames double-counted?)",
			res.Stats.CVDT, base.Stats.CVDT)
	}
	if res.Stats.CVDA != base.Stats.CVDA {
		t.Errorf("CVDA %d after resume, clean run read %d", res.Stats.CVDA, base.Stats.CVDA)
	}

	resumes := h.qpcCounter("qpc_stream_resumes")
	if resumes < 1 {
		t.Fatal("stream recovered without a continuation being counted")
	}
	if saved := h.qpcCounter("qpc_resume_saved_bytes"); saved <= 0 {
		t.Errorf("resume saved %d bytes; a mid-stream resume must save the delivered prefix", saved)
	}
	replayed := h.dapReg.Counter("dap_stream_replayed_bytes").Value()
	if replayed <= 0 {
		t.Error("DAP replayed nothing; the continuation should retransmit the unacked tail")
	}
	if bound := resumes * testReplayWindow; replayed > bound {
		t.Errorf("DAP replayed %d bytes across %d resume(s), beyond the %d replay-window bound",
			replayed, resumes, bound)
	}
	if parked := h.dapReg.Counter("dap_streams_parked").Value(); parked < 1 {
		t.Error("DAP never parked the interrupted stream")
	}
	if restarted := h.qpcCounter("qpc_resume_failed"); restarted != 0 {
		t.Errorf("resume fell back to restart %d time(s); the window should have covered it", restarted)
	}
}

// TestResumeDoubleDropStatsExact breaks the stream more than once and
// pins volume exactness: neither replayed-window bytes nor a prefix sent
// again may double-count into CVDT/CVDA. One chain drops *every*
// connection after a per-connection byte budget, forcing at least two
// continuations before the stream finishes. The other's first drop finds
// the window gone (frames lost in flight, and the window holds one), so
// the fragment runs afresh and the delivered prefix is being discarded —
// or has just been — when the second drop strikes; that one the window
// covers, so the stream continues inside its second execution and the
// discard carries on where it was.
func TestResumeDoubleDropStatsExact(t *testing.T) {
	clean := newResumeHarness(t, nil, nil)
	base, err := clean.executeWithin(t, 10*time.Second, streamQuery)
	if err != nil {
		t.Fatal(err)
	}
	exact := func(t *testing.T, res *Result) {
		t.Helper()
		if fmt.Sprint(res.Rows) != fmt.Sprint(base.Rows) {
			t.Errorf("rows differ from the clean run (%d vs %d)", len(res.Rows), len(base.Rows))
		}
		if res.Stats.CVDT != base.Stats.CVDT || res.Stats.CVDA != base.Stats.CVDA || res.Trace.NetBytes() != res.Stats.CVDT {
			t.Errorf("CVDT %d CVDA %d span net bytes %d, clean run %d / %d",
				res.Stats.CVDT, res.Stats.CVDA, res.Trace.NetBytes(), base.Stats.CVDT, base.Stats.CVDA)
		}
	}

	t.Run("window_held_chain", func(t *testing.T) {
		h := newResumeHarness(t, nil, nil)
		// Each connection dies after carrying about a third of the stream;
		// every redial gets a fresh budget, so the chain makes progress and
		// fails again at least twice before the EOS lands.
		h.network.SetFault("dap1", &netsim.FaultPlan{DropEachConnAfterBytes: base.Stats.CVDT / 3})
		res, err := h.executeWithin(t, 15*time.Second, streamQuery)
		if err != nil {
			t.Fatalf("query should survive a chain of drops: %v", err)
		}
		exact(t, res)
		resumes := h.qpcCounter("qpc_stream_resumes")
		if resumes < 2 {
			t.Errorf("chain counted %d continuations, want at least 2", resumes)
		}
		if replayed, bound := h.dapReg.Counter("dap_stream_replayed_bytes").Value(), resumes*testReplayWindow; replayed > bound {
			t.Errorf("replayed %d bytes across %d continuations, beyond the %d window bound", replayed, resumes, bound)
		}
	})

	// An image is five batch targets long, so the stream is a frame a row.
	frame := int(base.Stats.CVDT) / len(base.Rows)
	for name, second := range map[string]int{"fresh_start_then_drop_in_prefix": 2, "fresh_start_then_drop_past_prefix": 6} {
		t.Run(name, func(t *testing.T) {
			h := newResumeHarness(t, func(c *Config) {
				cutDial(c, "dap1", 1, &cutConn{after: 4, lose: 2 * frame})
				cutDial(c, "dap1", 2, &cutConn{after: second})
			}, func(d *dap.Config) { d.ReplayWindowBytes = 1 })
			res, err := h.executeWithin(t, 15*time.Second, streamQuery)
			if err != nil {
				t.Fatal(err)
			}
			exact(t, res)
			if failed, resumed := h.qpcCounter("qpc_resume_failed"), h.qpcCounter("qpc_stream_resumes"); failed != 1 || resumed != 1 {
				t.Errorf("%d STARTs answered afresh, %d continued; want 1 and 1", failed, resumed)
			}
			if n := h.dapReg.Counter("dap_stream_window_evicted").Value(); n != 1 {
				t.Errorf("dap_stream_window_evicted = %d, want 1", n)
			}
		})
	}
}

// TestResumeExpiredFallsBackToRestart takes the stream's retained state
// away before the QPC's START can name it — the park's TTL expired, or
// the window moved past frames the QPC never received — so that START is
// answered by running the fragment afresh, in the same turn: the QPC
// discards the already-delivered prefix and the row set — and the logical
// volume — stay exact.
func TestResumeExpiredFallsBackToRestart(t *testing.T) {
	clean := newResumeHarness(t, nil, nil)
	base, err := clean.executeWithin(t, 10*time.Second, streamQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		tuneQ   func(*Config)
		tuneD   func(*dap.Config)
		fault   *netsim.FaultPlan
		counter string // the DAP's account of why
	}{
		{
			// A parked stream is evicted effectively immediately, so the
			// START always arrives too late.
			name:    "ttl_expired",
			tuneD:   func(d *dap.Config) { d.RetainTTL = time.Nanosecond },
			fault:   &netsim.FaultPlan{DropFirstConnAfterBytes: base.Stats.CVDT / 2},
			counter: "dap_stream_retain_expired",
		},
		{
			// Two frames (a frame is a row here) are lost in flight after
			// the fourth; the window holds the newest one.
			name: "window_evicted",
			tuneQ: func(c *Config) {
				cutDial(c, "dap1", 1, &cutConn{after: 4, lose: 2 * int(base.Stats.CVDT) / len(base.Rows)})
			},
			tuneD:   func(d *dap.Config) { d.ReplayWindowBytes = 1 },
			counter: "dap_stream_window_evicted",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newResumeHarness(t, tc.tuneQ, tc.tuneD)
			h.network.SetFault("dap1", tc.fault)
			res, err := h.executeWithin(t, 10*time.Second, streamQuery)
			if err != nil {
				t.Fatalf("query should survive by running the fragment afresh when the window is gone: %v", err)
			}
			if fmt.Sprint(res.Rows) != fmt.Sprint(base.Rows) {
				t.Errorf("rows differ from the clean run (%d vs %d)", len(res.Rows), len(base.Rows))
			}
			if res.Stats.CVDT != base.Stats.CVDT || res.Trace.NetBytes() != res.Stats.CVDT {
				t.Errorf("CVDT %d, span net bytes %d; clean run moved %d", res.Stats.CVDT, res.Trace.NetBytes(), base.Stats.CVDT)
			}
			if failed := h.qpcCounter("qpc_resume_failed"); failed != 1 {
				t.Errorf("qpc_resume_failed = %d, want 1 START answered afresh", failed)
			}
			if wasted := h.qpcCounter("qpc_restart_wasted_bytes"); wasted <= 0 {
				t.Errorf("a non-empty prefix was discarded but %d wasted bytes counted", wasted)
			}
			if n := h.dapReg.Counter(tc.counter).Value(); n < 1 {
				t.Errorf("%s = %d, want at least 1", tc.counter, n)
			}
			var sawRestart bool
			for _, sp := range res.Trace.Spans() {
				sawRestart = sawRestart || sp.Name == obs.PhaseRestart && sp.Tuples > 0
			}
			if !sawRestart {
				t.Error("trace has no restart span saying how long a prefix was discarded")
			}
		})
	}
}

// TestResumeSemiJoinWindowGone drops the stream of a semi-join fragment
// with its window gone (RetainTTL = 1 ns): the fragment runs afresh with
// the intersected key set riding behind the START again. The re-sent keys
// are recovery overhead — qpc_restart_wasted_bytes, never a span — so the
// rows, CVDT and the span sum are the clean run's.
func TestResumeSemiJoinWindowGone(t *testing.T) {
	tuneD := func(d *dap.Config) { d.BatchBytes, d.RetainTTL = 64, time.Nanosecond }
	clean := newChaosHarness(t, forceCodeShip, tuneD)
	base, err := clean.executeWithin(t, 10*time.Second, sequoia.Q5)
	if err != nil {
		t.Fatal(err)
	}
	var keyBytes int64
	for _, sp := range base.Trace.Spans() {
		if sp.Name == obs.PhaseKeysSend && sp.Site == "site2" {
			keyBytes = sp.NetBytes
		}
	}
	if len(base.Rows) == 0 || keyBytes == 0 {
		t.Fatalf("clean run: %d rows, %d key bytes sent to site2; not a semi-join worth dropping", len(base.Rows), keyBytes)
	}

	h := newChaosHarness(t, func(c *Config) {
		forceCodeShip(c)
		c.Metrics = obs.NewRegistry()
		cutDial(c, "dap2", 1, &cutConn{keyed: true, after: 2})
	}, tuneD)
	res, err := h.executeWithin(t, 10*time.Second, sequoia.Q5)
	if err != nil {
		t.Fatalf("semi-join stream past its replay window should run afresh: %v", err)
	}
	if fmt.Sprint(res.Rows) != fmt.Sprint(base.Rows) {
		t.Errorf("rows differ from the clean run (%d vs %d)", len(res.Rows), len(base.Rows))
	}
	if res.Stats.CVDT != base.Stats.CVDT || res.Trace.NetBytes() != res.Stats.CVDT {
		t.Errorf("CVDT %d, span net bytes %d; clean run moved %d", res.Stats.CVDT, res.Trace.NetBytes(), base.Stats.CVDT)
	}
	met := h.srv.Metrics()
	if n := met.Counter("qpc_resume_failed").Value(); n != 1 {
		t.Errorf("qpc_resume_failed = %d, want the one START answered afresh", n)
	}
	if wasted := met.Counter("qpc_restart_wasted_bytes").Value(); wasted <= keyBytes {
		t.Errorf("qpc_restart_wasted_bytes = %d, want the re-sent key set (%d B) and a discarded prefix", wasted, keyBytes)
	}
}

// TestResumeBudgetDryIsTyped breaks every connection with one retry
// token in the query's budget: the first re-placement spends it, the
// second is refused, and the caller can tell — a BudgetExhaustedError
// that still unwraps to the transport failure.
func TestResumeBudgetDryIsTyped(t *testing.T) {
	h := newResumeHarness(t, func(c *Config) { c.Retry.Budget = 1 }, nil)
	h.network.SetFault("dap1", &netsim.FaultPlan{DropEachConnAfterBytes: 40 << 10})
	_, err := h.executeWithin(t, 10*time.Second, streamQuery)
	var be *BudgetExhaustedError
	if !errors.As(err, &be) || !errors.Is(err, ErrRetryBudgetExhausted) || !transientErr(be.Last) {
		t.Fatalf("err = %v, want a BudgetExhaustedError around the drop", err)
	}
	if n := h.qpcCounter("qpc_stream_resumes"); n != 1 {
		t.Errorf("qpc_stream_resumes = %d, want the one continuation the budget paid for", n)
	}
}

// TestResumeTraceSpanSumStillMatchesCVDT extends the PR 2 accounting
// invariant to the recovery path: on a resumed query the trace's net
// bytes must still equal CVDT — the resume span carries zero net bytes,
// and replayed frames are never attributed anywhere.
func TestResumeTraceSpanSumStillMatchesCVDT(t *testing.T) {
	clean := newResumeHarness(t, nil, nil)
	base, err := clean.executeWithin(t, 10*time.Second, streamQuery)
	if err != nil {
		t.Fatal(err)
	}
	h := newResumeHarness(t, nil, nil)
	h.network.SetFault("dap1", &netsim.FaultPlan{DropFirstConnAfterBytes: base.Stats.CVDT / 2})

	q, err := h.srv.Prepare(streamQuery)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	stats, trace, err := q.RunTraced(context.Background(), func(types.Tuple) error { rows++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if h.qpcCounter("qpc_stream_resumes") == 0 {
		t.Fatal("fault did not strike; invariant checked vacuously")
	}
	if got, want := trace.NetBytes(), stats.CVDT; got != want {
		t.Errorf("trace spans carry %d net bytes on a resumed query, CVDT is %d", got, want)
	}
	var sawResume bool
	for _, sp := range trace.Spans() {
		if sp.Name == "resume" {
			sawResume = true
			if sp.NetBytes != 0 {
				t.Errorf("resume span attributed %d net bytes; replay must not count", sp.NetBytes)
			}
		}
	}
	if !sawResume {
		t.Error("resumed query's trace has no resume span")
	}
	_ = rows
}

// TestBreakerForcesDataShippingPlan covers the degraded-planning
// acceptance path: with site1's breaker forced open, EXPLAIN shows the
// fragment re-planned under data shipping with the health-override
// annotation, and closing the breaker restores the code-shipping plan.
func TestBreakerForcesDataShippingPlan(t *testing.T) {
	h := newResumeHarness(t, nil, nil)
	healthy, err := h.srv.Explain(codeShipQuery)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(healthy, "degraded") {
		t.Fatalf("healthy plan already annotated degraded:\n%s", healthy)
	}

	h.srv.Health().ForceOpen("site1")
	degraded, err := h.srv.Explain(codeShipQuery)
	if err != nil {
		t.Fatal(err)
	}
	if want := "[degraded: data shipping forced by site health]"; !strings.Contains(degraded, want) {
		t.Fatalf("EXPLAIN with breaker open should carry %q:\n%s", want, degraded)
	}

	h.srv.Health().Reset("site1")
	restored, err := h.srv.Explain(codeShipQuery)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(restored, "degraded") {
		t.Fatalf("plan still degraded after breaker reset:\n%s", restored)
	}
}

// TestDegradedReplanMidQuery exercises the re-planning path end to end:
// the site refuses exactly enough dials to trip its breaker during
// execution, the QPC re-plans the fragment under data shipping and the
// re-execution succeeds on the recovered link.
func TestDegradedReplanMidQuery(t *testing.T) {
	h := newResumeHarness(t, func(c *Config) { c.Strategy = core.StrategyCodeShip }, nil)
	h.network.SetFault("dap1", &netsim.FaultPlan{RefuseDials: 3})
	res, err := h.executeWithin(t, 10*time.Second, codeShipQuery)
	if err != nil {
		t.Fatalf("query should survive via degraded re-plan: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("re-planned query returned no rows")
	}
	if replans := h.qpcCounter("qpc_degraded_replans"); replans != 1 {
		t.Errorf("qpc_degraded_replans = %d, want 1", replans)
	}
	var sawDegraded bool
	for _, f := range res.Plan.Fragments {
		if f.Degraded {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Error("executed plan carries no degraded fragment after the re-plan")
	}
}
