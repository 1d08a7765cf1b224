package qpc

// Integration coverage for incremental stream recovery: a QPC and a DAP
// over netsim, with drop faults striking mid-stream. The DAP batches
// small (4 KiB target) so the Rasters stream spans many frames and a
// resume has a real prefix to save; the replay window is small (32 KiB)
// so the retransmission bound is tight and test-assertable.

import (
	"context"
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
// strikes the image stream mid-flight, the QPC reconnects and RESUMEs,
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
		t.Fatalf("query should survive a single mid-stream drop via RESUME: %v", err)
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
		t.Fatal("stream recovered without a RESUME being counted")
	}
	if saved := h.qpcCounter("qpc_resume_saved_bytes"); saved <= 0 {
		t.Errorf("resume saved %d bytes; a mid-stream resume must save the delivered prefix", saved)
	}
	replayed := h.dapReg.Counter("dap_stream_replayed_bytes").Value()
	if replayed <= 0 {
		t.Error("DAP replayed nothing; the RESUME should retransmit the unacked tail")
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

// TestResumeDoubleDropStatsExact drops the stream on *every* connection
// after a per-connection byte budget, forcing a resume chain (at least
// two RESUMEs before the stream finishes), and pins volume exactness:
// replayed-window bytes must not double-count into CVDT/CVDA.
func TestResumeDoubleDropStatsExact(t *testing.T) {
	clean := newResumeHarness(t, nil, nil)
	base, err := clean.executeWithin(t, 10*time.Second, streamQuery)
	if err != nil {
		t.Fatal(err)
	}

	h := newResumeHarness(t, nil, nil)
	// Each connection dies after carrying about a third of the stream;
	// every redial gets a fresh budget, so the chain makes progress and
	// fails again at least twice before the EOS lands.
	h.network.SetFault("dap1", &netsim.FaultPlan{DropEachConnAfterBytes: base.Stats.CVDT / 3})
	res, err := h.executeWithin(t, 15*time.Second, streamQuery)
	if err != nil {
		t.Fatalf("query should survive a resume chain: %v", err)
	}
	if len(res.Rows) != len(base.Rows) {
		t.Errorf("got %d rows, clean run %d", len(res.Rows), len(base.Rows))
	}
	if res.Stats.CVDT != base.Stats.CVDT {
		t.Errorf("CVDT %d after %d resumes, clean run moved %d",
			res.Stats.CVDT, h.qpcCounter("qpc_stream_resumes"), base.Stats.CVDT)
	}
	if res.Stats.CVDA != base.Stats.CVDA {
		t.Errorf("CVDA %d, clean run read %d", res.Stats.CVDA, base.Stats.CVDA)
	}
	resumes := h.qpcCounter("qpc_stream_resumes")
	if resumes < 2 {
		t.Errorf("resume chain counted %d resumes, want at least 2", resumes)
	}
	if replayed, bound := h.dapReg.Counter("dap_stream_replayed_bytes").Value(), resumes*testReplayWindow; replayed > bound {
		t.Errorf("replayed %d bytes across %d resumes, beyond the %d window bound", replayed, resumes, bound)
	}
}

// TestResumeExpiredFallsBackToRestart forces the retention TTL to
// expire before the QPC can RESUME: the DAP nacks the unknown stream
// and the QPC restarts the fragment from scratch, discarding the
// already-delivered prefix so the row set — and the logical volume —
// stay exact.
func TestResumeExpiredFallsBackToRestart(t *testing.T) {
	clean := newResumeHarness(t, nil, nil)
	base, err := clean.executeWithin(t, 10*time.Second, streamQuery)
	if err != nil {
		t.Fatal(err)
	}

	h := newResumeHarness(t, nil, func(d *dap.Config) {
		// A parked stream is evicted effectively immediately, so the
		// RESUME always arrives too late.
		d.RetainTTL = time.Nanosecond
	})
	h.network.SetFault("dap1", &netsim.FaultPlan{DropFirstConnAfterBytes: base.Stats.CVDT / 2})
	res, err := h.executeWithin(t, 10*time.Second, streamQuery)
	if err != nil {
		t.Fatalf("query should survive via full restart when the window is gone: %v", err)
	}
	if len(res.Rows) != len(base.Rows) {
		t.Errorf("restarted query returned %d rows, clean run %d", len(res.Rows), len(base.Rows))
	}
	if res.Stats.CVDT != base.Stats.CVDT {
		t.Errorf("CVDT %d after restart, clean run moved %d", res.Stats.CVDT, base.Stats.CVDT)
	}
	if failed := h.qpcCounter("qpc_resume_failed"); failed < 1 {
		t.Error("restart path taken without qpc_resume_failed being counted")
	}
	if wasted := h.qpcCounter("qpc_restart_wasted_bytes"); wasted <= 0 {
		t.Errorf("restart discarded a non-empty prefix but counted %d wasted bytes", wasted)
	}
	if expired := h.dapReg.Counter("dap_stream_retain_expired").Value(); expired < 1 {
		t.Error("DAP never expired the parked stream")
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
