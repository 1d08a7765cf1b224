package qpc

// Integration coverage for stream recovery: a QPC and a DAP over netsim,
// with drop faults striking mid-stream. The DAP batches small (4 KiB
// target) so the Rasters stream spans many frames and a re-placed stream
// has a real prefix to skip.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
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

// resumeHarness is a QPC with one DAP site ("site1" at addr "dap1")
// holding the Sequoia tables, with dedicated metric registries on both
// sides so counter assertions are isolated per test.
type resumeHarness struct {
	srv     *Server
	network *netsim.Network
	dap     *dapProc
	dapReg  *obs.Registry
}

// dapProc is a DAP serving one address of a test network, replaceable
// mid-query by a new process.
type dapProc struct {
	network *netsim.Network
	addr    string
	cfg     dap.Config
	l       net.Listener
}

func startDAP(t *testing.T, network *netsim.Network, addr string, cfg dap.Config) *dapProc {
	t.Helper()
	l, err := network.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	p := &dapProc{network: network, addr: addr, cfg: cfg, l: l}
	go dap.New(cfg).Serve(l)
	t.Cleanup(func() { p.l.Close() })
	return p
}

// restart replaces the DAP with a new server over the same configuration,
// store and registry included: a process that has never seen any stream.
// The old server's executions fail at their next write.
func (p *dapProc) restart() {
	p.l.Close()
	l, err := p.network.Listen(p.addr)
	if err != nil {
		panic(err)
	}
	p.l = l
	go dap.New(p.cfg).Serve(l)
}

// restartOnRedial wraps cfg's dialer so that the nth dial to addr (from
// 1) calls restart first and lands on the new process.
func restartOnRedial(cfg *Config, addr string, nth int, restart func()) {
	dial, dials := cfg.Dial, 0
	var mu sync.Mutex
	cfg.Dial = func(a string) (net.Conn, error) {
		mu.Lock()
		if a == addr {
			if dials++; dials == nth {
				restart()
			}
		}
		mu.Unlock()
		return dial(a)
	}
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
		Site:         "site1",
		Driver:       &dap.StorageDriver{Store: store},
		IdleTimeout:  2 * time.Second,
		FrameTimeout: time.Second,
		BatchBytes:   4 << 10,
		Metrics:      dapReg,
	}
	if tuneD != nil {
		tuneD(&dcfg)
	}
	proc := startDAP(t, network, "dap1", dcfg)

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
			Budget:      8,
		},
	}
	if tuneQ != nil {
		tuneQ(&qcfg)
	}
	return &resumeHarness{srv: New(qcfg), network: network, dap: proc, dapReg: dapReg}
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

// tailOnly checks that a recovered query's DAP sent each tuple once: what
// it sent in all is the clean run's CVDT less the prefix the QPC already
// held at each re-placement. A prefix sent again would show up here.
func (h *resumeHarness) tailOnly(t *testing.T, cleanCVDT int64) {
	t.Helper()
	sent, saved := h.dapReg.Counter(obs.MDapBytesSent).Value(), h.qpcCounter(obs.MQpcResumeSavedBytes)
	if sent != cleanCVDT-saved {
		t.Errorf("dap_bytes_sent = %d, want the clean CVDT %d less the %d B qpc_resume_saved_bytes", sent, cleanCVDT, saved)
	}
}

// TestResumeSingleDropMidStream is the acceptance scenario: one drop
// strikes the image stream mid-flight, the QPC's next START says how many
// tuples it holds, and the query completes with volumes identical to a
// clean run. The DAP runs the fragment again and sends only the tail: the
// bytes already delivered before the drop are the resume's saving.
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
	if n := h.dapReg.Counter(obs.MDapStreamResumes).Value(); n != resumes {
		t.Errorf("dap_stream_resumes = %d, the QPC counted %d", n, resumes)
	}
	h.tailOnly(t, base.Stats.CVDT)
}

// TestResumeDoubleDropStatsExact breaks the stream more than once and
// pins volume exactness: neither a prefix the DAP computes again nor one
// re-placement on top of another may double-count into CVDT/CVDA. One
// chain drops *every* connection after a per-connection byte budget,
// forcing at least two re-placements before the stream finishes. In the
// others the first drop also loses two frames in flight — the DAP sent
// them, the QPC never saw them, so the START skips only what the QPC
// delivered — and the fragment run afresh breaks again: before its first
// tail frame (while the DAP is still computing the prefix it skips),
// some frames past it, or after its last tuple with only the EOS to
// come, so the third START skips every tuple.
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

	t.Run("chain", func(t *testing.T) {
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
		if n := h.dapReg.Counter(obs.MDapStreamResumes).Value(); n != resumes {
			t.Errorf("dap_stream_resumes = %d, the QPC counted %d", n, resumes)
		}
	})

	// An image is five batch targets long, so the stream is a frame a row:
	// after four delivered and two lost, the tail is four frames.
	frame := int(base.Stats.CVDT) / len(base.Rows)
	for name, second := range map[string]int{
		"fresh_start_then_drop_in_prefix":   0,
		"fresh_start_then_drop_past_prefix": 2,
		"fresh_start_then_eos_lost":         4,
	} {
		t.Run(name, func(t *testing.T) {
			h := newResumeHarness(t, func(c *Config) {
				cutDial(c, "dap1", 1, &cutConn{after: 4, lose: 2 * frame})
				cutDial(c, "dap1", 2, &cutConn{after: second})
			}, nil)
			res, err := h.executeWithin(t, 15*time.Second, streamQuery)
			if err != nil {
				t.Fatal(err)
			}
			exact(t, res)
			if resumed := h.qpcCounter("qpc_stream_resumes"); resumed != 2 {
				t.Errorf("qpc_stream_resumes = %d, want 2", resumed)
			}
		})
	}
}

// TestResumeFromAnywhere re-places a stream where nothing of it is left
// at the DAP, so the START's count of delivered tuples is all the DAP
// has to go on: a DAP process restarted between the drop and the
// re-placement, and a drop that loses frames in flight, which the DAP
// sent and the QPC never saw. Either way the fragment runs from its
// beginning, only the tail crosses the wire, and the row set — and the
// logical volume — stay exact.
func TestResumeFromAnywhere(t *testing.T) {
	clean := newResumeHarness(t, nil, nil)
	base, err := clean.executeWithin(t, 10*time.Second, streamQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		tuneQ func(c *Config, restart func())
		fault *netsim.FaultPlan
	}{
		{
			// The re-placement's dial finds a new DAP process.
			name:  "dap_restarted",
			tuneQ: func(c *Config, restart func()) { restartOnRedial(c, "dap1", 2, restart) },
			fault: &netsim.FaultPlan{DropFirstConnAfterBytes: base.Stats.CVDT / 2},
		},
		{
			// Two frames (a frame is a row here) are lost in flight after
			// the fourth.
			name: "frames_lost_in_flight",
			tuneQ: func(c *Config, _ func()) {
				cutDial(c, "dap1", 1, &cutConn{after: 4, lose: 2 * int(base.Stats.CVDT) / len(base.Rows)})
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var h *resumeHarness
			h = newResumeHarness(t, func(c *Config) { tc.tuneQ(c, func() { h.dap.restart() }) }, nil)
			h.network.SetFault("dap1", tc.fault)
			res, err := h.executeWithin(t, 10*time.Second, streamQuery)
			if err != nil {
				t.Fatalf("query should survive by running the fragment again past the delivered prefix: %v", err)
			}
			if fmt.Sprint(res.Rows) != fmt.Sprint(base.Rows) {
				t.Errorf("rows differ from the clean run (%d vs %d)", len(res.Rows), len(base.Rows))
			}
			if res.Stats.CVDT != base.Stats.CVDT || res.Trace.NetBytes() != res.Stats.CVDT {
				t.Errorf("CVDT %d, span net bytes %d; clean run moved %d", res.Stats.CVDT, res.Trace.NetBytes(), base.Stats.CVDT)
			}
			if n := h.qpcCounter("qpc_stream_resumes"); n != 1 {
				t.Errorf("qpc_stream_resumes = %d, want 1", n)
			}
			if wasted := h.qpcCounter("qpc_restart_wasted_bytes"); wasted != 0 {
				t.Errorf("qpc_restart_wasted_bytes = %d; the QPC discards nothing", wasted)
			}
			h.tailOnly(t, base.Stats.CVDT)
			var skipped int64
			for _, sp := range res.Trace.Spans() {
				if sp.Name == obs.PhaseResume {
					skipped = sp.Tuples
				}
			}
			if skipped <= 0 {
				t.Error("trace has no resume span saying how long a prefix was skipped")
			}
		})
	}
}

// TestResumeSemiJoinResendsKeys drops the stream of a semi-join fragment:
// the fragment runs again with the intersected key set riding behind the
// START again. The re-sent keys are recovery overhead —
// qpc_restart_wasted_bytes, never a span — so the rows, CVDT and the span
// sum are the clean run's.
func TestResumeSemiJoinResendsKeys(t *testing.T) {
	tuneD := func(d *dap.Config) { d.BatchBytes = 64 }
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
		t.Fatalf("semi-join stream should be placed again with its keys: %v", err)
	}
	if fmt.Sprint(res.Rows) != fmt.Sprint(base.Rows) {
		t.Errorf("rows differ from the clean run (%d vs %d)", len(res.Rows), len(base.Rows))
	}
	if res.Stats.CVDT != base.Stats.CVDT || res.Trace.NetBytes() != res.Stats.CVDT {
		t.Errorf("CVDT %d, span net bytes %d; clean run moved %d", res.Stats.CVDT, res.Trace.NetBytes(), base.Stats.CVDT)
	}
	met := h.srv.Metrics()
	if n := met.Counter("qpc_stream_resumes").Value(); n != 1 {
		t.Errorf("qpc_stream_resumes = %d, want the one re-placement", n)
	}
	if wasted := met.Counter("qpc_restart_wasted_bytes").Value(); wasted != keyBytes {
		t.Errorf("qpc_restart_wasted_bytes = %d, want exactly the re-sent key set (%d B)", wasted, keyBytes)
	}
}

// TestResumeSemiJoinKeyPhase drops a semi-join's key stream two batches
// in: the key projection is re-placed past the keys already delivered,
// like any other stream, and the key exchange and the fragment proper
// run on as in a clean run.
func TestResumeSemiJoinKeyPhase(t *testing.T) {
	tuneD := func(d *dap.Config) { d.BatchBytes = 64 }
	clean := newChaosHarness(t, forceCodeShip, tuneD)
	base, err := clean.executeWithin(t, 10*time.Second, sequoia.Q5)
	if err != nil {
		t.Fatal(err)
	}
	h := newChaosHarness(t, func(c *Config) {
		forceCodeShip(c)
		c.Metrics = obs.NewRegistry()
		cutDial(c, "dap2", 1, &cutConn{after: 2})
	}, tuneD)
	res, err := h.executeWithin(t, 10*time.Second, sequoia.Q5)
	if err != nil {
		t.Fatalf("a drop mid key-phase should be recovered by re-placing the key stream: %v", err)
	}
	if fmt.Sprint(res.Rows) != fmt.Sprint(base.Rows) {
		t.Errorf("rows differ from the clean run (%d vs %d)", len(res.Rows), len(base.Rows))
	}
	if res.Stats.CVDT != base.Stats.CVDT || res.Trace.NetBytes() != res.Stats.CVDT {
		t.Errorf("CVDT %d, span net bytes %d; clean run moved %d", res.Stats.CVDT, res.Trace.NetBytes(), base.Stats.CVDT)
	}
	if n := h.srv.Metrics().Counter(obs.MQpcStreamResumes).Value(); n != 1 {
		t.Errorf("qpc_stream_resumes = %d, want the one re-placement of the key stream", n)
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
// and the prefix the DAP skipped is counted once, in the report that
// ends the stream.
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

// TestBreakerLeavesPlanAlone pins that site health never reaches the
// optimizer: with site1's breaker forced open, EXPLAIN is byte-identical
// to the healthy plan. The breaker changes how a stream is placed, not
// what the plan ships.
func TestBreakerLeavesPlanAlone(t *testing.T) {
	h := newResumeHarness(t, nil, nil)
	healthy, err := h.srv.Explain(codeShipQuery)
	if err != nil {
		t.Fatal(err)
	}
	h.srv.Health().ForceOpen("site1")
	open, err := h.srv.Explain(codeShipQuery)
	if err != nil {
		t.Fatal(err)
	}
	if open != healthy {
		t.Fatalf("EXPLAIN with site1's breaker open differs from the healthy plan:\n%s\nhealthy:\n%s", open, healthy)
	}
}

// TestRerunAfterBreakerTrip covers the one query-level recovery: a run
// that fails before its first row is run once more, with its own plan,
// when the failure tripped the breaker of a site the plan reads. The
// site refuses exactly enough dials to trip its breaker during the
// first run; the rerun's dial is the half-open probe and succeeds. A
// site whose breaker was already open when the run began gets no second
// probe: the query fails with the breaker's error.
func TestRerunAfterBreakerTrip(t *testing.T) {
	codeShip := func(c *Config) { c.Strategy = core.StrategyCodeShip }
	collect := func(q *Query) ([]types.Tuple, *QueryStats, error) {
		var rows []types.Tuple
		stats, err := q.Run(func(t types.Tuple) error { rows = append(rows, t); return nil })
		return rows, stats, err
	}
	// shipsCode reports whether the run's fragment code reached the DAP,
	// shipped or found in its cache: a scan-only plan ships none.
	shipsCode := func(st *QueryStats) bool { return st.CodeClassesShipped+st.CacheHits > 0 }
	base, err := newResumeHarness(t, codeShip, nil).executeWithin(t, 10*time.Second, codeShipQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Rows) == 0 {
		t.Fatal("clean run returned no rows")
	}

	t.Run("tripped_during_run", func(t *testing.T) {
		h := newResumeHarness(t, codeShip, nil)
		h.network.SetFault("dap1", &netsim.FaultPlan{RefuseDials: 3})
		q, err := h.srv.Prepare(codeShipQuery)
		if err != nil {
			t.Fatal(err)
		}
		prepared, explained := q.Plan, core.Explain(q.Plan)
		rows, stats, err := collect(q)
		if err != nil {
			t.Fatalf("query should survive by running again: %v", err)
		}
		if fmt.Sprint(rows) != fmt.Sprint(base.Rows) {
			t.Errorf("rows differ from the clean run (%d vs %d)", len(rows), len(base.Rows))
		}
		if n := h.qpcCounter(obs.MQpcQueryReruns); n != 1 {
			t.Errorf("%s = %d, want 1", obs.MQpcQueryReruns, n)
		}
		if q.Plan != prepared || core.Explain(q.Plan) != explained || !shipsCode(stats) {
			t.Errorf("the rerun did not run the prepared code-shipping plan:\n%s", core.Explain(q.Plan))
		}

		h.srv.Health().Reset("site1")
		rows, stats, err = collect(q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(rows) != fmt.Sprint(base.Rows) || !shipsCode(stats) {
			t.Errorf("a later run of the same query: %d rows (clean %d), ships code %v; want the clean rows from the code-shipping plan",
				len(rows), len(base.Rows), shipsCode(stats))
		}
		if n := h.qpcCounter(obs.MQpcQueryReruns); n != 1 {
			t.Errorf("%s = %d after a clean run, want still 1", obs.MQpcQueryReruns, n)
		}
	})

	t.Run("open_before_run", func(t *testing.T) {
		h := newResumeHarness(t, codeShip, nil)
		h.srv.Health().ForceOpen("site1")
		h.network.SetFault("dap1", &netsim.FaultPlan{RefuseDials: 1})
		_, err := h.executeWithin(t, 10*time.Second, codeShipQuery)
		if err == nil || !strings.Contains(err.Error(), "breaker open at site1") {
			t.Fatalf("err = %v, want the breaker's refusal", err)
		}
		if n := h.qpcCounter(obs.MQpcQueryReruns); n != 0 {
			t.Errorf("%s = %d, want 0: a breaker open before the run gets no second probe", obs.MQpcQueryReruns, n)
		}
	})
}
