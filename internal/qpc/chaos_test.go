package qpc

// Chaos suite: a real QPC and two DAPs wired over netsim, with fault
// plans injected on individual links. Every scenario must terminate
// promptly — either the query succeeds (after retries) or it fails
// within its deadline with an error that names the problem. A hang is
// the one unacceptable outcome, so every query runs under a watchdog.

import (
	"errors"
	"strings"
	"sync"
	"syscall"
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
)

// chaosHarness is a QPC with two DAP sites: site1 (addr "dap1") holds
// Rasters and Rasters1, site2 (addr "dap2") holds Rasters2.
type chaosHarness struct {
	srv     *Server
	network *netsim.Network
	// dapRegs are the two DAPs' own metric registries, site1's first.
	dapRegs []*obs.Registry
}

// joinQuery spans both sites; faulting either link disturbs it.
const joinQuery = `SELECT R1.time FROM Rasters1 R1, Rasters2 R2 WHERE R1.location = R2.location`

// streamQuery ships every raster image from site1: a long tuple stream,
// so byte-threshold faults strike mid-stream.
const streamQuery = `SELECT image FROM Rasters`

func newChaosHarness(t *testing.T, tune func(*Config), tuneD ...func(*dap.Config)) *chaosHarness {
	t.Helper()
	network := netsim.NewNetwork(nil)
	cfg := sequoia.TestScale()

	store1, err := storage.OpenStore("", 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := sequoia.GenerateAll(store1, cfg); err != nil {
		t.Fatal(err)
	}
	store2, err := storage.OpenStore("", 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := sequoia.GenerateJoinPair(store1, store2, cfg); err != nil {
		t.Fatal(err)
	}

	var dapRegs []*obs.Registry
	for _, site := range []struct {
		name, addr string
		store      *storage.Store
	}{
		{"site1", "dap1", store1},
		{"site2", "dap2", store2},
	} {
		l, err := network.Listen(site.addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		dapRegs = append(dapRegs, obs.NewRegistry())
		dcfg := dap.Config{
			Site:         site.name,
			Driver:       &dap.StorageDriver{Store: site.store},
			IdleTimeout:  2 * time.Second,
			FrameTimeout: time.Second,
			Metrics:      dapRegs[len(dapRegs)-1],
		}
		for _, tune := range tuneD {
			tune(&dcfg)
		}
		go dap.New(dcfg).Serve(l)
	}

	reg := ops.Builtins()
	cat := catalog.New(reg, catalog.NewRepositoryFromRegistry(reg))
	cat.AddSite(&catalog.Site{Name: "site1", Addr: "dap1"})
	cat.AddSite(&catalog.Site{Name: "site2", Addr: "dap2"})
	registerStoreTables(t, cat, store1, "site1", "Polygons", "Graphs", "Rasters", "Rasters1")
	registerStoreTables(t, cat, store2, "site2", "Rasters2")

	qcfg := Config{
		Cat:          cat,
		Dial:         network.Dial,
		Strategy:     core.StrategyAuto,
		QueryTimeout: 3 * time.Second,
		FrameTimeout: 400 * time.Millisecond,
		Retry: RetryPolicy{
			MaxAttempts: 4,
			BaseDelay:   5 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
			Budget:      8,
		},
	}
	if tune != nil {
		tune(&qcfg)
	}
	return &chaosHarness{srv: New(qcfg), network: network, dapRegs: dapRegs}
}

// executeWithin runs the query under a watchdog: exceeding the wall
// budget is a hang and fails the test immediately.
func (h *chaosHarness) executeWithin(t *testing.T, wall time.Duration, sql string) (*Result, error) {
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

func TestChaosFaultMatrix(t *testing.T) {
	cases := []struct {
		name   string
		target string // faulted link
		plan   *netsim.FaultPlan
		sql    string
		tune   func(*Config)
		// wantOK: the query must succeed (retries absorb the fault).
		// Otherwise it must fail with an error mentioning wantErr.
		wantOK  bool
		wantErr string
	}{
		{
			name:   "no-fault-baseline",
			target: "dap2",
			plan:   &netsim.FaultPlan{},
			sql:    joinQuery,
			wantOK: true,
		},
		{
			name:   "dial-refused-twice-then-recover",
			target: "dap2",
			plan:   &netsim.FaultPlan{RefuseDials: 2},
			sql:    joinQuery,
			wantOK: true,
		},
		{
			// Three consecutive refusals trip site2's breaker, so the
			// retry loop fails fast instead of burning its last attempt.
			name:    "dial-refused-forever",
			target:  "dap2",
			plan:    &netsim.FaultPlan{RefuseDials: 1 << 30},
			sql:     joinQuery,
			wantErr: "breaker open",
		},
		{
			name:   "handshake-conn-dies-then-recovers",
			target: "dap2",
			plan:   &netsim.FaultPlan{FailFirstConns: 1},
			sql:    joinQuery,
			wantOK: true,
		},
		{
			name:    "partition-mid-stream",
			target:  "dap1",
			plan:    &netsim.FaultPlan{Stall: true, StallAfterBytes: 8 << 10},
			sql:     streamQuery,
			wantErr: "stalled or dead",
		},
		{
			name:    "drop-mid-stream",
			target:  "dap1",
			plan:    &netsim.FaultPlan{DropAfterBytes: 8 << 10},
			sql:     streamQuery,
			wantErr: "",
		},
		{
			name:    "one-way-partition-from-start",
			target:  "dap2",
			plan:    &netsim.FaultPlan{PartitionSends: true},
			sql:     joinQuery,
			wantErr: "stalled or dead",
		},
		{
			name:   "latency-spikes-succeed",
			target: "dap1",
			plan:   &netsim.FaultPlan{ExtraLatency: 20 * time.Millisecond, SpikeEvery: 4},
			sql:    "SELECT time, band FROM Rasters LIMIT 5",
			wantOK: true,
		},
		{
			name:   "query-deadline-fires-before-frame-timeout",
			target: "dap1",
			plan:   &netsim.FaultPlan{Stall: true, StallAfterBytes: 8 << 10},
			sql:    streamQuery,
			tune: func(c *Config) {
				c.QueryTimeout = 500 * time.Millisecond
				c.FrameTimeout = 10 * time.Second
			},
			wantErr: "deadline exceeded",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newChaosHarness(t, tc.tune)
			h.network.SetFault(tc.target, tc.plan)
			start := time.Now()
			res, err := h.executeWithin(t, 5*time.Second, tc.sql)
			wall := time.Since(start)
			if tc.wantOK {
				if err != nil {
					t.Fatalf("query should survive fault, got: %v", err)
				}
				if len(res.Rows) == 0 {
					t.Fatal("query succeeded but returned no rows")
				}
				return
			}
			if err == nil {
				t.Fatalf("query should fail under fault, succeeded with %d rows", len(res.Rows))
			}
			if wall >= 5*time.Second {
				t.Fatalf("failure took %v, not bounded by the deadline", wall)
			}
			if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q should mention %q", err, tc.wantErr)
			}
			t.Logf("failed cleanly in %v: %v", wall, err)
		})
	}
}

// TestChaosDropIsConnReset pins the error identity of an injected drop:
// callers can classify it with errors.Is, not string matching.
func TestChaosDropIsConnReset(t *testing.T) {
	h := newChaosHarness(t, nil)
	h.network.SetFault("dap1", &netsim.FaultPlan{DropAfterBytes: 8 << 10})
	_, err := h.executeWithin(t, 5*time.Second, streamQuery)
	if err == nil {
		t.Fatal("drop fault should fail the query")
	}
	if !errors.Is(err, syscall.ECONNRESET) && !errors.Is(err, netsim.ErrInjectedDrop) &&
		!strings.Contains(err.Error(), "EOF") {
		t.Fatalf("drop error should be classifiable, got %v", err)
	}
}

// TestChaosRecoveryAfterFailure verifies a failed query leaves no debris
// behind: the very next query on the same QPC succeeds.
func TestChaosRecoveryAfterFailure(t *testing.T) {
	h := newChaosHarness(t, nil)
	h.network.SetFault("dap1", &netsim.FaultPlan{Stall: true, StallAfterBytes: 8 << 10})
	if _, err := h.executeWithin(t, 5*time.Second, streamQuery); err == nil {
		t.Fatal("stalled query should fail")
	}
	h.network.SetFault("dap1", nil)
	res, err := h.executeWithin(t, 5*time.Second, "SELECT time, band FROM Rasters")
	if err != nil {
		t.Fatalf("QPC did not recover after a failed query: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("recovered query returned no rows")
	}
}

// TestChaosConcurrentQueriesUnderFault runs healthy and faulted queries
// concurrently: the faulted link must not poison unrelated queries.
func TestChaosConcurrentQueriesUnderFault(t *testing.T) {
	h := newChaosHarness(t, nil)
	h.network.SetFault("dap2", &netsim.FaultPlan{RefuseDials: 1 << 30})
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sql := "SELECT time, band FROM Rasters LIMIT 3" // site1 only
			if i%2 == 1 {
				sql = joinQuery // needs the dead site2
			}
			_, errs[i] = h.srv.Execute(sql)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent queries hung")
	}
	for i, err := range errs {
		if i%2 == 0 && err != nil {
			t.Errorf("healthy query %d failed: %v", i, err)
		}
		if i%2 == 1 && err == nil {
			t.Errorf("query %d against dead site should fail", i)
		}
	}
}
