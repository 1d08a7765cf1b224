package qpc

// Replica-failover chaos suite: a QPC over two DAP sites that each hold
// a full replica of both shards of a range-partitioned Rasters table.
// Killing the replica serving a shard mid-stream must move the stream to
// the sibling with byte-exact results and volume accounting; killing
// every replica must fail the query with a typed partition-unavailable
// error, promptly.

import (
	"errors"
	"fmt"
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

// partitionHarness is a QPC with two DAP sites (site1 @ "dap1", site2 @
// "dap2"). Rasters is split on time into two shards, each replicated on
// both sites; the placement lists site1 first for shard 0 and site2
// first for shard 1, so a fresh server's replica selection serves shard
// 0 from site1 and shard 1 from site2.
type partitionHarness struct {
	srv     *Server
	network *netsim.Network
	rows    int // generated Rasters row count
}

const partScanQuery = `SELECT time, band, image FROM Rasters`

func newPartitionHarness(t *testing.T, tune func(*Config)) *partitionHarness {
	t.Helper()
	network := netsim.NewNetwork(nil)
	cfg := sequoia.TestScale()

	scratch, err := storage.OpenStore("", 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := sequoia.GenerateRasters(scratch, cfg); err != nil {
		t.Fatal(err)
	}
	src, _ := scratch.Table("Rasters")

	pl := &catalog.Placement{
		Key: "time", Kind: catalog.PlaceRange,
		Parts: []catalog.Partition{
			{Table: "Rasters__p0", Replicas: []string{"site1", "site2"}, HasHi: true, Hi: 1},
			{Table: "Rasters__p1", Replicas: []string{"site2", "site1"}, HasLo: true, Lo: 1},
		},
	}

	// Route every generated row into its shard, then materialize both
	// shard tables in both replica stores.
	schema := src.Schema()
	ki := schema.ColumnIndex(pl.Key)
	buckets := make([][]types.Tuple, len(pl.Parts))
	it, err := src.Scan()
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	stats := catalog.TableStats{}
	sums := make([]int64, schema.Arity())
	for {
		tup, _, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tup == nil {
			break
		}
		pi, err := pl.Route(tup[ki])
		if err != nil {
			t.Fatal(err)
		}
		buckets[pi] = append(buckets[pi], tup)
		rows++
		stats.RowCount++
		for i, v := range tup {
			sums[i] += int64(v.WireSize())
		}
	}
	for i, c := range schema.Columns {
		stats.Columns = append(stats.Columns, catalog.ColumnStats{
			Name: c.Name, AvgBytes: int(sums[i] / stats.RowCount),
		})
	}
	stores := make([]*storage.Store, 2)
	for si := range stores {
		st, err := storage.OpenStore("", 32)
		if err != nil {
			t.Fatal(err)
		}
		for pi, part := range pl.Parts {
			tbl, err := st.Create(part.Table, schema)
			if err != nil {
				t.Fatal(err)
			}
			for _, tup := range buckets[pi] {
				if _, err := tbl.Insert(tup); err != nil {
					t.Fatal(err)
				}
			}
		}
		stores[si] = st
	}

	for si, addr := range []string{"dap1", "dap2"} {
		l, err := network.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go dap.New(dap.Config{
			Site:         fmt.Sprintf("site%d", si+1),
			Driver:       &dap.StorageDriver{Store: stores[si]},
			IdleTimeout:  2 * time.Second,
			FrameTimeout: time.Second,
			// Flush roughly per raster image, so a byte-threshold fault
			// strikes after some tuples have already been delivered.
			BatchBytes: 8 << 10,
		}).Serve(l)
	}

	reg := ops.Builtins()
	cat := catalog.New(reg, catalog.NewRepositoryFromRegistry(reg))
	cat.AddSite(&catalog.Site{Name: "site1", Addr: "dap1"})
	cat.AddSite(&catalog.Site{Name: "site2", Addr: "dap2"})
	if err := cat.AddTable(&catalog.TableDef{
		Name: "Rasters", URI: "mocha://partitioned/Rasters", Site: "site1",
		Schema: schema, Stats: stats, Placement: pl,
	}); err != nil {
		t.Fatal(err)
	}

	qcfg := Config{
		Cat:          cat,
		Dial:         network.Dial,
		Strategy:     core.StrategyAuto,
		Metrics:      obs.NewRegistry(),
		QueryTimeout: 5 * time.Second,
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
	h := &partitionHarness{srv: New(qcfg), network: network, rows: rows}
	t.Cleanup(h.srv.Close)
	return h
}

func (h *partitionHarness) executeWithin(t *testing.T, wall time.Duration, sql string) (*Result, error) {
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

func (h *partitionHarness) counter(name string) int64 {
	return h.srv.Metrics().Counter(name).Value()
}

// TestPartitionFailoverMidStream kills the replica serving shard 0 after
// a quarter of the query's volume has flowed: the stream must fail over
// to the sibling replica and the query must finish with exactly the rows,
// CVDT and CVDA of the undisturbed run — the replayed prefix is recovery
// waste, never query volume — while the trace's summed span NetBytes
// still reproduce CVDT.
func TestPartitionFailoverMidStream(t *testing.T) {
	h := newPartitionHarness(t, func(c *Config) {
		// One strike opens the breaker, so the first mid-stream failure
		// fails over immediately instead of resuming against the corpse.
		c.Breaker = BreakerPolicy{FailureThreshold: 1}
	})
	clean, err := h.executeWithin(t, 10*time.Second, partScanQuery)
	if err != nil {
		t.Fatalf("clean scattered run failed: %v", err)
	}
	if len(clean.Rows) != h.rows {
		t.Fatalf("clean run returned %d rows, generated %d", len(clean.Rows), h.rows)
	}

	h.network.SetFault("dap1", &netsim.FaultPlan{
		DropFirstConnAfterBytes: clean.Stats.CVDT / 4,
	})
	res, err := h.executeWithin(t, 10*time.Second, partScanQuery)
	if err != nil {
		t.Fatalf("query did not survive replica death: %v", err)
	}
	if fmt.Sprint(res.Rows) != fmt.Sprint(clean.Rows) {
		t.Errorf("failover changed the result: %d rows vs %d clean", len(res.Rows), len(clean.Rows))
	}
	if res.Stats.CVDT != clean.Stats.CVDT {
		t.Errorf("CVDT = %d after failover, want %d: replayed prefix leaked into query volume",
			res.Stats.CVDT, clean.Stats.CVDT)
	}
	if res.Stats.CVDA != clean.Stats.CVDA {
		t.Errorf("CVDA = %d after failover, want %d", res.Stats.CVDA, clean.Stats.CVDA)
	}
	if got, want := res.Trace.NetBytes(), res.Stats.CVDT; got != want {
		t.Errorf("trace span NetBytes sum = %d, want CVDT %d", got, want)
	}
	if n := h.counter("qpc_replica_failovers"); n != 1 {
		t.Errorf("qpc_replica_failovers = %d, want exactly 1", n)
	}
	if wasted := h.counter("qpc_restart_wasted_bytes"); wasted <= 0 {
		t.Errorf("qpc_restart_wasted_bytes = %d; the replayed prefix must be accounted as waste", wasted)
	}
}

// TestPartitionFailoverAtSetup refuses every dial to shard 0's preferred
// replica before the query starts: session setup itself must walk to the
// sibling and the query must still produce the full result.
func TestPartitionFailoverAtSetup(t *testing.T) {
	h := newPartitionHarness(t, nil)
	clean, err := h.executeWithin(t, 10*time.Second, partScanQuery)
	if err != nil {
		t.Fatalf("clean scattered run failed: %v", err)
	}
	h.network.SetFault("dap1", &netsim.FaultPlan{RefuseDials: 1 << 30})
	res, err := h.executeWithin(t, 10*time.Second, partScanQuery)
	if err != nil {
		t.Fatalf("query did not survive a dead preferred replica: %v", err)
	}
	if fmt.Sprint(res.Rows) != fmt.Sprint(clean.Rows) {
		t.Errorf("setup failover changed the result: %d rows vs %d clean", len(res.Rows), len(clean.Rows))
	}
	if n := h.counter("qpc_replica_failovers"); n < 1 {
		t.Errorf("qpc_replica_failovers = %d, want at least 1", n)
	}
}

// TestHeartbeatDemotesDeadReplica runs the background prober against a
// site refusing every dial: its breaker must trip from heartbeats alone,
// so the next query's replica selection avoids the corpse outright — the
// query succeeds with zero mid-flight failovers.
func TestHeartbeatDemotesDeadReplica(t *testing.T) {
	h := newPartitionHarness(t, func(c *Config) {
		c.HeartbeatInterval = 10 * time.Millisecond
		c.Breaker = BreakerPolicy{FailureThreshold: 2}
	})
	h.network.SetFault("dap1", &netsim.FaultPlan{RefuseDials: 1 << 30})
	deadline := time.Now().Add(5 * time.Second)
	for !h.srv.Health().FailFast("site1") {
		if time.Now().After(deadline) {
			t.Fatalf("heartbeats never tripped site1's breaker (probes=%d failures=%d)",
				h.counter("qpc_heartbeat_probes"), h.counter("qpc_heartbeat_failures"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	res, err := h.executeWithin(t, 10*time.Second, partScanQuery)
	if err != nil {
		t.Fatalf("query should sail past a heartbeat-demoted replica: %v", err)
	}
	if len(res.Rows) != h.rows {
		t.Fatalf("returned %d rows, want %d", len(res.Rows), h.rows)
	}
	if n := h.counter("qpc_replica_failovers"); n != 0 {
		t.Errorf("qpc_replica_failovers = %d; selection should have avoided the dead site with no failover", n)
	}
	if p, f := h.counter("qpc_heartbeat_probes"), h.counter("qpc_heartbeat_failures"); p < 2 || f < 2 {
		t.Errorf("heartbeat counters probes=%d failures=%d, want both >= 2", p, f)
	}
}

// TestPartitionBothReplicasDead drops every connection on both sites
// after a few KiB: each shard exhausts its whole replica set and the
// query must fail promptly with a typed PartitionUnavailableError naming
// the table, not hang or return a bare transport error.
func TestPartitionBothReplicasDead(t *testing.T) {
	h := newPartitionHarness(t, func(c *Config) {
		c.Breaker = BreakerPolicy{FailureThreshold: 1}
		c.Retry = RetryPolicy{
			MaxAttempts: 2,
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    10 * time.Millisecond,
			Budget:      4,
		}
	})
	plan := func() *netsim.FaultPlan {
		return &netsim.FaultPlan{DropEachConnAfterBytes: 8 << 10}
	}
	h.network.SetFault("dap1", plan())
	h.network.SetFault("dap2", plan())
	start := time.Now()
	_, err := h.executeWithin(t, 10*time.Second, partScanQuery)
	if err == nil {
		t.Fatal("query should fail when every replica of a shard is dead")
	}
	var pu *PartitionUnavailableError
	if !errors.As(err, &pu) {
		t.Fatalf("error should be a PartitionUnavailableError, got %T: %v", err, err)
	}
	if pu.Table != "Rasters" {
		t.Errorf("error names table %q, want Rasters", pu.Table)
	}
	if len(pu.Sites) != 2 {
		t.Errorf("error lists replica sites %v, want both", pu.Sites)
	}
	if pu.Unwrap() == nil {
		t.Error("error should unwrap to the last transport failure")
	}
	if wall := time.Since(start); wall >= 10*time.Second {
		t.Errorf("failure took %v; replica exhaustion must be prompt", wall)
	}
}

// TestPartitionPruningExecutes pins end-to-end pruning: a predicate on
// the partition key keeps only the matching shard in the plan and the
// query reads nothing from the pruned shard's replica.
func TestPartitionPruningExecutes(t *testing.T) {
	h := newPartitionHarness(t, nil)
	res, err := h.executeWithin(t, 10*time.Second,
		`SELECT time, band FROM Rasters WHERE time < 1`)
	if err != nil {
		t.Fatal(err)
	}
	var scan *core.Fragment
	for _, f := range res.Plan.Fragments {
		if f.Table == "Rasters" {
			scan = f
		}
	}
	if scan == nil {
		t.Fatal("no Rasters fragment in the plan")
	}
	if scan.PartsTotal != 2 || len(scan.Parts) != 1 || scan.Parts[0].ID != 0 {
		t.Fatalf("pruning kept %d/%d partitions (%+v), want exactly shard 0",
			len(scan.Parts), scan.PartsTotal, scan.Parts)
	}
	for _, tup := range res.Rows {
		if int64(tup[0].(types.Int)) >= 1 {
			t.Fatalf("row %v escaped the pruned predicate", tup)
		}
	}
	if len(res.Rows) == 0 {
		t.Fatal("pruned query returned no rows")
	}
}
