package mocha

// Canary-rollout e2e suite: versioned operator releases rolled out
// against live traffic. A wrong v2 (silently different results) canaried
// at 25% must be detected by result-digest divergence and auto-rolled
// back with every completed query byte-identical to the v1 oracle; a
// correct v2 (same results, different bytecode) canaried at 100% must be
// auto-promoted, surviving a mid-rollout replica failover without ever
// mixing releases within one query.

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mocha/internal/obs"
	"mocha/internal/storage"
)

// peakEnergySrc is the max-pixel raster reducer in MVM assembly; body
// is shared by every release so the versions differ only where stated.
const peakEnergyBody = `func eval args=1 locals=3
  pushi 0
  store 0
  pushi 8
  store 1
  arg 0
  blen
  store 2
loop:
  load 1
  load 2
  ge
  jnz done
  arg 0
  load 1
  ldu8
  load 0
  gt
  jz next
  arg 0
  load 1
  ldu8
  store 0
next:
  load 1
  pushi 1
  addi
  store 1
  jmp loop
done:
  load 0
  i2f
  ret
end`

func peakEnergyDef() *OperatorDef {
	return &OperatorDef{
		Name: "PeakEnergy", URI: "mocha://ops/PeakEnergy#1.0",
		Args: []Kind{KindRaster}, Ret: KindDouble,
		ResultBytes: 8, CPUCostPerByte: 1,
		Native: func(args []Object) (Object, error) {
			r := args[0].(Raster)
			var m byte
			for _, p := range r.Pixels() {
				if p > m {
					m = p
				}
			}
			return Double(m), nil
		},
		Source: "program PeakEnergy version 1.0\n" + peakEnergyBody,
	}
}

// peakEnergyWrongV2 halves the result — a plausible-looking upgrade
// that silently computes different answers.
func peakEnergyWrongV2() *OperatorDef {
	d := peakEnergyDef()
	d.Source = "program PeakEnergy version 2.0\nconst half float 0.5\n" +
		strings.Replace(peakEnergyBody, "  load 0\n  i2f\n  ret",
			"  load 0\n  i2f\n  const half\n  mulf\n  ret", 1)
	return d
}

// peakEnergyCorrectV2 computes identical results from different
// bytecode (a redundant store prefix changes the digest, not the
// semantics) — promotion material.
func peakEnergyCorrectV2() *OperatorDef {
	d := peakEnergyDef()
	d.Source = "program PeakEnergy version 2.0\n" +
		strings.Replace(peakEnergyBody, "func eval args=1 locals=3\n  pushi 0\n  store 0",
			"func eval args=1 locals=3\n  pushi 0\n  store 0\n  pushi 0\n  store 0", 1)
	return d
}

// TestRolloutWrongV2AutoRollback canaries the wrong v2 at 25% under
// concurrent traffic. The controller must detect the result-digest
// divergence, deliver only v1-identical output to every client, roll
// the canary back automatically, surface the evidence through SHOW
// ROLLOUTS.
func TestRolloutWrongV2AutoRollback(t *testing.T) {
	cl, _ := testCluster(t, ClusterConfig{
		Strategy: StrategyCodeShip,
		// Disarm the latency check: test-scale timing is too noisy for a
		// 3x EWMA threshold, and this test is about digest divergence.
		Rollout: RolloutPolicy{PromoteAfter: -1, MinSamples: 1 << 20},
	})
	if err := cl.RegisterOperator(peakEnergyDef()); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT time, PeakEnergy(image) FROM Rasters"
	want, err := cl.Execute(sql)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.CodeClassesShipped == 0 {
		t.Fatal("baseline did not ship code; rollout would have no eligible queries")
	}
	v1, _ := cl.Catalog().Repo().ActiveRelease("PeakEnergy")

	rel, err := cl.StageOperator(peakEnergyWrongV2(), "v2")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Digest == v1.Digest {
		t.Fatal("wrong v2 shares v1's digest")
	}
	if err := cl.Rollout("PeakEnergy", "v2", 0.25); err != nil {
		t.Fatal(err)
	}

	// Live load: batches of concurrent clients, each of whose completed
	// queries must be byte-identical to the v1 oracle whether it was
	// routed to the canary or not. Routing is hash-based, so the abort
	// lands within a few batches at 25%.
	wantRows := fmt.Sprint(want.Rows)
	for batch := 0; batch < 25 && cl.RolloutStatus("PeakEnergy") == "running"; batch++ {
		var wg sync.WaitGroup
		errs := make([]error, 8)
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := cl.Execute(sql)
				if err != nil {
					errs[i] = err
					return
				}
				if got := fmt.Sprint(res.Rows); got != wantRows {
					errs[i] = fmt.Errorf("result diverged from the v1 oracle (%d rows)", len(res.Rows))
				}
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	if got := cl.RolloutStatus("PeakEnergy"); got != "aborted" {
		t.Fatalf("rollout status = %q, want aborted", got)
	}
	abort := cl.RolloutAbort("PeakEnergy")
	if abort == nil {
		t.Fatal("no abort evidence recorded")
	}
	if !strings.Contains(abort.Reason, "divergence") {
		t.Errorf("abort reason = %q", abort.Reason)
	}
	if abort.WantDigest == "" || abort.GotDigest == "" || abort.WantDigest == abort.GotDigest {
		t.Errorf("abort digests: want %q got %q", abort.WantDigest, abort.GotDigest)
	}
	if abort.SQL == "" {
		t.Error("abort evidence lost the condemning SQL")
	}
	// v1 is still active; the withdrawn release stays in history
	// (addressable by digest, never re-served). SHOW RELEASES below
	// checks it is no longer marked canary.
	if active, _ := cl.Catalog().Repo().ActiveRelease("PeakEnergy"); active.Digest != v1.Digest {
		t.Error("active release moved during a rollback")
	}
	// Queries after the rollback run v1 and match the oracle.
	after, err := cl.Execute(sql)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(after.Rows) != wantRows {
		t.Error("post-rollback query diverged from the v1 oracle")
	}

	// Counters: canary traffic happened, a divergence was detected,
	// exactly one rollout aborted, none promoted.
	m := cl.Metrics()
	if m.Counter(obs.MQpcRolloutCanaryQueries).Value() == 0 {
		t.Error("no queries were routed to the canary")
	}
	if m.Counter(obs.MQpcRolloutDivergences).Value() == 0 {
		t.Error("no divergence counted")
	}
	if got := m.Counter(obs.MQpcRolloutAborts).Value(); got != 1 {
		t.Errorf("rollout aborts = %d, want 1", got)
	}
	if m.Counter(obs.MQpcRolloutPromotions).Value() != 0 {
		t.Error("aborted rollout also counted a promotion")
	}

	// SHOW ROLLOUTS carries the evidence over the wire.
	report := queryText(t, cl, "SHOW ROLLOUTS")
	for _, wantPart := range []string{"PeakEnergy@v2", "aborted", "result digest divergence", "evidence"} {
		if !strings.Contains(report, wantPart) {
			t.Errorf("SHOW ROLLOUTS missing %q:\n%s", wantPart, report)
		}
	}
	// SHOW RELEASES still lists both releases, with v1 marked active.
	releases := queryText(t, cl, "SHOW RELEASES PeakEnergy")
	if !strings.Contains(releases, "[active]") || !strings.Contains(releases, rel.Digest) {
		t.Errorf("SHOW RELEASES PeakEnergy:\n%s", releases)
	}
	if strings.Contains(releases, "[canary]") {
		t.Errorf("rolled-back release still marked canary:\n%s", releases)
	}

	// Manual controls round out the lifecycle: a fresh rollout of the
	// same staged tag can be withdrawn by hand before the controller
	// decides, and the embedded report helpers mirror the wire verbs.
	if err := cl.Rollout("PeakEnergy", "v2", 0.5); err != nil {
		t.Fatal(err)
	}
	if got := cl.RolloutStatus("PeakEnergy"); got != "running" {
		t.Fatalf("restarted rollout status = %q", got)
	}
	if err := cl.AbortRollout("PeakEnergy", "operator change of heart"); err != nil {
		t.Fatal(err)
	}
	if err := cl.PromoteRollout("PeakEnergy"); err == nil {
		t.Error("promoting with nothing running succeeded")
	}
	if rep := cl.RolloutReport(); !strings.Contains(rep, "operator change of heart") {
		t.Errorf("manual abort reason missing from report:\n%s", rep)
	}
	if text, err := cl.ReleasesReport("PeakEnergy"); err != nil || !strings.Contains(text, "[active]") {
		t.Errorf("ReleasesReport: %v\n%s", err, text)
	}
	if _, err := cl.StageOperator(&OperatorDef{Name: "NoSource"}, "v1"); err == nil {
		t.Error("staging an operator without MVM source succeeded")
	}
}

// TestRolloutCorrectV2PromotionWithFailover canaries the correct v2 on
// every eligible query of a replicated, partitioned table while the
// shard primary's link dies mid-stream: replica failover must redeploy
// the query's pinned release on the sibling (no version mixing within a
// query), every result must stay byte-identical to the oracle with
// span-exact volume accounting, and the rollout must auto-promote.
func TestRolloutCorrectV2PromotionWithFailover(t *testing.T) {
	cfg := ClusterConfig{
		Strategy:     StrategyCodeShip,
		FrameTimeout: 2 * time.Second,
		Rollout: ClusterRolloutPolicy{
			PromoteAfter: 3,
			MinSamples:   1 << 20, // no latency aborts at test scale
			// Transient canary-side failures under fault injection are
			// recovery noise, not divergence.
			MaxCanaryErrors: 100,
		},
	}
	part, oracle, _ := partitionedPair(t, func(src *storage.Table) *PartitionSpec {
		return RangePlacement("Rasters", "time", timeCuts(t, src, 2),
			[][]string{{"site1", "site2"}, {"site2", "site3"}})
	}, cfg)
	for _, cl := range []*Cluster{part, oracle} {
		if err := cl.RegisterOperator(peakEnergyDef()); err != nil {
			t.Fatal(err)
		}
	}
	const sql = "SELECT time, band, image FROM Rasters WHERE PeakEnergy(image) < 999"
	want, err := oracle.Execute(sql)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := fmt.Sprint(want.Rows)
	baseline, err := part.Execute(sql)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(baseline.Rows) != wantRows {
		t.Fatal("partitioned baseline diverges from the oracle before any rollout")
	}

	v1, _ := part.Catalog().Repo().ActiveRelease("PeakEnergy")
	rel, err := part.StageOperator(peakEnergyCorrectV2(), "v2")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Digest == v1.Digest {
		t.Fatal("correct v2 shares v1's digest — the bytecode change vanished")
	}
	if err := part.Rollout("PeakEnergy", "v2", 1.0); err != nil {
		t.Fatal(err)
	}
	// Kill shard 0's primary mid-stream: the cumulative byte budget lets
	// deployment through, dies inside the result stream, and fails every
	// redial — forcing genuine replica failover to site2, which must
	// receive the canary release by digest.
	part.SetFault("site1", &FaultPlan{DropAfterBytes: baseline.Stats.CVDT / 3})
	defer part.SetFault("site1", nil)

	for i := 0; i < 10 && part.RolloutStatus("PeakEnergy") == "running"; i++ {
		res, err := part.Execute(sql)
		if err != nil {
			t.Fatalf("query %d under rollout+fault: %v", i, err)
		}
		if fmt.Sprint(res.Rows) != wantRows {
			t.Fatalf("query %d diverged from the oracle (%d rows)", i, len(res.Rows))
		}
		if res.Trace.NetBytes() != res.Stats.CVDT {
			t.Fatalf("query %d: span NetBytes %d != CVDT %d", i, res.Trace.NetBytes(), res.Stats.CVDT)
		}
	}
	if got := part.RolloutStatus("PeakEnergy"); got != "promoted" {
		t.Fatalf("rollout status = %q, want promoted\n%s", got, part.RolloutReport())
	}
	if active, _ := part.Catalog().Repo().ActiveRelease("PeakEnergy"); active.Digest != rel.Digest {
		t.Error("promotion did not move the active pointer to v2")
	}
	if text, err := part.ReleasesReport("PeakEnergy"); err != nil || strings.Contains(text, "[canary]") {
		t.Errorf("the promoted release is still marked canary: %v\n%s", err, text)
	}

	m := part.Metrics()
	if m.Counter(obs.MQpcRolloutPromotions).Value() != 1 {
		t.Error("promotion not counted")
	}
	if m.Counter(obs.MQpcRolloutAborts).Value() != 0 {
		t.Errorf("correct v2 was aborted:\n%s", part.RolloutReport())
	}
	if m.Counter(obs.MQpcReplicaFailovers).Value() == 0 &&
		m.Counter(obs.MQpcStreamResumes).Value() == 0 {
		t.Error("fault injected but neither failover nor resume happened")
	}
	// Version consistency across failover: the sibling replica served
	// canary-pinned work, so its cache holds the v2 digest.
	if has, err := part.DAPHasClass("site2", "PeakEnergy", rel.Digest); err != nil {
		t.Fatal(err)
	} else if !has {
		t.Error("failover replica never received the canary release by digest")
	}
	// Post-promotion queries run v2 as the active release, same bytes.
	after, err := part.Execute(sql)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(after.Rows) != wantRows {
		t.Error("post-promotion query diverged from the oracle")
	}
}

// ClusterRolloutPolicy aliases the policy type for test readability.
type ClusterRolloutPolicy = RolloutPolicy

// queryText runs a text-result statement over the wire protocol and
// joins the returned lines.
func queryText(t *testing.T, cl *Cluster, sql string) string {
	t.Helper()
	client, err := cl.Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rows, err := client.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for {
		row, err := rows.Next()
		if err != nil {
			t.Fatal(err)
		}
		if row == nil {
			break
		}
		fmt.Fprintln(&b, row[0])
	}
	return b.String()
}
