package qpc

// In-package rollout lifecycle suite on the chaos harness (a real QPC
// and two DAPs over netsim): the controller's full path — start, route,
// canary execution, oracle, shadow run, judge, abort/promote, DAP cache
// invalidation, reports — driven through Server.Execute and the public
// rollout methods.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mocha/internal/catalog"
	"mocha/internal/core"
	"mocha/internal/obs"
	"mocha/internal/ops"
	"mocha/internal/vm"
	"mocha/internal/wire"
)

const rolloutSQL = "SELECT time, AvgEnergy(image) FROM Rasters"

// rolloutHarness is a chaos harness with code shipping forced on and
// the rollout policy under test; it keeps the catalog so tests can
// stage releases. The QPC reports into a registry of its own, so the
// absolute counter values the tests assert survive -count>1.
func rolloutHarness(t *testing.T, policy RolloutPolicy) (*chaosHarness, *catalog.Catalog) {
	t.Helper()
	var cat *catalog.Catalog
	h := newChaosHarness(t, func(c *Config) {
		cat = c.Cat
		c.Strategy = core.StrategyCodeShip
		c.Rollout = policy
		c.QueryTimeout = 10 * time.Second
		c.Metrics = obs.NewRegistry()
	})
	return h, cat
}

// stageAvgEnergyV2 stages a v2 of the builtin AvgEnergy derived from its
// real MVM source by mutate (after the version bump), so wrong and
// correct upgrades share everything but the seeded difference.
func stageAvgEnergyV2(t *testing.T, cat *catalog.Catalog, tag string, mutate func(string) string) *catalog.Release {
	t.Helper()
	d, ok := ops.Builtins().Lookup("AvgEnergy")
	if !ok || d.Source == "" {
		t.Fatal("builtin AvgEnergy has no MVM source")
	}
	src := strings.Replace(d.Source, "program AvgEnergy version 1.0", "program AvgEnergy version 2.0", 1)
	p, err := vm.Assemble(mutate(src))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := cat.Repo().StageProgram(p, tag)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// halveResult seeds a silent wrong answer: the final average is
// multiplied by 0.5 before returning.
func halveResult(src string) string {
	src = strings.Replace(src, "const zero float 0", "const zero float 0\nconst half float 0.5", 1)
	return strings.Replace(src, "  divf\n  ret", "  divf\n  const half\n  mulf\n  ret", 1)
}

// noopPrefix seeds a digest change with identical semantics: a
// redundant store of an already-zeroed local.
func noopPrefix(src string) string {
	return strings.Replace(src, "func eval args=1 locals=3",
		"func eval args=1 locals=3\n  pushi 0\n  store 0", 1)
}

// TestRolloutIntegrationDivergenceAbort canaries a silently-wrong v2 at
// 100%: the very first comparison must catch the digest divergence,
// deliver the active release's rows to the client, auto-roll-back, and
// leave typed evidence plus clean reports behind.
func TestRolloutIntegrationDivergenceAbort(t *testing.T) {
	h, cat := rolloutHarness(t, RolloutPolicy{PromoteAfter: -1, MinSamples: 1 << 20})
	baseline, err := h.executeWithin(t, 10*time.Second, rolloutSQL)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Stats.CodeClassesShipped == 0 {
		t.Fatal("baseline shipped no code; no query would be rollout-eligible")
	}
	wantRows := fmt.Sprint(baseline.Rows)
	v1, _ := cat.Repo().ActiveRelease("AvgEnergy")
	rel := stageAvgEnergyV2(t, cat, "v2", halveResult)
	if rel.Digest == v1.Digest {
		t.Fatal("wrong v2 shares v1's digest")
	}

	// Rejected starts: unknown class, unknown tag, senseless fractions.
	if _, err := h.srv.StartRollout("Ghost", "v2", 0.5); err == nil {
		t.Error("rollout of an unknown class accepted")
	}
	if _, err := h.srv.StartRollout("AvgEnergy", "ghost-tag", 0.5); err == nil {
		t.Error("rollout of an unknown tag accepted")
	}
	for _, frac := range []float64{0, -0.25, 1.5} {
		if _, err := h.srv.StartRollout("AvgEnergy", "v2", frac); err == nil {
			t.Errorf("fraction %v accepted", frac)
		}
	}
	msg, err := h.srv.StartRollout("AvgEnergy", "v2", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, rel.Digest) {
		t.Errorf("start message %q omits the digest", msg)
	}
	// One rollout per class while it runs.
	if _, err := h.srv.StartRollout("AvgEnergy", "v2", 0.5); err == nil {
		t.Error("second concurrent rollout of the same class accepted")
	}

	// First canaried query: no oracle yet, so the active release shadow
	// runs, the digests disagree, and the client gets the active rows.
	res, err := h.executeWithin(t, 10*time.Second, rolloutSQL)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Rows) != wantRows {
		t.Fatal("client saw rows diverging from the active release")
	}
	if got := h.srv.RolloutStatus("AvgEnergy"); got != "aborted" {
		t.Fatalf("status after divergence = %q, want aborted", got)
	}
	abort := h.srv.RolloutAbort("AvgEnergy")
	if abort == nil {
		t.Fatal("no abort evidence")
	}
	if !strings.Contains(abort.Reason, "divergence") || abort.SQL == "" ||
		abort.WantDigest == abort.GotDigest {
		t.Errorf("abort evidence = %+v", abort)
	}
	if _, ok := cat.Repo().CanaryRelease("AvgEnergy"); ok {
		t.Error("canary pointer survived the abort")
	}
	if active, _ := cat.Repo().ActiveRelease("AvgEnergy"); active.Digest != v1.Digest {
		t.Error("active pointer moved during an abort")
	}
	if got := h.srv.met.rolloutDivergences.Value(); got == 0 {
		t.Error("divergence not counted")
	}

	// The rollout is over: queries route normally again and still match.
	res, err = h.executeWithin(t, 10*time.Second, rolloutSQL)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Rows) != wantRows {
		t.Error("post-abort query diverged")
	}

	// Reports: SHOW ROLLOUTS carries the evidence, SHOW RELEASES the
	// history with markers, and unknown classes error cleanly.
	report := h.srv.RolloutReport()
	for _, want := range []string{"AvgEnergy@v2", "aborted", "result digest divergence", "evidence:"} {
		if !strings.Contains(report, want) {
			t.Errorf("RolloutReport missing %q:\n%s", want, report)
		}
	}
	releases, err := h.srv.ReleasesReport("AvgEnergy")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(releases, "[active]") || !strings.Contains(releases, rel.Digest) {
		t.Errorf("ReleasesReport(AvgEnergy):\n%s", releases)
	}
	all, err := h.srv.ReleasesReport("")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(all, "AvgEnergy") || !strings.Contains(all, "Clip") {
		t.Errorf("ReleasesReport(\"\") incomplete:\n%s", all)
	}
	if _, err := h.srv.ReleasesReport("Ghost"); err == nil {
		t.Error("ReleasesReport of an unknown class succeeded")
	}

	// Manual rollback of a fresh rollout (operator hits ROLLBACK before
	// the controller decides), then nothing left to abort.
	if _, err := h.srv.StartRollout("AvgEnergy", "v2", 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := h.srv.AbortRollout("AvgEnergy", "manual ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.srv.AbortRollout("AvgEnergy", "again"); err == nil {
		t.Error("aborting with no running rollout succeeded")
	}
	if h.srv.RolloutAbort("AvgEnergy").Reason != "manual ROLLBACK" {
		t.Error("manual abort reason lost")
	}
}

// TestRolloutIntegrationPromotion canaries a correct, digest-different
// v2 at 100%: comparisons match, the rollout auto-promotes after the
// configured count, and a later rollout can also be promoted manually.
func TestRolloutIntegrationPromotion(t *testing.T) {
	h, cat := rolloutHarness(t, RolloutPolicy{PromoteAfter: 2, MinSamples: 1 << 20})
	baseline, err := h.executeWithin(t, 10*time.Second, rolloutSQL)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := fmt.Sprint(baseline.Rows)

	if _, err := h.srv.PromoteRollout("AvgEnergy"); err == nil {
		t.Error("promoting with no running rollout succeeded")
	}
	rel := stageAvgEnergyV2(t, cat, "v2", noopPrefix)
	if _, err := h.srv.StartRollout("AvgEnergy", "v2", 1.0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6 && h.srv.RolloutStatus("AvgEnergy") == "running"; i++ {
		res, err := h.executeWithin(t, 10*time.Second, rolloutSQL)
		if err != nil {
			t.Fatalf("query %d under rollout: %v", i, err)
		}
		if fmt.Sprint(res.Rows) != wantRows {
			t.Fatalf("query %d diverged under a correct canary", i)
		}
	}
	if got := h.srv.RolloutStatus("AvgEnergy"); got != "promoted" {
		t.Fatalf("status = %q, want promoted\n%s", got, h.srv.RolloutReport())
	}
	if active, _ := cat.Repo().ActiveRelease("AvgEnergy"); active.Digest != rel.Digest {
		t.Error("promotion did not activate v2")
	}
	if _, ok := cat.Repo().CanaryRelease("AvgEnergy"); ok {
		t.Error("promotion left the canary pointer set")
	}
	if got := h.srv.met.rolloutPromotions.Value(); got != 1 {
		t.Errorf("promotions counter = %d", got)
	}
	if !strings.Contains(h.srv.RolloutReport(), "promoted") {
		t.Error("report does not show the promotion")
	}
	// Post-promotion queries (v2 active, no rollout) still match.
	res, err := h.executeWithin(t, 10*time.Second, rolloutSQL)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Rows) != wantRows {
		t.Error("post-promotion query diverged")
	}

	// Manual promotion: the operator vouches for v3 before the
	// controller has seen enough traffic.
	rel3 := stageAvgEnergyV2(t, cat, "v3", func(s string) string {
		return noopPrefix(noopPrefix(s))
	})
	if _, err := h.srv.StartRollout("AvgEnergy", "v3", 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := h.srv.PromoteRollout("AvgEnergy"); err != nil {
		t.Fatal(err)
	}
	if active, _ := cat.Repo().ActiveRelease("AvgEnergy"); active.Digest != rel3.Digest {
		t.Error("manual promotion did not activate v3")
	}
	if h.srv.RolloutStatus("AvgEnergy") != "promoted" {
		t.Error("manual promotion status wrong")
	}
}

// TestRolloutIntegrationObserveActive: a healthy canary is compared via
// the oracle fast path — only the first sighting of a SQL shadow-runs
// the active release; later matching runs deliver canary rows directly
// and the rollout stays running.
func TestRolloutIntegrationObserveActive(t *testing.T) {
	h, cat := rolloutHarness(t, RolloutPolicy{PromoteAfter: -1, MinSamples: 1 << 20})
	// Uncanaried traffic before any rollout exists must execute plainly.
	if _, err := h.executeWithin(t, 10*time.Second, rolloutSQL); err != nil {
		t.Fatal(err)
	}
	stageAvgEnergyV2(t, cat, "v2", noopPrefix)
	if _, err := h.srv.StartRollout("AvgEnergy", "v2", 1.0); err != nil {
		t.Fatal(err)
	}
	// First canaried query: no oracle for this SQL yet, so the active
	// release shadow-runs once and records it.
	if _, err := h.executeWithin(t, 10*time.Second, rolloutSQL); err != nil {
		t.Fatal(err)
	}
	if h.srv.met.rolloutShadowRuns.Value() == 0 {
		t.Fatal("first canaried query did not shadow-run")
	}
	// Second canaried query: the canary digest matches the recorded
	// oracle, so its rows are delivered directly — no second shadow.
	shadowsBefore := h.srv.met.rolloutShadowRuns.Value()
	res, err := h.executeWithin(t, 10*time.Second, rolloutSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows under canary")
	}
	if got := h.srv.met.rolloutShadowRuns.Value(); got != shadowsBefore {
		t.Errorf("oracle hit still shadow-ran (%d -> %d)", shadowsBefore, got)
	}
	if h.srv.RolloutStatus("AvgEnergy") != "running" {
		t.Fatalf("healthy canary not still running:\n%s", h.srv.RolloutReport())
	}
	if _, err := h.srv.AbortRollout("AvgEnergy", "test cleanup"); err != nil {
		t.Fatal(err)
	}
}

// TestRolloutIntegrationWireVerbs drives the rollout surface the way
// mocha-cli does — ROLLOUT/ROLLBACK/PROMOTE and the SHOW verbs as wire
// queries — including the parse failures.
func TestRolloutIntegrationWireVerbs(t *testing.T) {
	h, cat := rolloutHarness(t, RolloutPolicy{PromoteAfter: -1, MinSamples: 1 << 20})
	stageAvgEnergyV2(t, cat, "v2", halveResult)
	l, err := h.network.Listen("qpc")
	if err != nil {
		t.Fatal(err)
	}
	go h.srv.Serve(l)
	defer l.Close()

	ask := func(sql string) string {
		t.Helper()
		nc, err := h.network.Dial("qpc")
		if err != nil {
			t.Fatal(err)
		}
		conn := newTestConn(nc)
		defer conn.Close()
		conn.hello(t)
		rows, _ := conn.query(t, sql)
		var b strings.Builder
		for _, r := range rows {
			fmt.Fprintln(&b, r[0])
		}
		return b.String()
	}
	askErr := func(sql string) error {
		t.Helper()
		nc, err := h.network.Dial("qpc")
		if err != nil {
			t.Fatal(err)
		}
		conn := newTestConn(nc)
		defer conn.Close()
		conn.hello(t)
		if err := conn.conn.Send(wire.MsgQuery, []byte(sql)); err != nil {
			t.Fatal(err)
		}
		_, err = conn.conn.Expect(wire.MsgResultSchema)
		return err
	}

	if got := ask("ROLLOUT AvgEnergy v2 AT 25%"); !strings.Contains(got, "25%") {
		t.Errorf("ROLLOUT reply: %s", got)
	}
	if got := ask("SHOW ROLLOUTS"); !strings.Contains(got, "running") {
		t.Errorf("SHOW ROLLOUTS while running: %s", got)
	}
	if got := ask("ROLLBACK AvgEnergy"); !strings.Contains(got, "rolled back") {
		t.Errorf("ROLLBACK reply: %s", got)
	}
	if got := ask("SHOW RELEASES"); !strings.Contains(got, "AvgEnergy") {
		t.Errorf("SHOW RELEASES: %s", got)
	}
	if got := ask("SHOW RELEASES AvgEnergy"); !strings.Contains(got, "[active]") {
		t.Errorf("SHOW RELEASES AvgEnergy: %s", got)
	}
	// The ratio form starts another rollout; a manual PROMOTE ends it.
	if got := ask("ROLLOUT AvgEnergy v2 AT 0.5"); !strings.Contains(got, "50%") {
		t.Errorf("ratio ROLLOUT reply: %s", got)
	}
	if got := ask("PROMOTE AvgEnergy"); !strings.Contains(got, "now active") {
		t.Errorf("PROMOTE reply: %s", got)
	}

	for _, bad := range []string{
		"ROLLOUT AvgEnergy v2",      // missing AT <fraction>
		"ROLLOUT AvgEnergy v2 AT x", // unparseable fraction
		"ROLLOUT Ghost v2 AT 50%",   // unknown class
		"PROMOTE AvgEnergy",         // nothing running anymore
		"ROLLBACK AvgEnergy",        // nothing running anymore
		"DESCRIBE Ghost",            // unknown catalog resource
	} {
		if err := askErr(bad); err == nil {
			t.Errorf("%q did not error", bad)
		}
	}

	// The neighbouring text verbs flow through the same serve path.
	if got := ask("EXPLAIN " + rolloutSQL); !strings.Contains(got, "Rasters") {
		t.Errorf("EXPLAIN: %s", got)
	}
	if got := ask("DESCRIBE Rasters"); !strings.Contains(got, "Rasters") {
		t.Errorf("DESCRIBE: %s", got)
	}
	if got := ask("SHOW TABLES"); !strings.Contains(got, "Rasters") {
		t.Errorf("SHOW TABLES: %s", got)
	}
	if got := ask("SHOW METRICS"); !strings.Contains(got, "qpc_rollout_aborts") {
		t.Errorf("SHOW METRICS missing rollout counters: %s", got)
	}
}

// TestRolloutJudgeMatrix unit-drives the post-shadow judgment over the
// error/success matrix and the latency and promotion endings, without a
// network: only the controller's bookkeeping is under test.
func TestRolloutJudgeMatrix(t *testing.T) {
	newCtrl := func(policy RolloutPolicy) (*rolloutController, *catalog.Catalog) {
		reg := ops.Builtins()
		cat := catalog.New(reg, catalog.NewRepositoryFromRegistry(reg))
		srv := New(Config{Cat: cat, Rollout: policy})
		stageAvgEnergyV2(t, cat, "v2", noopPrefix)
		return srv.rollouts, cat
	}
	start := func(c *rolloutController) (*rolloutState, *canaryDecision) {
		t.Helper()
		st, err := c.start("AvgEnergy", "v2", 1.0)
		if err != nil {
			t.Fatal(err)
		}
		return st, &canaryDecision{st: st}
	}
	boom := errors.New("boom")
	ok := runOutcome{digest: "d", micros: 50}

	// Canary-only failure: divergent behaviour; past MaxCanaryErrors=0
	// it aborts, and the active rows are what gets delivered.
	c, _ := newCtrl(RolloutPolicy{PromoteAfter: -1, MinSamples: 1 << 20})
	st, dec := start(c)
	c.checkOracleErr(dec)
	if c.judge(dec, "q1", runOutcome{err: boom}, ok) {
		t.Error("failed canary's rows delivered")
	}
	if st.Status != rolloutAborted || !strings.Contains(st.Abort.Reason, "canary execution failed") {
		t.Errorf("canary-failure state = %s (%+v)", st.Status, st.Abort)
	}
	if st.Abort.CanaryErr == "" {
		t.Error("canary error lost from the evidence")
	}

	// Both releases failed: the environment is sick, not the canary —
	// no abort, and the caller surfaces the active release's error.
	c, _ = newCtrl(RolloutPolicy{PromoteAfter: -1, MinSamples: 1 << 20, MaxCanaryErrors: 10})
	st, dec = start(c)
	if c.judge(dec, "q1", runOutcome{err: boom}, runOutcome{err: boom}) {
		t.Error("rows delivered when both releases failed")
	}
	if st.Status != rolloutRunning {
		t.Errorf("both-failed judged the canary: %s", st.Status)
	}
	// Canary succeeded where active failed: no judgment, deliver.
	if !c.judge(dec, "q2", ok, runOutcome{err: boom}) {
		t.Error("healthy canary rows withheld when only the active failed")
	}
	if st.Status != rolloutRunning {
		t.Errorf("active-failure judged the canary: %s", st.Status)
	}

	// Latency regression: matching digests, canary consistently slower
	// than LatencyFactor x active after MinSamples comparisons.
	c, _ = newCtrl(RolloutPolicy{PromoteAfter: -1, MinSamples: 2, LatencyFactor: 2})
	st, dec = start(c)
	for i := 0; i < 8 && st.Status == rolloutRunning; i++ {
		c.judge(dec, fmt.Sprintf("q%d", i),
			runOutcome{digest: "d", micros: 5000}, runOutcome{digest: "d", micros: 10})
	}
	if st.Status != rolloutAborted || !strings.Contains(st.Abort.Reason, "latency regression") {
		t.Errorf("latency state = %s (%+v)", st.Status, st.Abort)
	}

	// Promotion: enough clean matches move the active pointer.
	c, cat := newCtrl(RolloutPolicy{PromoteAfter: 1, MinSamples: 1 << 20})
	st, dec = start(c)
	if !c.judge(dec, "q1", ok, ok) {
		t.Error("matching canary rows withheld")
	}
	if st.Status != rolloutPromoted {
		t.Errorf("status after PromoteAfter=1 match: %s", st.Status)
	}
	if active, _ := cat.Repo().ActiveRelease("AvgEnergy"); active.Tag != "v2" {
		t.Error("promotion did not activate the canary release")
	}
}

// busyLoop stages a semantically-identical but statically far costlier
// v2: a bounded 20000-iteration counter loop prefixed to eval, which the
// verifier prices into the release's instruction budget.
func busyLoop(src string) string {
	return strings.Replace(src, "func eval args=1 locals=3",
		`func eval args=1 locals=4
  pushi 0
  store 3
busy:
  load 3
  pushi 20000
  lt
  jz busydone
  load 3
  pushi 1
  addi
  store 3
  jmp busy
busydone:`, 1)
}

// TestRolloutStaticCostPrior pins the verifier-seeded latency judge: a
// canary whose static instruction budget exceeds LatencyFactor× the
// active release's starts with the latency EWMAs seeded from the static
// units and one sample short of MinSamples, so the FIRST confirming
// live comparison aborts the rollout — long before MinSamples queries
// have paid for the regression. A canary within budget stays unseeded.
func TestRolloutStaticCostPrior(t *testing.T) {
	newCtrl := func(tag string, mutate func(string) string) *rolloutController {
		reg := ops.Builtins()
		cat := catalog.New(reg, catalog.NewRepositoryFromRegistry(reg))
		srv := New(Config{Cat: cat, Rollout: RolloutPolicy{PromoteAfter: -1}})
		stageAvgEnergyV2(t, cat, tag, mutate)
		return srv.rollouts
	}

	// Costly canary: seeded prior, abort on the first live comparison.
	c := newCtrl("v2", busyLoop)
	st, err := c.start("AvgEnergy", "v2", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if st.CanaryStaticUnits <= 0 || st.ActiveStaticUnits <= 0 {
		t.Fatalf("static units not recorded: canary %d, active %d", st.CanaryStaticUnits, st.ActiveStaticUnits)
	}
	if float64(st.CanaryStaticUnits) <= c.policy.LatencyFactor*float64(st.ActiveStaticUnits) {
		t.Fatalf("busy-loop canary budget %d not past %.1fx active %d",
			st.CanaryStaticUnits, c.policy.LatencyFactor, st.ActiveStaticUnits)
	}
	if st.latencySamples != c.policy.MinSamples-1 {
		t.Fatalf("latencySamples = %d, want MinSamples-1 = %d", st.latencySamples, c.policy.MinSamples-1)
	}
	if st.canaryEWMA <= 0 || st.activeEWMA <= 0 {
		t.Fatalf("EWMA priors not seeded: canary %v, active %v", st.canaryEWMA, st.activeEWMA)
	}
	dec := &canaryDecision{st: st}
	// One live comparison, matching digests, timings consistent with the
	// static story: that single sample condemns the canary.
	c.judge(dec, "q1", runOutcome{digest: "d", micros: 6000}, runOutcome{digest: "d", micros: 120})
	if st.Status != rolloutAborted || !strings.Contains(st.Abort.Reason, "latency regression") {
		t.Fatalf("status = %s (%+v), want latency abort on first comparison", st.Status, st.Abort)
	}
	if st.Comparisons >= c.policy.MinSamples {
		t.Errorf("took %d live comparisons; the static prior should need fewer than MinSamples=%d",
			st.Comparisons, c.policy.MinSamples)
	}
	if rep := c.report(); !strings.Contains(rep, "static budget:") {
		t.Errorf("report missing static budget line:\n%s", rep)
	}

	// Comparable canary: no seeding; live samples alone judge it.
	c2 := newCtrl("v2", noopPrefix)
	st2, err := c2.start("AvgEnergy", "v2", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if st2.latencySamples != 0 || st2.canaryEWMA != 0 || st2.activeEWMA != 0 {
		t.Fatalf("comparable canary was seeded: samples=%d canary=%v active=%v",
			st2.latencySamples, st2.canaryEWMA, st2.activeEWMA)
	}
}
