package qpc

// In-package rollout lifecycle suite on the chaos harness (a real QPC
// and two DAPs over netsim): the controller's full path — start, route,
// canary execution, oracle, shadow run, judge, abort/promote, reports —
// driven through Server.Execute and the public rollout methods.

import (
	"errors"
	"fmt"
	"reflect"
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
	if _, err := h.srv.StartRollout("AvgEnergy", v1.Tag, 0.5); err == nil || !strings.Contains(err.Error(), "already active") {
		t.Errorf("rollout of the active release: err = %v", err)
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
	if rels, _ := h.srv.ReleasesReport("AvgEnergy"); strings.Contains(rels, "[canary]") {
		t.Errorf("the withdrawn release is still marked canary:\n%s", rels)
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
	if rels, _ := h.srv.ReleasesReport("AvgEnergy"); strings.Contains(rels, "[canary]") {
		t.Errorf("the promoted release is still marked canary:\n%s", rels)
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

// rolloutCtrl is the rollout controller of a network-less QPC over the
// builtin repository, with an AvgEnergy v2 derived by mutate staged
// under tag.
func rolloutCtrl(t *testing.T, policy RolloutPolicy, tag string, mutate func(string) string) (*rolloutController, *catalog.Catalog) {
	t.Helper()
	reg := ops.Builtins()
	cat := catalog.New(reg, catalog.NewRepositoryFromRegistry(reg))
	srv := New(Config{Cat: cat, Rollout: policy})
	stageAvgEnergyV2(t, cat, tag, mutate)
	return srv.rollouts, cat
}

// TestRolloutJudgeMatrix unit-drives the one judgment, settle, the way
// runCanary does — the canary run first, the active release's shadow run
// only when settle asks for it — over the error/success matrix, the
// oracle fast path, and the latency and promotion endings, without a
// network: only the controller's bookkeeping is under test. Each row
// pins the side delivered, the status and abort evidence, and every
// counter.
func TestRolloutJudgeMatrix(t *testing.T) {
	boom := errors.New("boom")
	ok := func(digest string, micros float64) *runOutcome { return &runOutcome{digest: digest, micros: micros} }
	failed := func() *runOutcome { return &runOutcome{err: boom} }
	quiet := RolloutPolicy{PromoteAfter: -1, MinSamples: 1 << 20}
	type counts struct{ canary, shadow, cmp, match, errs int }
	for _, tc := range []struct {
		name      string
		policy    RolloutPolicy
		oracle    []string    // active digests recorded for the SQL beforehand
		can       *runOutcome // the canary run
		shadow    *runOutcome // the active run, nil where none may be asked for
		queries   int         // canary runs, each of its own SQL (0: one)
		deliver   string      // "canary" or "active"
		status    string
		reason    string // abort reason substring, "" for no abort
		canaryErr bool   // the abort evidence carries the canary's error
		want, got string // the abort evidence's result digests
		counts    counts
	}{
		// Canary-only failure: divergent behaviour; past MaxCanaryErrors=0
		// it aborts, and the active rows are delivered.
		{name: "canary failed", policy: quiet, can: failed(), shadow: ok("d", 50),
			deliver: "active", status: rolloutAborted, reason: "canary execution failed", canaryErr: true,
			counts: counts{canary: 1, shadow: 1, errs: 1}},
		// Both releases failed: the environment is sick, not the canary —
		// no abort, and the active release's error is surfaced.
		{name: "both failed", policy: RolloutPolicy{PromoteAfter: -1, MinSamples: 1 << 20, MaxCanaryErrors: 10},
			can: failed(), shadow: failed(),
			deliver: "active", status: rolloutRunning, counts: counts{canary: 1, shadow: 1}},
		// Canary succeeded where active failed: no judgment, deliver.
		{name: "active failed", policy: quiet, can: ok("d", 50), shadow: failed(),
			deliver: "canary", status: rolloutRunning, counts: counts{canary: 1, shadow: 1}},
		{name: "digest divergence", policy: quiet, can: ok("x", 50), shadow: ok("d", 50),
			deliver: "active", status: rolloutAborted, reason: "result digest divergence", want: "d", got: "x",
			counts: counts{canary: 1, shadow: 1, cmp: 1}},
		// Latency regression: matching digests, canary consistently slower
		// than LatencyFactor x active once MinSamples comparisons are in.
		{name: "latency regression", policy: RolloutPolicy{PromoteAfter: -1, MinSamples: 2, LatencyFactor: 2},
			can: ok("d", 5000), shadow: ok("d", 10), queries: 2,
			deliver: "canary", status: rolloutAborted, reason: "latency regression",
			counts: counts{canary: 2, shadow: 2, cmp: 2, match: 2}},
		// Promotion: enough clean matches move the active pointer.
		{name: "promotion", policy: RolloutPolicy{PromoteAfter: 1, MinSamples: 1 << 20}, can: ok("d", 50), shadow: ok("d", 50),
			deliver: "canary", status: rolloutPromoted, counts: counts{canary: 1, shadow: 1, cmp: 1, match: 1}},
		// The oracle fast path: a recorded match is a full comparison with
		// no shadow run; an unstable SQL compares nothing and delivers; a
		// missing oracle, or one the canary disagrees with, asks for the
		// shadow, which has the last word.
		{name: "oracle match", policy: quiet, oracle: []string{"d"}, can: ok("d", 50),
			deliver: "canary", status: rolloutRunning, counts: counts{canary: 1, cmp: 1, match: 1}},
		{name: "oracle unstable", policy: quiet, oracle: []string{"d", "e"}, can: ok("x", 50),
			deliver: "canary", status: rolloutRunning, counts: counts{canary: 1}},
		{name: "oracle missing", policy: quiet, can: ok("d", 50), shadow: ok("d", 50),
			deliver: "canary", status: rolloutRunning, counts: counts{canary: 1, shadow: 1, cmp: 1, match: 1}},
		{name: "oracle mismatch confirmed", policy: quiet, oracle: []string{"d"}, can: ok("x", 50), shadow: ok("d", 50),
			deliver: "active", status: rolloutAborted, reason: "result digest divergence", want: "d", got: "x",
			counts: counts{canary: 1, shadow: 1, cmp: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, cat := rolloutCtrl(t, tc.policy, "v2", noopPrefix)
			st, err := c.start("AvgEnergy", "v2", 1.0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range tc.oracle {
				st.recordOracleLocked("q0", ok(d, 50))
			}
			var out *runOutcome
			for i := 0; i < max(tc.queries, 1); i++ {
				sql := fmt.Sprintf("q%d", i)
				if out = c.settle(st, sql, tc.can, nil); out == nil {
					if tc.shadow == nil {
						t.Fatal("settle asked for a shadow run the oracle should have spared")
					}
					out = c.settle(st, sql, tc.can, tc.shadow)
				}
			}
			if side := map[*runOutcome]string{tc.can: "canary", tc.shadow: "active"}[out]; side != tc.deliver {
				t.Errorf("delivered the %s run, want the %s run", side, tc.deliver)
			}
			if st.Status != tc.status {
				t.Errorf("status = %s, want %s", st.Status, tc.status)
			}
			var ev RolloutAbortedError
			if st.Abort != nil {
				ev = *st.Abort
			}
			if (st.Abort == nil) != (tc.reason == "") || !strings.Contains(ev.Reason, tc.reason) {
				t.Errorf("abort = %+v, want reason %q", st.Abort, tc.reason)
			}
			if (ev.CanaryErr != "") != tc.canaryErr || ev.WantDigest != tc.want || ev.GotDigest != tc.got {
				t.Errorf("evidence = %+v, want canary error %v, digests %q/%q", ev, tc.canaryErr, tc.want, tc.got)
			}
			if got := (counts{st.CanaryRuns, st.ShadowRuns, st.Comparisons, st.Matches, st.CanaryErrors}); got != tc.counts {
				t.Errorf("counters = %+v, want %+v", got, tc.counts)
			}
			if active, _ := cat.Repo().ActiveRelease("AvgEnergy"); (active.Tag == "v2") != (tc.status == rolloutPromoted) {
				t.Errorf("active release %s after a %s rollout", active.Tag, st.Status)
			}
		})
	}
}

// TestRolloutDoesNotSurviveRestart: the controller is the one record of
// a canary. While a rollout runs, SHOW RELEASES marks its release
// [canary]; a QPC restarted over the saved repository runs no rollout
// and marks nothing canary, since nothing would route to it.
func TestRolloutDoesNotSurviveRestart(t *testing.T) {
	c, cat := rolloutCtrl(t, RolloutPolicy{}, "v2", noopPrefix)
	if _, err := c.srv.StartRollout("AvgEnergy", "v2", 0.5); err != nil {
		t.Fatal(err)
	}
	rels, err := c.srv.ReleasesReport("AvgEnergy")
	if err != nil || !strings.Contains(rels, "[canary]") {
		t.Fatalf("SHOW RELEASES while a rollout runs: %v\n%s", err, rels)
	}
	dir := t.TempDir()
	if err := cat.Repo().SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	repo := catalog.NewRepository()
	if err := repo.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	restarted := New(Config{Cat: catalog.New(ops.Builtins(), repo)})
	rels, err = restarted.ReleasesReport("AvgEnergy")
	if err != nil || strings.Contains(rels, "[canary]") || !strings.Contains(rels, "[active]") {
		t.Errorf("SHOW RELEASES after a restart: %v\n%s", err, rels)
	}
	if rep := restarted.RolloutReport(); rep != "no rollouts" {
		t.Errorf("SHOW ROLLOUTS after a restart = %q", rep)
	}
}

// TestCanaryPlanClonesTouchedFragments: a canary run's plan is a copy in
// which exactly the fragments that ship the class are cloned, carrying
// the canary's code ref — name, tag, digest, caps and cost stamp as the
// release has them — while every other fragment and the prepared plan
// stay shared and untouched.
func TestCanaryPlanClonesTouchedFragments(t *testing.T) {
	c, cat := rolloutCtrl(t, RolloutPolicy{}, "v2", noopPrefix)
	rel, _ := cat.Repo().GetRelease("AvgEnergy", "v2")
	active := core.CodeRef{Name: "AvgEnergy", Version: "1.0", Checksum: "aaaa"}
	plan := &core.Plan{SQL: rolloutSQL, Fragments: []*core.Fragment{
		{Site: "site1", Code: []core.CodeRef{active, {Name: "Clip", Checksum: "bbbb"}},
			CutPoint: "below=[call AvgEnergy]", CutAlts: 2},
		{Site: "site2"},
	}}
	if st, _ := c.route(plan, "q1"); st != nil {
		t.Fatal("routed to a canary with no rollout running")
	}
	if _, err := c.start("AvgEnergy", "v2", 1.0); err != nil {
		t.Fatal(err)
	}
	if st, _ := c.route(&core.Plan{Fragments: []*core.Fragment{{Site: "site2"}}}, "q1"); st != nil {
		t.Error("a plan that ships no code was routed to the canary")
	}
	st, cp := c.route(plan, "q1")
	if st == nil || cp == nil {
		t.Fatal("a plan shipping the class was not routed at fraction 1")
	}
	if cp == plan || cp.Fragments[0] == plan.Fragments[0] {
		t.Fatal("the touched fragment is still the prepared plan's")
	}
	if cp.Fragments[1] != plan.Fragments[1] {
		t.Error("an untouched fragment was copied")
	}
	want := core.CodeRef{Name: rel.Class, Version: rel.Tag, Checksum: rel.Digest,
		Caps: rel.Caps, Cost: rel.Cost}
	if got := cp.Fragments[0].Code[0]; !reflect.DeepEqual(got, want) || want.Cost.BudgetInstrs == 0 {
		t.Errorf("substituted ref = %+v, want %+v", got, want)
	}
	if got := cp.Fragments[0].Code[1]; got.Checksum != "bbbb" {
		t.Errorf("unrelated ref rewritten: %+v", got)
	}
	if !reflect.DeepEqual(plan.Fragments[0].Code[0], active) {
		t.Error("the canary ref leaked into the prepared plan")
	}
	if f := cp.Fragments[0]; f.CutPoint != "below=[call AvgEnergy]" || f.CutAlts != 2 || cp.SQL != plan.SQL {
		t.Errorf("the copy lost the plan's annotations: %q/%d, %q", f.CutPoint, f.CutAlts, cp.SQL)
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
	// Costly canary: seeded prior, abort on the first live comparison.
	c, _ := rolloutCtrl(t, RolloutPolicy{PromoteAfter: -1}, "v2", busyLoop)
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
	// One live comparison, matching digests, timings consistent with the
	// static story: that single sample condemns the canary — whose rows,
	// matching, are still the ones delivered.
	can := &runOutcome{digest: "d", micros: 6000}
	if out := c.settle(st, "q1", can, nil); out != nil {
		t.Fatal("a first sighting settled without a shadow run")
	}
	if out := c.settle(st, "q1", can, &runOutcome{digest: "d", micros: 120}); out != can {
		t.Error("matching canary rows withheld")
	}
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
	c2, _ := rolloutCtrl(t, RolloutPolicy{PromoteAfter: -1}, "v2", noopPrefix)
	st2, err := c2.start("AvgEnergy", "v2", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if st2.latencySamples != 0 || st2.canaryEWMA != 0 || st2.activeEWMA != 0 {
		t.Fatalf("comparable canary was seeded: samples=%d canary=%v active=%v",
			st2.latencySamples, st2.canaryEWMA, st2.activeEWMA)
	}
}
