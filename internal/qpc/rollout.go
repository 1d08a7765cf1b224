package qpc

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"time"

	"mocha/internal/core"
	"mocha/internal/obs"
	"mocha/internal/vm"
	"mocha/internal/wire"
)

// RolloutPolicy tunes the canary controller's divergence thresholds.
// The zero value takes defaults.
type RolloutPolicy struct {
	// MinSamples is how many canary/active comparisons must accumulate
	// before the latency-regression check can abort a rollout (digest
	// divergence aborts immediately regardless). Default 5.
	MinSamples int
	// LatencyFactor aborts the rollout when the canary's smoothed
	// per-operator self time exceeds this multiple of the active
	// release's. Default 3.0.
	LatencyFactor float64
	// PromoteAfter promotes the canary to active once this many clean
	// result-digest matches accumulate with no divergence. Negative
	// means never auto-promote (PROMOTE <class> stays available).
	// Default 16.
	PromoteAfter int
	// MaxCanaryErrors is how many canary-only execution failures (the
	// active release succeeds, the canary traps or errors) are tolerated
	// before auto-rollback. Default 0: the first one aborts.
	MaxCanaryErrors int
}

func (p RolloutPolicy) withDefaults() RolloutPolicy {
	if p.MinSamples <= 0 {
		p.MinSamples = 5
	}
	if p.LatencyFactor <= 0 {
		p.LatencyFactor = 3.0
	}
	if p.PromoteAfter == 0 {
		p.PromoteAfter = 16
	}
	return p
}

// RolloutAbortedError is the typed evidence record of an auto-rollback:
// which release was withdrawn, why, and the observation that condemned
// it. SHOW ROLLOUTS renders it; tests assert on it.
type RolloutAbortedError struct {
	Class  string
	Tag    string
	Digest string
	// Reason is the trigger: result-digest divergence, canary execution
	// failure, latency regression, or a manual ROLLBACK.
	Reason string
	// SQL is the query that exposed the divergence, when one did.
	SQL string
	// WantDigest/GotDigest carry the mismatched result digests for a
	// digest divergence (want = active release's output).
	WantDigest string
	GotDigest  string
	// CanaryErr is the canary-side execution error, when that was the
	// trigger.
	CanaryErr string
}

func (e *RolloutAbortedError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "qpc: rollout of %s@%s aborted: %s", e.Class, e.Tag, e.Reason)
	if e.SQL != "" {
		fmt.Fprintf(&b, " on %q", e.SQL)
	}
	if e.WantDigest != "" || e.GotDigest != "" {
		fmt.Fprintf(&b, " (active result digest %s, canary %s)", e.WantDigest, e.GotDigest)
	}
	if e.CanaryErr != "" {
		fmt.Fprintf(&b, ": %s", e.CanaryErr)
	}
	return b.String()
}

// Rollout status values.
const (
	rolloutRunning  = "running"
	rolloutAborted  = "aborted"
	rolloutPromoted = "promoted"
)

// oracleCap bounds the per-rollout result-digest oracle map.
const oracleCap = 256

// staticCostRefBytes is the reference input size at which two releases'
// static budgets are compared: per-trip units are scaled as if every
// input-dependent loop stepped once per byte of a 1 KiB argument.
const staticCostRefBytes = 1024

// instrsPerMicro converts static instruction units into the judge's µs
// scale (50 interpreted MVM instructions per microsecond, matching the
// optimizer's defaultInstrsPerMS).
const instrsPerMicro = 50.0

// staticUnits folds a release's static cost summary to one comparable
// number: fixed units plus per-trip units at the reference input size.
func staticUnits(c vm.CostInfo) int64 {
	return c.FixedUnits + c.PerTripUnits*staticCostRefBytes
}

// oracleEntry is the recorded active-release behaviour for one SQL
// text: its result digest and smoothed operator self time. A query
// whose active runs ever produced two different digests is marked
// unstable (nondeterministic output order or values) and excluded from
// canary comparison.
type oracleEntry struct {
	digest   string
	micros   float64
	runs     int
	unstable bool
}

// rolloutState is one rollout's full lifecycle record.
type rolloutState struct {
	Class    string // display name
	Tag      string
	Digest   string
	Caps     string
	Cost     string // canary's static cost stamp, propagated into overrides
	Fraction float64

	// CanaryStaticUnits/ActiveStaticUnits are the releases' verifier-
	// derived worst-case instruction budgets at the reference input size
	// — the judge's prior. A canary whose static budget already exceeds
	// LatencyFactor× the active's seeds the latency EWMAs from these
	// units, so one confirming live sample aborts the rollout instead of
	// waiting for MinSamples queries to burn through a known-costly v2.
	CanaryStaticUnits int64
	ActiveStaticUnits int64

	StartedAt time.Time
	EndedAt   time.Time
	Status    string
	Abort     *RolloutAbortedError

	CanaryRuns   int // queries routed to the canary release
	ShadowRuns   int // active-release shadow runs for comparison
	Comparisons  int // result-digest comparisons performed
	Matches      int // comparisons that matched
	CanaryErrors int // canary-only execution failures

	canaryEWMA     float64 // smoothed canary op self-time, µs
	activeEWMA     float64 // smoothed active op self-time, µs
	latencySamples int

	oracles map[string]*oracleEntry
}

func (st *rolloutState) running() bool { return st.Status == rolloutRunning }

// canaryDecision pins one query to the canary release: the routing
// decision is made exactly once per query (RunTraced hashes its freshly
// minted query ID against the rollout fraction), so every resume,
// replica failover and restart of the query's streams re-deploys the
// same release digest — versions never mix within a query.
type canaryDecision struct {
	st        *rolloutState
	overrides map[string]core.CodeRef
}

// runOutcome summarizes one release's execution of a query for the
// controller: result digest, summed op:* self time, or the error.
type runOutcome struct {
	digest string
	micros float64
	err    error
}

// rolloutController owns rollout lifecycle state on the QPC. One
// rollout may run per class; histories are kept for SHOW ROLLOUTS.
type rolloutController struct {
	mu      sync.Mutex
	srv     *Server
	policy  RolloutPolicy
	current map[string]*rolloutState // lower class → latest rollout
	history []*rolloutState
}

func newRolloutController(srv *Server, policy RolloutPolicy) *rolloutController {
	return &rolloutController{
		srv:     srv,
		policy:  policy.withDefaults(),
		current: make(map[string]*rolloutState),
	}
}

// hashFraction maps a query ID onto [0,1) deterministically.
func hashFraction(qid string) float64 {
	h := fnv.New64a()
	h.Write([]byte(qid))
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// planUsesClass reports whether any fragment of the plan ships code for
// the class. Data-shipped plans evaluate operators natively at the QPC
// and carry no code refs, so they are never canary-eligible.
func planUsesClass(plan *core.Plan, lowerClass string) bool {
	for _, f := range plan.Fragments {
		for _, ref := range f.Code {
			if strings.ToLower(ref.Name) == lowerClass {
				return true
			}
		}
	}
	return false
}

// start begins a rollout: the release becomes the class's canary and
// the given fraction of eligible queries route to it.
func (c *rolloutController) start(class, tag string, fraction float64) (*rolloutState, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("qpc: rollout fraction %v outside (0, 1]", fraction)
	}
	repo := c.srv.cfg.Cat.Repo()
	rel, ok := repo.GetRelease(class, tag)
	if !ok {
		return nil, fmt.Errorf("qpc: class %q has no release tagged %q", class, tag)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(class)
	if st := c.current[key]; st != nil && st.running() {
		return nil, fmt.Errorf("qpc: a rollout of %s@%s is already running", st.Class, st.Tag)
	}
	if _, err := repo.SetCanary(class, tag); err != nil {
		return nil, err
	}
	st := &rolloutState{
		Class:             rel.Class,
		Tag:               rel.Tag,
		Digest:            rel.Digest,
		Caps:              strings.Join(rel.Caps, ","),
		Cost:              rel.Cost.String(),
		Fraction:          fraction,
		CanaryStaticUnits: staticUnits(rel.Cost),
		StartedAt:         time.Now(),
		Status:            rolloutRunning,
		oracles:           make(map[string]*oracleEntry),
	}
	if act, ok := repo.ActiveRelease(class); ok {
		st.ActiveStaticUnits = staticUnits(act.Cost)
	}
	// Static prior: when the canary's own verifier-derived budget is
	// already past the abort threshold, seed the latency EWMAs from the
	// static units and leave the judge one sample short of MinSamples —
	// the first confirming live comparison aborts, instead of MinSamples
	// queries paying for a canary the verifier had already priced as a
	// regression. A canary within the threshold starts unseeded: live
	// samples alone judge it.
	if st.ActiveStaticUnits > 0 &&
		float64(st.CanaryStaticUnits) > c.policy.LatencyFactor*float64(st.ActiveStaticUnits) {
		st.canaryEWMA = float64(st.CanaryStaticUnits) / instrsPerMicro
		st.activeEWMA = float64(st.ActiveStaticUnits) / instrsPerMicro
		if c.policy.MinSamples > 1 {
			st.latencySamples = c.policy.MinSamples - 1
		}
		c.srv.cfg.Logf("qpc: rollout %s@%s: static budget %d units exceeds %.1f× active %d units; latency prior armed",
			rel.Class, rel.Tag, st.CanaryStaticUnits, c.policy.LatencyFactor, st.ActiveStaticUnits)
	}
	c.current[key] = st
	c.history = append(c.history, st)
	c.srv.cfg.Logf("qpc: rollout started: %s@%s (digest %s) at %.0f%%", st.Class, st.Tag, st.Digest, fraction*100)
	return st, nil
}

// route decides, once per query, whether this execution runs the canary
// release. nil means the active release serves it.
func (c *rolloutController) route(plan *core.Plan, qid string) *canaryDecision {
	if c == nil || plan == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, st := range c.current {
		if !st.running() || !planUsesClass(plan, key) {
			continue
		}
		if hashFraction(qid) >= st.Fraction {
			return nil
		}
		return &canaryDecision{
			st: st,
			overrides: map[string]core.CodeRef{
				key: {Name: st.Class, Version: st.Tag, Checksum: st.Digest, Caps: st.Caps, Cost: st.Cost},
			},
		}
	}
	return nil
}

const ewmaAlpha = 0.3

func ewma(prev, sample float64) float64 {
	if prev == 0 {
		return sample
	}
	return prev + ewmaAlpha*(sample-prev)
}

// recordOracleLocked folds one successful active-release run into the
// rollout's oracle. Conflicting digests for the same SQL mark the query
// unstable: its output is nondeterministic, so it can never condemn (or
// acquit) a canary.
func (st *rolloutState) recordOracleLocked(sql string, act runOutcome) {
	st.activeEWMA = ewma(st.activeEWMA, act.micros)
	e := st.oracles[sql]
	if e == nil {
		if len(st.oracles) < oracleCap {
			st.oracles[sql] = &oracleEntry{digest: act.digest, micros: act.micros, runs: 1}
		}
		return
	}
	e.runs++
	if e.digest != act.digest {
		e.unstable = true
		return
	}
	e.micros = ewma(e.micros, act.micros)
}

// observeActive records an active-routed query's outcome as oracle
// material for any rollout its plan is eligible for.
func (c *rolloutController) observeActive(plan *core.Plan, sql, digest string, micros float64, err error) {
	if c == nil || err != nil || sql == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, st := range c.current {
		if st.running() && planUsesClass(plan, key) {
			st.recordOracleLocked(sql, runOutcome{digest: digest, micros: micros})
			return
		}
	}
}

// checkOracleErr counts a canary run that failed before any comparison
// was possible (the shadow run decides what the failure means).
func (c *rolloutController) checkOracleErr(dec *canaryDecision) {
	c.mu.Lock()
	dec.st.CanaryRuns++
	c.mu.Unlock()
}

// oracle verdicts for a canary run checked against recorded history.
type oracleVerdict int

const (
	oracleNeedShadow oracleVerdict = iota // no usable oracle, or mismatch to confirm
	oracleMatch                           // matched the recorded active digest
	oracleUnstable                        // SQL output is nondeterministic; no comparison possible
)

// checkOracle compares a successful canary run against the recorded
// active oracle for its SQL. A match is a full comparison (counted,
// fed into the latency check, may promote or abort); a mismatch or a
// missing oracle demands an authoritative shadow run before judgment.
func (c *rolloutController) checkOracle(dec *canaryDecision, sql string, can runOutcome) oracleVerdict {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := dec.st
	st.CanaryRuns++
	e := st.oracles[sql]
	if e == nil {
		return oracleNeedShadow
	}
	if e.unstable {
		return oracleUnstable
	}
	if e.digest != can.digest {
		return oracleNeedShadow
	}
	c.recordMatchLocked(st, can.micros, e.micros)
	return oracleMatch
}

// judge decides delivery after a shadow run of the active release, and
// advances the rollout state machine: digest mismatch or a canary-only
// failure is a divergence (auto-rollback); a match feeds promotion.
// Returns whether the canary's buffered rows may be delivered.
func (c *rolloutController) judge(dec *canaryDecision, sql string, can, act runOutcome) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := dec.st
	st.ShadowRuns++
	if act.err == nil {
		st.recordOracleLocked(sql, act)
	}
	switch {
	case can.err != nil && act.err == nil:
		// Canary-only failure: the active release handles this query,
		// the canary does not. That is behavioural divergence.
		if st.running() {
			st.CanaryErrors++
			c.srv.met.rolloutDivergences.Inc()
			if st.CanaryErrors > c.policy.MaxCanaryErrors {
				c.abortLocked(st, &RolloutAbortedError{
					Class: st.Class, Tag: st.Tag, Digest: st.Digest,
					Reason:    "canary execution failed where active succeeded",
					SQL:       sql,
					CanaryErr: can.err.Error(),
				})
			}
		}
		return false
	case can.err != nil:
		// Both releases failed: not the canary's fault; surface the
		// active release's error.
		return false
	case act.err != nil:
		// Canary succeeded where active failed (e.g. a site died between
		// the runs). No judgment — deliver the rows we have.
		return true
	}
	if st.running() {
		st.Comparisons++
	}
	if can.digest == act.digest {
		if st.running() {
			st.Matches++
			c.latencyAndPromotionLocked(st, can.micros, act.micros)
		}
		return true
	}
	// Result-digest divergence: the canary computed different answers.
	// The buffered active rows serve the client (byte-identical to the
	// v1 oracle), and the rollout rolls back with the evidence.
	if st.running() {
		c.srv.met.rolloutDivergences.Inc()
		c.abortLocked(st, &RolloutAbortedError{
			Class: st.Class, Tag: st.Tag, Digest: st.Digest,
			Reason:     "result digest divergence",
			SQL:        sql,
			WantDigest: act.digest,
			GotDigest:  can.digest,
		})
	}
	return false
}

// recordMatchLocked counts a clean oracle match and runs the latency
// and promotion checks.
func (c *rolloutController) recordMatchLocked(st *rolloutState, canMicros, actMicros float64) {
	if !st.running() {
		return
	}
	st.Comparisons++
	st.Matches++
	c.latencyAndPromotionLocked(st, canMicros, actMicros)
}

func (c *rolloutController) latencyAndPromotionLocked(st *rolloutState, canMicros, actMicros float64) {
	st.canaryEWMA = ewma(st.canaryEWMA, canMicros)
	st.activeEWMA = ewma(st.activeEWMA, actMicros)
	st.latencySamples++
	if st.latencySamples >= c.policy.MinSamples && st.activeEWMA > 0 &&
		st.canaryEWMA > c.policy.LatencyFactor*st.activeEWMA {
		c.srv.met.rolloutDivergences.Inc()
		c.abortLocked(st, &RolloutAbortedError{
			Class: st.Class, Tag: st.Tag, Digest: st.Digest,
			Reason: fmt.Sprintf("latency regression: canary operator self-time %.0fµs > %.1f× active %.0fµs",
				st.canaryEWMA, c.policy.LatencyFactor, st.activeEWMA),
		})
		return
	}
	if c.policy.PromoteAfter > 0 && st.Matches >= c.policy.PromoteAfter {
		c.promoteLocked(st)
	}
}

// abortLocked rolls the rollout back: the canary pointer is cleared (so
// no new query routes to the withdrawn release; in-flight canary
// queries stay pinned by digest and finish), the evidence is recorded
// for SHOW ROLLOUTS, and every site's code cache is asked — best
// effort, asynchronously — to drop the withdrawn blob by digest.
func (c *rolloutController) abortLocked(st *rolloutState, why *RolloutAbortedError) {
	if !st.running() {
		return
	}
	st.Status = rolloutAborted
	st.Abort = why
	st.EndedAt = time.Now()
	c.srv.cfg.Cat.Repo().ClearCanary(st.Class)
	c.srv.met.rolloutAborts.Inc()
	c.srv.cfg.Logf("qpc: %v", why)
	go c.srv.invalidateSites([]string{st.Digest})
}

// promoteLocked ends the rollout successfully: the canary release
// becomes the class's active version. Plans prepared before promotion
// keep their old digest refs and stay consistent; new plans pick up the
// promoted release.
func (c *rolloutController) promoteLocked(st *rolloutState) {
	if !st.running() {
		return
	}
	if _, err := c.srv.cfg.Cat.Repo().Promote(st.Class, st.Tag); err != nil {
		c.srv.cfg.Logf("qpc: promote %s@%s: %v", st.Class, st.Tag, err)
		return
	}
	st.Status = rolloutPromoted
	st.EndedAt = time.Now()
	c.srv.met.rolloutPromotions.Inc()
	c.srv.cfg.Logf("qpc: rollout promoted: %s@%s is now active after %d clean comparisons",
		st.Class, st.Tag, st.Matches)
}

// abort performs a manual ROLLBACK.
func (c *rolloutController) abort(class, reason string) (*rolloutState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.current[strings.ToLower(class)]
	if st == nil || !st.running() {
		return nil, fmt.Errorf("qpc: no running rollout for class %q", class)
	}
	c.abortLocked(st, &RolloutAbortedError{
		Class: st.Class, Tag: st.Tag, Digest: st.Digest, Reason: reason,
	})
	return st, nil
}

// promote performs a manual PROMOTE.
func (c *rolloutController) promote(class string) (*rolloutState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.current[strings.ToLower(class)]
	if st == nil || !st.running() {
		return nil, fmt.Errorf("qpc: no running rollout for class %q", class)
	}
	c.promoteLocked(st)
	if st.Status != rolloutPromoted {
		return nil, fmt.Errorf("qpc: promote %s@%s failed", st.Class, st.Tag)
	}
	return st, nil
}

// state returns the latest rollout for a class (any status).
func (c *rolloutController) state(class string) *rolloutState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.current[strings.ToLower(class)]
}

// report renders SHOW ROLLOUTS: every rollout this server has run,
// newest first, with the abort evidence when one rolled back.
func (c *rolloutController) report() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.history) == 0 {
		return "no rollouts"
	}
	var b strings.Builder
	for i := len(c.history) - 1; i >= 0; i-- {
		st := c.history[i]
		fmt.Fprintf(&b, "rollout %s@%s digest %s at %.0f%% status %s\n",
			st.Class, st.Tag, st.Digest, st.Fraction*100, st.Status)
		fmt.Fprintf(&b, "  started %s", st.StartedAt.Format(time.RFC3339))
		if !st.EndedAt.IsZero() {
			fmt.Fprintf(&b, "  ended %s", st.EndedAt.Format(time.RFC3339))
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "  canary queries %d (shadow runs %d), comparisons %d, matches %d, canary errors %d\n",
			st.CanaryRuns, st.ShadowRuns, st.Comparisons, st.Matches, st.CanaryErrors)
		if st.CanaryStaticUnits > 0 || st.ActiveStaticUnits > 0 {
			fmt.Fprintf(&b, "  static budget: canary %d units, active %d units (at %dB reference input)\n",
				st.CanaryStaticUnits, st.ActiveStaticUnits, staticCostRefBytes)
		}
		if st.Abort != nil {
			fmt.Fprintf(&b, "  abort: %s", st.Abort.Reason)
			if st.Abort.SQL != "" {
				fmt.Fprintf(&b, " on %q", st.Abort.SQL)
			}
			b.WriteString("\n")
			if st.Abort.WantDigest != "" || st.Abort.GotDigest != "" {
				fmt.Fprintf(&b, "  evidence: active result digest %s, canary result digest %s\n",
					st.Abort.WantDigest, st.Abort.GotDigest)
			}
			if st.Abort.CanaryErr != "" {
				fmt.Fprintf(&b, "  evidence: canary error: %s\n", st.Abort.CanaryErr)
			}
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

// invalidateSites asks every catalog site to drop the given release
// digests from its code cache — the fleet-wide half of a rollback.
// Best effort: a site that is down simply misses the invalidation (its
// digest-keyed cache entry is inert; nothing references it anymore).
func (s *Server) invalidateSites(digests []string) {
	var wg sync.WaitGroup
	for _, site := range s.cfg.Cat.Sites() {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			ds, err := s.openSession(ctx, name)
			if err != nil {
				s.cfg.Logf("qpc: cache invalidation at %s: %v", name, err)
				return
			}
			defer ds.close()
			payload, err := wire.EncodeXML(&wire.CodeInvalidate{Digests: digests})
			if err != nil {
				return
			}
			if err := ds.conn.Send(wire.MsgCodeInvalidate, payload); err != nil {
				s.cfg.Logf("qpc: cache invalidation at %s: %v", name, err)
				return
			}
			data, err := ds.conn.Expect(wire.MsgCodeInvalidateAck)
			if err != nil {
				s.cfg.Logf("qpc: cache invalidation at %s: %v", name, err)
				return
			}
			var ack wire.CodeInvalidateAck
			if err := wire.DecodeXML(data, &ack); err == nil && ack.Dropped > 0 {
				s.cfg.Logf("qpc: site %s dropped %d withdrawn class release(s)", name, ack.Dropped)
			}
		}(site.Name)
	}
	wg.Wait()
}

// StartRollout begins canarying a staged release: fraction of the
// queries whose plans ship the class route to it, each compared against
// the active release's behaviour.
func (s *Server) StartRollout(class, tag string, fraction float64) (string, error) {
	st, err := s.rollouts.start(class, tag, fraction)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("rollout started: %s@%s (digest %s) at %.0f%% of eligible queries",
		st.Class, st.Tag, st.Digest, st.Fraction*100), nil
}

// AbortRollout manually rolls a running rollout back.
func (s *Server) AbortRollout(class, reason string) (string, error) {
	st, err := s.rollouts.abort(class, reason)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("rollout of %s@%s rolled back", st.Class, st.Tag), nil
}

// PromoteRollout manually promotes a running rollout's canary to
// active.
func (s *Server) PromoteRollout(class string) (string, error) {
	st, err := s.rollouts.promote(class)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("rollout promoted: %s@%s is now active", st.Class, st.Tag), nil
}

// RolloutReport renders SHOW ROLLOUTS.
func (s *Server) RolloutReport() string { return s.rollouts.report() }

// RolloutAbort returns the typed abort evidence for a class's latest
// rollout, or nil when it has not aborted.
func (s *Server) RolloutAbort(class string) *RolloutAbortedError {
	st := s.rollouts.state(class)
	if st == nil {
		return nil
	}
	s.rollouts.mu.Lock()
	defer s.rollouts.mu.Unlock()
	return st.Abort
}

// RolloutStatus reports a class's latest rollout status ("running",
// "aborted", "promoted"), or "" when none was ever started.
func (s *Server) RolloutStatus(class string) string {
	st := s.rollouts.state(class)
	if st == nil {
		return ""
	}
	s.rollouts.mu.Lock()
	defer s.rollouts.mu.Unlock()
	return st.Status
}

// ReleasesReport renders the release history of one class — or of every
// class when name is empty — with tag, digest, capability manifest,
// publish time and the active/canary markers (SHOW RELEASES and the
// mocha-cli releases verbs).
func (s *Server) ReleasesReport(name string) (string, error) {
	repo := s.cfg.Cat.Repo()
	var classes []string
	if name != "" {
		if _, ok := repo.GetRelease(name, ""); !ok && len(repo.Releases(name)) == 0 {
			return "", fmt.Errorf("qpc: no class named %q in the code repository", name)
		}
		classes = []string{name}
	} else {
		classes = repo.Names()
	}
	sort.Strings(classes)
	var b strings.Builder
	for _, cls := range classes {
		rels := repo.Releases(cls)
		if len(rels) == 0 {
			continue
		}
		active, _ := repo.ActiveRelease(cls)
		canary, _ := repo.CanaryRelease(cls)
		fmt.Fprintf(&b, "class %s (%d releases)\n", rels[0].Class, len(rels))
		for _, rel := range rels {
			caps := strings.Join(rel.Caps, ",")
			if caps == "" {
				caps = "(none)"
			}
			marker := ""
			if active != nil && active.Digest == rel.Digest {
				marker = "  [active]"
			}
			if canary != nil && canary.Digest == rel.Digest {
				marker += "  [canary]"
			}
			fmt.Fprintf(&b, "  tag %-12s digest %s  caps %s  published %s%s\n",
				rel.Tag, rel.Digest, caps, rel.Published.Format(time.RFC3339), marker)
		}
	}
	if b.Len() == 0 {
		return "no classes in the code repository", nil
	}
	return strings.TrimRight(b.String(), "\n"), nil
}

// opSelfMicros sums a trace's op:* operator self-times: the per-operator
// cost signal the rollout controller compares between releases.
func opSelfMicros(tr *obs.Trace) float64 {
	if tr == nil {
		return 0
	}
	var total int64
	for _, sp := range tr.Spans() {
		if strings.HasPrefix(sp.Name, obs.SpanOpPrefix) {
			total += sp.DurMicros
		}
	}
	return float64(total)
}
