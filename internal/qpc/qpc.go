// Package qpc implements the Query Processing Coordinator (section 3.2):
// the middle-tier component that parses and optimizes queries, deploys
// plan fragments and operator code to the DAPs, coordinates distributed
// execution (including 2-way semi-joins), evaluates the QPC-side
// operators, and streams results to clients.
package qpc

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"strings"
	"sync"
	"time"

	"mocha/internal/catalog"
	"mocha/internal/core"
	"mocha/internal/exec"
	"mocha/internal/obs"
	"mocha/internal/sqlparser"
	"mocha/internal/types"
	"mocha/internal/vm"
)

// Config configures a QPC.
type Config struct {
	// Cat is the metadata catalog (tables, sites, operators, code repo).
	Cat *catalog.Catalog
	// Dial connects to a DAP address (netsim or TCP).
	Dial func(addr string) (net.Conn, error)
	// DialContext, when set, is used instead of Dial and observes the
	// query context while the connection is established.
	DialContext func(ctx context.Context, addr string) (net.Conn, error)
	// Strategy is the operator-placement policy.
	Strategy core.Strategy
	// QueryTimeout bounds each query execution end to end; once it
	// expires every session aborts and the query fails with a
	// descriptive error. Zero leaves queries unbounded.
	QueryTimeout time.Duration
	// FrameTimeout bounds each frame read/write on QPC↔DAP connections,
	// so a stalled or dead site fails the query instead of hanging it.
	// It must exceed the longest legitimate gap between a DAP's result
	// batches. Zero leaves frame I/O unbounded.
	FrameTimeout time.Duration
	// Retry configures retry-with-backoff for the idempotent phase:
	// dialling a DAP and the START exchange that begins a fragment (a
	// repeated START replaces the execution the first one began). The
	// zero value takes DefaultRetryPolicy; MaxAttempts=1 disables retries.
	Retry RetryPolicy
	// Breaker configures the per-site circuit breaker driven by
	// transport outcomes. An open breaker re-plans the site's fragments
	// under data shipping and stops retries against it until the
	// half-open probe succeeds. The zero value takes defaults.
	Breaker BreakerPolicy
	// HeartbeatInterval, when positive, starts a background prober that
	// dials and pings every catalog site at this interval, feeding
	// the health registry between queries: a dead site's breaker trips
	// from heartbeats alone, so replica selection demotes it before any
	// query pays to discover the corpse. Stop the prober with Close.
	// Zero disables heartbeating.
	HeartbeatInterval time.Duration
	// Exec tunes the QPC-side operator-tree executor: the query-memory
	// budget shared by every concurrent query (Exec.MemBudgetBytes > 0
	// creates the server's memory governor and arms the spilling
	// operators). The zero value leaves queries ungoverned.
	Exec exec.Tuning
	// MaxConcurrent caps the queries executing simultaneously. Zero
	// disables admission control entirely (no cap, no queue).
	MaxConcurrent int
	// QueueDepth bounds how many queries may wait for a slot beyond
	// MaxConcurrent. Zero means no queue: when every slot is busy, new
	// queries are rejected immediately with AdmissionRejectedError.
	// Queued queries are admitted round-robin across tenants.
	QueueDepth int
	// Rollout tunes the canary-release controller (divergence thresholds
	// and auto-promotion). The zero value takes defaults.
	Rollout RolloutPolicy
	// Metrics receives the server's qpc_* counters and wire traffic
	// counters. Nil uses the process-wide obs.Default() registry.
	Metrics *obs.Registry
	// Logf, when set, receives diagnostic output.
	Logf func(format string, args ...any)
}

// Server is a QPC instance.
type Server struct {
	cfg      Config
	opt      *core.Optimizer
	health   *HealthRegistry
	met      qpcMetrics
	gov      *exec.Governor
	adm      *admission
	rollouts *rolloutController

	hb        *heartbeat
	closeOnce sync.Once
}

// qpcMetrics caches the server's registry handles. The retry counters
// make the PR 1 robustness layer observable: how often setup phases were
// retried, how often a query ran out of retry budget, and how much
// shipped code a failed attempt wasted.
type qpcMetrics struct {
	queriesTotal     *obs.Counter
	queriesFailed    *obs.Counter
	retries          *obs.Counter
	retryExhausted   *obs.Counter
	sessionsSalvaged *obs.Counter
	wastedCodeBytes  *obs.Counter
	queryMS          *obs.Histogram

	// Recovery counters: broken streams placed again at their serving
	// site, the bytes each re-placement (there or at a sibling) avoided
	// re-receiving (everything delivered before the cut), what the
	// recoveries' own STARTs re-sent (a semi-join's key set), and queries
	// re-planned under data shipping because a site's breaker was open.
	resumes            *obs.Counter
	resumeSavedBytes   *obs.Counter
	restartWastedBytes *obs.Counter
	degradedReplans    *obs.Counter

	// Placement counters: shard streams moved to a sibling replica
	// (at setup or mid-stream), and the background heartbeat prober's
	// probe and failure totals.
	replicaFailovers  *obs.Counter
	heartbeatProbes   *obs.Counter
	heartbeatFailures *obs.Counter

	// Canary-rollout counters: queries routed to a canary release, active
	// shadow runs performed for comparison, divergences detected (result
	// digest, canary failure, or latency regression), rollouts aborted
	// and rollouts promoted.
	rolloutCanaryQueries *obs.Counter
	rolloutShadowRuns    *obs.Counter
	rolloutDivergences   *obs.Counter
	rolloutAborts        *obs.Counter
	rolloutPromotions    *obs.Counter
}

// New creates a QPC.
func New(cfg Config) *Server {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	cfg.Retry = cfg.Retry.withDefaults()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default()
	}
	opt := core.NewOptimizer(cfg.Cat)
	opt.Strategy = cfg.Strategy
	r := cfg.Metrics
	health := newHealthRegistry(cfg.Breaker, r)
	opt.Health = health
	var gov *exec.Governor
	if cfg.Exec.MemBudgetBytes > 0 {
		gov = exec.NewGovernor(cfg.Exec.MemBudgetBytes, r)
	}
	var adm *admission
	if cfg.MaxConcurrent > 0 {
		adm = newAdmission(cfg.MaxConcurrent, cfg.QueueDepth, r)
	}
	srv := &Server{cfg: cfg, opt: opt, health: health, gov: gov, adm: adm, met: qpcMetrics{
		queriesTotal:     r.Counter(obs.MQpcQueriesTotal),
		queriesFailed:    r.Counter(obs.MQpcQueriesFailed),
		retries:          r.Counter(obs.MQpcRetries),
		retryExhausted:   r.Counter(obs.MQpcRetryBudgetExhausted),
		sessionsSalvaged: r.Counter(obs.MQpcSessionsSalvaged),
		wastedCodeBytes:  r.Counter(obs.MQpcRetryWastedCodeBytes),
		queryMS:          r.Histogram(obs.MQpcQueryMS),

		resumes:            r.Counter(obs.MQpcStreamResumes),
		resumeSavedBytes:   r.Counter(obs.MQpcResumeSavedBytes),
		restartWastedBytes: r.Counter(obs.MQpcRestartWastedBytes),
		degradedReplans:    r.Counter(obs.MQpcDegradedReplans),

		replicaFailovers:  r.Counter(obs.MQpcReplicaFailovers),
		heartbeatProbes:   r.Counter(obs.MQpcHeartbeatProbes),
		heartbeatFailures: r.Counter(obs.MQpcHeartbeatFailures),

		rolloutCanaryQueries: r.Counter(obs.MQpcRolloutCanaryQueries),
		rolloutShadowRuns:    r.Counter(obs.MQpcRolloutShadowRuns),
		rolloutDivergences:   r.Counter(obs.MQpcRolloutDivergences),
		rolloutAborts:        r.Counter(obs.MQpcRolloutAborts),
		rolloutPromotions:    r.Counter(obs.MQpcRolloutPromotions),
	}}
	srv.rollouts = newRolloutController(srv, cfg.Rollout)
	if cfg.HeartbeatInterval > 0 {
		srv.hb = startHeartbeat(srv, cfg.HeartbeatInterval)
	}
	return srv
}

// Close stops the server's background heartbeat prober, when one is
// running. Safe to call more than once; queries in flight are not
// affected.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.hb != nil {
			s.hb.stopAndWait()
		}
	})
}

// Health exposes the per-site breaker registry (operational overrides
// and SHOW HEALTH material).
func (s *Server) Health() *HealthRegistry { return s.health }

// Metrics returns the server's registry (SHOW METRICS payload).
func (s *Server) Metrics() *obs.Registry { return s.cfg.Metrics }

// Governor returns the server's shared query-memory governor, or nil
// when Exec.MemBudgetBytes left the executor ungoverned.
func (s *Server) Governor() *exec.Governor { return s.gov }

// QueryStats is the measured execution breakdown, mirroring section 5.2:
// DB, CPU, Net and Misc time components plus the volume measurements
// (CVDA, CVDT, CVRF) used throughout the evaluation. It is a view of the
// query's trace: summarize is the one place the time, volume and
// code-shipping fields are assigned.
type QueryStats struct {
	XMLName struct{} `xml:"query-stats"`

	// Time (milliseconds). Plan, deploy and total are wall clock: two of
	// the sequential phases that partition the total (the trace has them
	// all), and the total, from the query's arrival — planning counted in
	// before it — to the last site's report read. The rest is work, per
	// site and summed across the sites that did it concurrently, so it can
	// exceed the total.
	PlanMS   float64 `xml:"plan-ms"`   // parse + optimize (counted into Misc)
	DeployMS float64 `xml:"deploy-ms"` // sessions opened, fragments started (counted into Misc)
	DBMS     float64 `xml:"db-ms"`     // DAP time reading from data servers
	CPUMS    float64 `xml:"cpu-ms"`    // operator evaluation (DAPs + QPC)
	NetMS    float64 `xml:"net-ms"`    // time blocked sending data over the network
	JoinMS   float64 `xml:"join-ms"`   // QPC hash join build+probe time
	MiscMS   float64 `xml:"misc-ms"`   // initialization: plan, deploy and the DAPs' set-up steps
	TotalMS  float64 `xml:"total-ms"`  // wall clock for the whole query

	// Volumes (bytes).
	CVDA        int64 `xml:"cvda"` // data volume accessed at the sources
	CVDT        int64 `xml:"cvdt"` // data volume transmitted over the network
	ResultBytes int64 `xml:"result-bytes"`

	ResultTuples int64 `xml:"result-tuples"`

	// Code shipping work.
	CodeClassesShipped int `xml:"code-classes-shipped"`
	CodeBytesShipped   int `xml:"code-bytes-shipped"`
	CacheHits          int `xml:"cache-hits"`

	// ResultDigest is the FNV-64a digest of the result rows' wire
	// encoding, in emission order. The rollout controller compares it
	// between the canary and active releases of an operator class; it is
	// also the client-visible fingerprint for result-equality checks.
	ResultDigest string `xml:"result-digest,omitempty"`
}

// CVRF returns the measured cumulative volume reduction factor.
func (qs QueryStats) CVRF() float64 {
	if qs.CVDA == 0 {
		return 0
	}
	return float64(qs.CVDT) / float64(qs.CVDA)
}

// Result is a fully materialized query result.
type Result struct {
	Schema types.Schema
	Rows   []types.Tuple
	Stats  QueryStats
	Plan   *core.Plan
	// Trace is the query's cross-site span timeline (EXPLAIN ANALYZE
	// raw material). Its summed span NetBytes equal Stats.CVDT.
	Trace *obs.Trace
}

// Query is a prepared (parsed, bound, optimized) query.
type Query struct {
	srv  *Server
	Plan *core.Plan
	// Schema is the result schema delivered to the client.
	Schema types.Schema
	// planDur is what every Prepare of this query took: the first, and a
	// degraded-site re-plan's.
	planDur time.Duration
}

// Prepare parses, binds and optimizes a SQL query.
func (s *Server) Prepare(sql string) (*Query, error) {
	start := time.Now()
	sel, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	bound, err := core.Bind(sel, s.cfg.Cat)
	if err != nil {
		return nil, err
	}
	plan, err := s.opt.Plan(bound)
	if err != nil {
		return nil, err
	}
	return &Query{srv: s, Plan: plan, Schema: plan.ResultSchema, planDur: time.Since(start)}, nil
}

// Execute prepares and runs a query, materializing all rows.
func (s *Server) Execute(sql string) (*Result, error) {
	return s.ExecuteContext(context.Background(), sql)
}

// ExecuteContext prepares and runs a query under ctx, materializing all
// rows. The context's deadline and cancellation propagate to every DAP
// session of the query.
func (s *Server) ExecuteContext(ctx context.Context, sql string) (*Result, error) {
	q, err := s.Prepare(sql)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	stats, trace, err := q.RunTraced(ctx, func(t types.Tuple) error {
		res.Rows = append(res.Rows, t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Captured after the run: a degraded-site re-plan replaces q.Plan.
	res.Schema = q.Schema
	res.Plan = q.Plan
	res.Stats = *stats
	res.Trace = trace
	return res, nil
}

// Explain returns the optimizer's plan rendering.
func (s *Server) Explain(sql string) (string, error) {
	q, err := s.Prepare(sql)
	if err != nil {
		return "", err
	}
	return core.Explain(q.Plan), nil
}

// VerifyClass re-runs the static verification ladder on a repository
// class and renders a human-readable audit report: verdict, capability
// manifest and the verifier's static resource bounds. Classes cannot be
// published unverified, so a non-VERIFIED verdict means the stored blob
// was corrupted after publication.
func (s *Server) VerifyClass(name string) (string, error) {
	rel, ok := s.cfg.Cat.Repo().ActiveRelease(name)
	if !ok {
		return "", fmt.Errorf("qpc: no class named %q in the code repository", name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "class %s version %s checksum %s (%d bytes)\n",
		rel.Class, rel.Tag, rel.Digest, len(rel.Blob))
	prog, err := vm.Decode(rel.Blob)
	if err != nil {
		fmt.Fprintf(&b, "verdict: REJECTED (undecodable: %v)\n", err)
		return b.String(), nil
	}
	info, err := vm.Analyze(prog)
	if err != nil {
		fmt.Fprintf(&b, "verdict: REJECTED\nreason: %v\n", err)
		return b.String(), nil
	}
	b.WriteString("verdict: VERIFIED\n")
	caps := info.CapString()
	if caps == "" {
		caps = "(none)"
	}
	fmt.Fprintf(&b, "host capabilities: %s\n", caps)
	fmt.Fprintf(&b, "static bounds: stack=%d frames=%d\n", info.MaxStack, info.CallDepth)
	fmt.Fprintf(&b, "static cost: instrs=%s fixed=%d per-trip=%d scratch=%dB alloc=%s purity=%s\n",
		boundedStr(info.Cost.Bounded, info.Cost.BudgetInstrs),
		info.Cost.FixedUnits, info.Cost.PerTripUnits, info.Cost.ScratchBytes,
		boundedStr(info.Cost.AllocBounded, info.Cost.AllocBytes)+"B", info.Cost.Purity)
	for _, fi := range info.Funcs {
		fmt.Fprintf(&b, "func %s: args=%d stack=%d frames=%d ret=%s cost=%s\n",
			fi.Name, fi.NArgs, fi.MaxStack, fi.CallDepth, fi.Ret,
			boundedStr(fi.Bounded, fi.BudgetInstrs))
	}
	return b.String(), nil
}

// boundedStr renders a static budget: its value when the verifier
// bounded it, "unbounded" when the worst case is input-dependent.
func boundedStr(bounded bool, n int64) string {
	if !bounded {
		return "unbounded"
	}
	return fmt.Sprint(n)
}

// Run executes the prepared query, calling emit for each result row in
// order.
func (q *Query) Run(emit func(types.Tuple) error) (*QueryStats, error) {
	return q.RunContext(context.Background(), emit)
}

// RunContext executes the prepared query under ctx, calling emit for
// each result row in order. The configured QueryTimeout (when set) is
// layered onto the caller's context.
func (q *Query) RunContext(ctx context.Context, emit func(types.Tuple) error) (*QueryStats, error) {
	stats, _, err := q.RunTraced(ctx, emit)
	return stats, err
}

// RunTraced executes like RunContext and additionally returns the
// query's trace: the cross-site span timeline assembled from the QPC's
// own phases and every DAP session's reported spans.
//
// When a rollout is running for an operator class the plan ships, the
// query may be routed to the canary release. The routing decision is
// made exactly once, here, by hashing the query's freshly minted ID
// against the rollout fraction: everything downstream (deployment,
// stream restarts, replica failover) re-derives code from the plan's
// pinned digests, so a query never mixes releases mid-flight.
func (q *Query) RunTraced(ctx context.Context, emit func(types.Tuple) error) (*QueryStats, *obs.Trace, error) {
	start := time.Now()
	if d := q.srv.cfg.QueryTimeout; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	if adm := q.srv.adm; adm != nil {
		// One admission slot covers the whole call, including a
		// degraded-site re-plan's rerun: the retry is the same query, not
		// new load.
		if err := adm.acquire(ctx, TenantFrom(ctx)); err != nil {
			return nil, obs.NewTrace(""), err
		}
		defer adm.release()
	}
	q.srv.met.queriesTotal.Inc()
	qid := obs.NewTraceID()
	if st, plan := q.srv.rollouts.route(q.Plan, qid); st != nil {
		return q.runCanary(ctx, start, qid, st, plan, emit)
	}
	stats, trace, err := q.runRelease(ctx, start, qid, q.Plan, emit, true)
	if err != nil {
		q.srv.met.queriesFailed.Inc()
		return nil, trace, q.wrapDeadline(ctx, start, err)
	}
	q.srv.rollouts.observeActive(q.Plan, stats.ResultDigest, opSelfMicros(trace))
	return stats, trace, nil
}

// runRelease executes plan — the prepared plan, or a canary run's copy
// of it — once, hashing every emitted row into the result digest.
// arrived is when the query reached RunTraced: the trace's clock starts
// the planning time before it, so the plan span and whatever passed
// since arrival — the admission queue, an earlier run whose rows were
// not delivered — lead the wall phases. allowReplan enables the
// degraded-site re-plan fallback — canary runs disable it, because a
// re-plan re-prepares the query and would lose the pinned release.
func (q *Query) runRelease(ctx context.Context, arrived time.Time, traceID string, plan *core.Plan,
	emit func(types.Tuple) error, allowReplan bool) (*QueryStats, *obs.Trace, error) {
	h := fnv.New64a()
	var hashBuf []byte
	var result QueryStats
	counting := func(t types.Tuple) error {
		hashBuf = t.AppendTo(hashBuf[:0])
		h.Write(hashBuf)
		result.ResultTuples++
		result.ResultBytes += int64(len(hashBuf))
		return emit(t)
	}
	run := func(traceID string, plan *core.Plan) (*obs.Trace, error) {
		planned := arrived.Add(-q.planDur)
		trace := obs.NewTraceAt(traceID, planned)
		trace.Add(trace.Interval(obs.PhasePlan, "", planned, arrived))
		pe := &planExec{srv: q.srv, plan: plan, trace: trace}
		return trace, pe.run(ctx, pe.wall(obs.PhaseQueued, arrived), counting)
	}
	trace, err := run(traceID, plan)
	if err != nil && allowReplan && result.ResultTuples == 0 && ctx.Err() == nil && q.srv.replanDegraded(q) {
		// A site's breaker opened during the failed run and no rows have
		// reached the client yet: re-plan once with the health oracle's
		// current view (degraded fragments fall back to data shipping)
		// and run the new plan from scratch, on a trace of its own.
		q.srv.met.degradedReplans.Inc()
		q.srv.cfg.Logf("qpc: re-planning under degraded-site placement after: %v", err)
		trace, err = run("", q.Plan)
	}
	summarize(trace, &result)
	if err != nil {
		// What the failed run did finish, for a caller that asks.
		return &result, trace, err
	}
	result.ResultDigest = fmt.Sprintf("%016x", h.Sum64())
	q.srv.met.queryMS.Observe(int64(result.TotalMS))
	return &result, trace, nil
}

// summarize reads a finished query's time, volume and code-shipping
// figures off its trace, the only record of them: each span's duration
// goes to the component obs.ClassOf gives its name, each byte it carries
// to the volume it is a byte of. The total is the sum of the sequential
// phases, which are recorded back to back from the query's arrival; the
// work figures add up what concurrent sites did, so they may exceed it. Misc keeps the paper's
// meaning — initialisation — and so holds plan and deploy as well as the
// DAPs' set-up steps.
func summarize(trace *obs.Trace, st *QueryStats) {
	for _, s := range trace.Spans() {
		ms := float64(s.DurMicros) / 1000
		switch obs.ClassOf(s) {
		case obs.ClassDB:
			st.DBMS += ms
		case obs.ClassCPU:
			st.CPUMS += ms
		case obs.ClassNet:
			st.NetMS += ms
		case obs.ClassJoin:
			st.JoinMS += ms
		case obs.ClassMisc:
			st.MiscMS += ms
		}
		if obs.IsWall(s) {
			st.TotalMS += ms
			switch s.Name {
			case obs.PhasePlan:
				st.PlanMS += ms
			case obs.PhaseSetup:
				st.DeployMS += ms
			}
		}
		st.CVDT += s.NetBytes
		st.CVDA += s.DBBytes
		st.CodeBytesShipped += int(s.CodeBytes)
		st.CodeClassesShipped += int(s.Classes)
		st.CacheHits += int(s.CacheHits)
	}
}

// wrapDeadline annotates an execution error that was caused by the
// query deadline expiring.
func (q *Query) wrapDeadline(ctx context.Context, start time.Time, err error) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return fmt.Errorf("qpc: query aborted after %s (deadline exceeded): %w",
			time.Since(start).Round(time.Millisecond), err)
	}
	return err
}

// runCanary executes a query that routing pinned to a canary release:
// plan is the prepared plan with the canary's code ref in it. Every run
// is buffered, never streamed, and the controller settles which one the
// client gets: it only ever receives output that matches the active
// release's behaviour. A canary run whose result digest matches the
// recorded active oracle for the same SQL is delivered directly;
// otherwise an authoritative shadow run of the active release decides —
// on divergence the active rows are delivered (byte-identical to a
// no-rollout run) and the rollout auto-rolls back with the evidence.
func (q *Query) runCanary(ctx context.Context, start time.Time, qid string,
	st *rolloutState, plan *core.Plan, emit func(types.Tuple) error) (*QueryStats, *obs.Trace, error) {
	srv := q.srv
	srv.met.rolloutCanaryQueries.Inc()
	can := q.runBuffered(ctx, start, qid+"-c", plan, false)
	can.trace.Add(obs.Span{Name: obs.PhaseCanary, Site: st.Class})
	out := srv.rollouts.settle(st, q.Plan.SQL, can, nil)
	if out == nil {
		srv.met.rolloutShadowRuns.Inc()
		out = srv.rollouts.settle(st, q.Plan.SQL, can, q.runBuffered(ctx, start, qid, q.Plan, true))
	}
	if out.err != nil {
		srv.met.queriesFailed.Inc()
		return nil, out.trace, q.wrapDeadline(ctx, start, out.err)
	}
	for _, t := range out.rows {
		if err := emit(t); err != nil {
			srv.met.queriesFailed.Inc()
			return nil, out.trace, err
		}
	}
	return out.stats, out.trace, nil
}

// runBuffered runs plan once with its rows buffered for the judgment.
func (q *Query) runBuffered(ctx context.Context, arrived time.Time, traceID string, plan *core.Plan, allowReplan bool) *runOutcome {
	out := &runOutcome{}
	out.stats, out.trace, out.err = q.runRelease(ctx, arrived, traceID, plan, func(t types.Tuple) error {
		out.rows = append(out.rows, t)
		return nil
	}, allowReplan)
	out.micros = opSelfMicros(out.trace)
	if out.err == nil {
		out.digest = out.stats.ResultDigest
	}
	return out
}

// replanDegraded re-prepares q when its current plan places work at a
// site whose breaker is now open but whose fragments were planned while
// the site was healthy. It installs the fresh degraded-aware plan on q
// and reports whether anything changed (callers then rerun the query).
func (s *Server) replanDegraded(q *Query) bool {
	stale := false
	for _, f := range q.Plan.Fragments {
		// Scattered fragments never re-plan for a sick replica: replica
		// failover is their recovery path, and a partition whose whole
		// replica set is down is unavailable, not data-shippable.
		if f.PartsTotal > 0 {
			continue
		}
		if !f.Degraded && s.health.Degraded(f.Site) {
			stale = true
			break
		}
	}
	if !stale || q.Plan.SQL == "" {
		return false
	}
	q2, err := s.Prepare(q.Plan.SQL)
	if err != nil {
		return false
	}
	q.Plan = q2.Plan
	q.Schema = q2.Schema
	q.planDur += q2.planDur
	return true
}
