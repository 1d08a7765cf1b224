package obs

import (
	"slices"
	"strings"
)

// Metric names. Every metric the system exports is declared here and
// registered at exactly one site; the obsmetrics linter (cmd/mocha-lint)
// enforces both directions, so a dashboard can treat this file as the
// complete metric inventory. Wire metrics are per-connection-role and
// compose a role prefix ("qpc_wire", "dap_wire") with the M*Suffix
// constants below.
const (
	// DAP server (internal/dap).
	MDapSessionsOpen      = "dap_sessions_open"
	MDapSessionsTotal     = "dap_sessions_total"
	MDapActivations       = "dap_activations"
	MDapTuplesSent        = "dap_tuples_sent"
	MDapBytesSent         = "dap_bytes_sent"
	MDapCodeClassesLoaded = "dap_code_classes_loaded"
	MDapCodeCacheHits     = "dap_code_cache_hits"
	MDapExecMS            = "dap_exec_ms"
	MDapVerifyRejects     = "dap_verify_rejects"
	MDapStreamResumes     = "dap_stream_resumes"

	// DAP code-cache invalidation (release rollback): CODE_INVALIDATE
	// requests handled, and cached blobs actually dropped by digest.
	MDapCacheInvalidateRequests = "dap_cache_invalidate_requests"
	MDapCacheInvalidateDropped  = "dap_cache_invalidate_dropped"

	// MVM, counted by the DAP: invocations of shipped code and the
	// bytecode instructions they executed (summed per fragment), and what
	// compiling a class cost when it was loaded.
	MVMFastpathRuns  = "vm_fastpath_runs"
	MVMInstructions  = "vm_instructions"
	MVMCompileMicros = "vm_compile_us"

	// Shared executor memory governor and spilling operators
	// (internal/exec). One governor serves every concurrent query on a
	// server (QPC or DAP); granted/high-water track the shared pool, the
	// spill counters the operator-level pressure relief.
	MExecMemGrantedBytes   = "exec_mem_granted_bytes"
	MExecMemHighWaterBytes = "exec_mem_high_water_bytes"
	MExecMemDenied         = "exec_mem_denied"
	MExecSpillEvents       = "exec_spill_events"
	MExecSpillBytes        = "exec_spill_bytes"
	MExecSpillTuples       = "exec_spill_tuples"

	// QPC (internal/qpc).
	MQpcQueriesTotal         = "qpc_queries_total"
	MQpcQueriesFailed        = "qpc_queries_failed"
	MQpcRetries              = "qpc_retries"
	MQpcRetryBudgetExhausted = "qpc_retry_budget_exhausted"
	MQpcSessionsSalvaged     = "qpc_sessions_salvaged"
	MQpcRetryWastedCodeBytes = "qpc_retry_wasted_code_bytes"
	MQpcQueryMS              = "qpc_query_ms"
	MQpcStreamResumes        = "qpc_stream_resumes"
	MQpcResumeSavedBytes     = "qpc_resume_saved_bytes"
	MQpcRestartWastedBytes   = "qpc_restart_wasted_bytes"
	MQpcDegradedReplans      = "qpc_degraded_replans"
	MQpcBreakerOpened        = "qpc_breaker_opened"
	MQpcBreakerReclosed      = "qpc_breaker_reclosed"
	MQpcBreakerOpenSites     = "qpc_breaker_open_sites"
	MQpcReplicaFailovers     = "qpc_replica_failovers"
	MQpcHeartbeatProbes      = "qpc_heartbeat_probes"
	MQpcHeartbeatFailures    = "qpc_heartbeat_failures"

	// QPC canary-rollout controller (internal/qpc): queries routed to the
	// canary release, shadow runs of the active release for comparison,
	// result/error divergences detected, rollouts aborted (auto-rollback)
	// and rollouts promoted.
	MQpcRolloutCanaryQueries = "qpc_rollout_canary_queries"
	MQpcRolloutShadowRuns    = "qpc_rollout_shadow_runs"
	MQpcRolloutDivergences   = "qpc_rollout_divergences"
	MQpcRolloutAborts        = "qpc_rollout_aborts"
	MQpcRolloutPromotions    = "qpc_rollout_promotions"

	// QPC admission control (internal/qpc): the bounded, per-tenant-fair
	// queue in front of query execution.
	MQpcAdmissionRunning  = "qpc_admission_running"
	MQpcAdmissionQueued   = "qpc_admission_queued"
	MQpcAdmissionAdmitted = "qpc_admission_admitted"
	MQpcAdmissionRejected = "qpc_admission_rejected"
	MQpcAdmissionWaitMS   = "qpc_admission_wait_ms"

	// Network simulator (internal/netsim).
	MNetsimDials        = "netsim_dials"
	MNetsimDialsRefused = "netsim_dials_refused"
	MNetsimBytesSent    = "netsim_bytes_sent"
	MNetsimBytesRecv    = "netsim_bytes_recv"

	// Per-connection wire metrics (internal/wire), prefixed with the
	// connection role at registration time.
	MWireFramesSentSuffix    = "_frames_sent"
	MWireFramesRecvSuffix    = "_frames_recv"
	MWireBytesSentSuffix     = "_bytes_sent"
	MWireBytesRecvSuffix     = "_bytes_recv"
	MWireFrameTimeoutsSuffix = "_frame_timeouts"
)

// Operator-tree span names (internal/exec). Every operator the shared
// executor can emit spans for is declared here exactly once; the execops
// linter (cmd/mocha-lint) enforces the inventory in both directions, so
// this block is the complete operator vocabulary of EXPLAIN ANALYZE.
// Multi-instance operators get a "[i]" suffix at lowering time.
//
// SpanOpPrefix deliberately does not share the Op* naming prefix: it is
// the namespace marker consumers test with strings.HasPrefix, not an
// operator name, and the execops linter treats the Op* block as the
// exhaustive operator list.
const SpanOpPrefix = "op:"

const (
	OpRemote   = "op:remote"   // QPC remote fragment stream source
	OpScan     = "op:scan"     // DAP storage scan source
	OpPrefetch = "op:prefetch" // bounded stream prefetcher
	OpSemiJoin = "op:semijoin" // DAP semi-join key filter
	OpFilter   = "op:filter"   // predicate filter
	OpProject  = "op:project"  // projection
	OpHashJoin = "op:hashjoin" // hash join (build + probe)
	OpHashAgg  = "op:hashagg"  // hash aggregation
	OpSort     = "op:sort"     // full sort (ORDER BY without LIMIT)
	OpTopK     = "op:topk"     // bounded top-K (ORDER BY + LIMIT)
	OpLimit    = "op:limit"    // row limit
	OpEmit     = "op:emit"     // sink (client emit / batch writer)
	OpGather   = "op:gather"   // partition scatter union (concatenates part streams)

	// Spill pseudo-operators: emitted alongside a governed operator's
	// span when it overflowed its memory grant and wrote partitioned
	// runs to temp files (Grace partitions for joins, sorted raw-record
	// runs for aggregates). Tuples = spilled tuples, Batches = runs,
	// SpillBytes = run payload bytes.
	OpSpillJoin = "op:spill:join" // hash join partition/run spill
	OpSpillAgg  = "op:spill:agg"  // hash aggregate sorted-run spill
)

// Phase span names: every span that is not an operator's. The first
// block, in order, is the QPC's sequential phases — wall spans, recorded
// by Trace.Interval back to back, so they partition a query's total. The
// rest overlap them: per-site exchanges the QPC records, and the set-up
// work a DAP reports ahead of its operators. The execops linter holds
// this block to the same rules as Op*, and refuses a span recorded
// under a raw literal.
const (
	PhasePlan     = "plan"     // parse, bind, optimize (every Prepare of the query, a degraded re-plan's included)
	PhaseQueued   = "queued"   // arrival to the start of the delivered run: admission queue, a run whose rows were not delivered
	PhaseSetup    = "setup"    // sessions opened and fragments started, all sites concurrently
	PhaseKeys     = "keys"     // semi-join key exchange
	PhasePipeline = "pipeline" // the QPC's operator tree, from first pull to last row
	PhaseDrain    = "drain"    // the sites' reports read into the trace, their sessions closed

	PhaseDeploy   = "deploy"         // one site's session and START exchange, inside setup
	PhaseStream   = "stream"         // one fragment's result stream; carries its wire volume
	PhaseKeysRecv = "keys:recv"      // one site's key projection, streamed to the QPC
	PhaseKeysSend = "keys:send"      // the common keys, sent behind the fragment's own START
	PhaseResume   = "resume"         // a broken stream placed again at its serving site; tuples = the prefix it skips
	PhaseFailover = "failover"       // a broken stream placed again at a sibling replica; tuples as for resume
	PhaseCanary   = "rollout:canary" // marks a trace run on a canary release

	PhaseDapStart       = "dap:start"        // decoding the START, checking the code cache
	PhaseDapKeysInstall = "dap:keys-install" // decoding a semi-join key set into the filter
	PhaseDapDeployCode  = "dap:deploy-code"  // decode, verify, compile and cache one shipped class
	PhaseDapLower       = "dap:lower"        // binding the fragment onto an operator tree
	PhaseDapFlush       = "dap:flush"        // the last partial batch; carries the stream's wire volume
)

// WallPhases lists the QPC's sequential phases in execution order.
var WallPhases = []string{PhasePlan, PhaseQueued, PhaseSetup, PhaseKeys, PhasePipeline, PhaseDrain}

// IsWall reports whether s is one of the QPC's sequential phases.
func IsWall(s Span) bool { return s.Site == "" && slices.Contains(WallPhases, s.Name) }

// Class says which component of the paper's section 5.2 breakdown a
// span's duration is. The components are per-site work: concurrent
// sites' spans overlap in time and their durations add.
type Class uint8

const (
	ClassNone Class = iota // a container, a wait or a marker: its time is inside other spans or is nobody's work
	ClassDB                // reading tuples from a data source
	ClassCPU               // evaluating operators
	ClassNet               // blocked sending results over the network
	ClassJoin              // the QPC's hash-join build and probe
	ClassMisc              // initialisation: planning, set-up, code loading
)

// spanClass is the one place a span name becomes a time component;
// qpc.summarize reads QueryStats off it. Every Op* and Phase* name has
// an entry (the execops linter checks).
var spanClass = map[string]Class{
	PhasePlan: ClassMisc, PhaseSetup: ClassMisc,
	PhaseQueued: ClassNone, PhaseKeys: ClassNone, PhasePipeline: ClassNone, PhaseDrain: ClassNone,
	PhaseDeploy: ClassNone, PhaseStream: ClassNone, PhaseKeysRecv: ClassNone, PhaseKeysSend: ClassNone,
	PhaseResume: ClassNone, PhaseFailover: ClassNone, PhaseCanary: ClassNone,
	PhaseDapStart: ClassMisc, PhaseDapKeysInstall: ClassMisc, PhaseDapDeployCode: ClassMisc,
	PhaseDapLower: ClassMisc, PhaseDapFlush: ClassNet,

	OpScan: ClassDB, OpHashJoin: ClassJoin,
	// Receiving is the far side of a DAP's net time, already counted there.
	OpRemote: ClassNone, OpPrefetch: ClassNone, OpGather: ClassNone,
	OpSemiJoin: ClassCPU, OpFilter: ClassCPU, OpProject: ClassCPU, OpHashAgg: ClassCPU,
	OpSort: ClassCPU, OpTopK: ClassCPU, OpLimit: ClassCPU,
	// A DAP's sink writes batches to the wire; the QPC's (no site) hands
	// rows to its caller, which ClassOf books as evaluation.
	OpEmit:      ClassNet,
	OpSpillJoin: ClassNone, OpSpillAgg: ClassNone,
}

// ClassOf classifies a span by its name, less any "[i]" instance suffix.
func ClassOf(s Span) Class {
	name := s.Name
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	if name == OpEmit && s.Site == "" {
		return ClassCPU
	}
	return spanClass[name]
}
