package qpc

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mocha/internal/core"
	"mocha/internal/exec"
	"mocha/internal/obs"
	"mocha/internal/types"
	"mocha/internal/wire"
)

// planExec drives one query execution: fragment deployment, the optional
// semi-join key exchange, remote streams, QPC-side joins and operators.
type planExec struct {
	srv  *Server
	plan *core.Plan
	// trace is the only thing a run writes its measurements to: every
	// figure the query reports is read back off it (summarize).
	trace *obs.Trace

	// ctx and budget are the execution context and the shared per-query
	// retry pool every placement of a stream (fragmentStream.place) runs
	// under, during set-up and mid-stream alike.
	ctx    context.Context
	budget *retryBudget

	// overrides maps a lower-cased class name to the code ref this run
	// must ship instead of the plan's (canary routing). Applied to the
	// built units before deployment; nil means run the plan as prepared.
	overrides map[string]core.CodeRef

	// units are the physical activations from the exec seam's site
	// binding: one per fragment for unpartitioned plans, one per
	// surviving partition for scattered fragments. readers, indexed by
	// unit, each hold the stream and the session it currently runs on.
	units   []*exec.Unit
	readers []*fragmentStream
}

// run executes the plan. began is when the run's turn came — the end of
// whatever wall phase the caller recorded last; the phases here follow
// it back to back.
func (e *planExec) run(ctx context.Context, began time.Time, emit func(types.Tuple) error) (err error) {
	// Admission: under a memory budget, reserve the plan's static
	// scratch — the verifier-derived operand-stack + frame bound of
	// every shipped class, stamped in the code refs — before any setup
	// work. A query whose shipped code cannot even frame up within the
	// budget fails here with a typed OverBudgetError instead of
	// discovering the shortfall mid-query; the reservation is held for
	// the query's lifetime so spillable operators size their grants
	// against what is genuinely left.
	if e.srv.gov != nil {
		if need := exec.StaticScratchBytes(e.plan, e.overrides); need > 0 {
			grant := e.srv.gov.Grant("admission:static-scratch")
			if aerr := grant.Acquire(ctx, need); aerr != nil {
				grant.Close()
				return fmt.Errorf("admission: static scratch reservation: %w", aerr)
			}
			defer grant.Close()
		}
	}

	// Every session of this query hangs off execCtx: when one fragment
	// fails, cancelling it immediately unblocks any frame I/O on the
	// surviving sessions so cleanup cannot hang on a sick link.
	execCtx, cancel := context.WithCancel(ctx)
	defer func() {
		if err != nil {
			cancel()
			// Salvage the measurements of fragments that did finish, so a
			// partially executed query still reports what it moved.
			for _, fs := range e.readers {
				if fs != nil && fs.EOS() != nil {
					if e.importReport(obs.PhaseStream, fs, true) == nil {
						e.srv.met.sessionsSalvaged.Inc()
					}
				}
			}
		}
		for _, fs := range e.readers {
			if fs != nil {
				fs.ds.close()
			}
		}
		cancel()
		if err == nil {
			// The last phase ends here: reports read, sessions closed.
			e.wall(obs.PhaseDrain, began)
		}
	}()

	// Phase 1: place every unit's stream (fragmentStream.place), all sites
	// concurrently (the setup wall phase, DeployMS): one request carries
	// the plan, its ack names the classes the site lacks, and the stream
	// follows the last of them. Under the 2-way semi-join of section 5.4 a
	// unit starts the projection of its fragment onto the join column
	// first. The stream ID derives from the trace ID and is the same at
	// every placement, and a START is idempotent — the DAP continues or
	// replaces a stream whose ID it already retains — so a transport
	// failure anywhere in the exchange, now or mid-stream, is answered by
	// sending it again on a fresh connection under the policy's shared
	// per-query budget.
	semiFrags := len(exec.SemiJoinParticipants(e.plan))
	if semiFrags > 0 && (semiFrags != 2 || len(e.plan.Fragments) != 2) {
		return fmt.Errorf("qpc: semi-join requires exactly two participating fragments")
	}
	policy := e.srv.cfg.Retry
	budget := newRetryBudget(policy)
	budget.retries = e.srv.met.retries
	budget.exhausted = e.srv.met.retryExhausted
	e.ctx = execCtx
	e.budget = budget
	sp := exec.BindPlan(e.plan, e.srv.health.PickReplica)
	sp.ApplyOverrides(e.overrides)
	e.units = sp.Units
	e.readers = make([]*fragmentStream, len(e.units))
	errs := make([]error, len(e.units))
	var wg sync.WaitGroup
	for i := range e.units {
		wg.Add(1)
		go func(i int, u *exec.Unit) {
			defer wg.Done()
			fs := &fragmentStream{e: e, unit: u, id: fmt.Sprintf("%s/%d", e.trace.ID, i), keyPhase: u.Frag.SemiJoinCol >= 0}
			if errs[i] = fs.place(nil); errs[i] == nil {
				e.readers[i] = fs
			}
		}(i, e.units[i])
	}
	wg.Wait()
	began = e.wall(obs.PhaseSetup, began)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Phase 2, semi-join plans only: the key exchange, after which each
	// unit's session runs the fragment proper.
	if semiFrags > 0 {
		if err := e.exchangeKeys(); err != nil {
			return err
		}
		began = e.wall(obs.PhaseKeys, began)
	}

	// Phase 3: lower the plan's QPC-side work (joins, predicates,
	// aggregation, projection, ordering, limit) onto the fragment streams
	// and run the shared operator tree: hash-join build sides build
	// concurrently while bounded prefetchers overlap compute with network
	// receive. On error the execution context is cancelled before the
	// tree closes, so goroutine joins don't drain healthy streams of an
	// already-failed query.
	binder := core.NativeBinder{Reg: e.srv.cfg.Cat.Ops()}
	// Feeds group by plan fragment: a scattered fragment contributes one
	// feed per surviving partition (unioned by a Gather in partition
	// order); a fully pruned fragment contributes none and lowers to an
	// empty stream.
	pulls := make([][]exec.PullFunc, len(e.plan.Fragments))
	for i, fs := range e.readers {
		fi := e.units[i].FragIdx
		pulls[fi] = append(pulls[fi], fs.Next)
	}
	tree, perr := exec.LowerPlan(e.plan, binder, pulls, emit, e.srv.cfg.Exec, e.srv.gov)
	if perr == nil {
		perr = exec.Run(execCtx, tree, func(error) { cancel() })
		e.trace.Add(tree.Spans("", e.trace.Since(began))...)
	}
	began = e.wall(obs.PhasePipeline, began)
	if perr != nil {
		return perr
	}

	// Phase 4: read every fragment stream's report into the trace.
	for i, r := range e.readers {
		// Under LIMIT the stream may not be fully consumed; skip stats
		// for unfinished readers rather than block.
		if r.EOS() == nil {
			for {
				tup, err := r.Next()
				if err != nil {
					return err
				}
				if tup == nil {
					break
				}
			}
		}
		if err := e.importReport(obs.PhaseStream, r, true); err != nil {
			return fmt.Errorf("qpc: stats from fragment %d: %w", i, err)
		}
	}
	return nil
}

// wall records [from, now) as one of the query's sequential phases and
// returns now, where the next one begins: the wall spans leave no gap, so
// they sum to the query's total.
func (e *planExec) wall(name string, from time.Time) time.Time {
	now := time.Now()
	e.trace.Add(e.trace.Interval(name, "", from, now))
	return now
}

// exchangeKeys runs the semi-join key exchange: both sites' key
// projections, started in phase 1, are read concurrently; their
// intersection then rides behind each fragment's own START on the
// session that produced its keys.
func (e *planExec) exchangeKeys() error {
	var keySets [2][]types.Tuple
	var keyErrs [2]error
	var kwg sync.WaitGroup
	for i := 0; i < 2; i++ {
		kwg.Add(1)
		go func(i int) {
			defer kwg.Done()
			keySets[i], keyErrs[i] = readKeys(e.readers[i].r)
		}(i)
	}
	kwg.Wait()
	for i, fs := range e.readers {
		// The key scans' time counts and the keys really cross the network,
		// but what a key scan read is bookkeeping, not the experiment's
		// logical volume accessed.
		err := keyErrs[i]
		if err == nil {
			err = e.importReport(obs.PhaseKeysRecv, fs, false)
		}
		if err != nil {
			return fmt.Errorf("qpc: key phase at %s: %w", fs.ds.site, err)
		}
	}
	common := intersectKeys(keySets[0], keySets[1])
	e.srv.cfg.Logf("qpc: semi-join keys: %d ∩ %d = %d", len(keySets[0]), len(keySets[1]), len(common))
	for _, fs := range e.readers {
		// Key delivery is real data movement: the span's NetBytes are CVDT.
		// The stream keeps the set: every later placement sends it again.
		fs.keyPhase, fs.keys = false, common
		span := e.trace.Begin(obs.PhaseKeysSend, fs.ds.site)
		if _, err := fs.start(fs.ds, 0, &span.Span); err != nil {
			return err
		}
		span.End()
	}
	return nil
}

// importReport reads the report that ended fs's stream into the trace,
// consuming the payload so each report is imported once (the error path
// re-walks the readers to salvage the finished ones): the QPC-side span
// of the phase, from when its START was sent to now, and the DAP's
// spans, whose clock started at that START's arrival, re-anchored onto
// it. Each byte stays on one span, so the query's volumes are plain sums
// over the trace: the wire volume moves to the QPC-side span; the DAP's
// code-shipping counts go, the QPC's deploy span having counted the same
// classes as it sent them; source reads stay where they are if keepDB
// (they are CVDA) and go otherwise. A scattered unit's report must echo
// the shard coordinates its START carried — a mismatch means the gather
// would silently union the wrong partition.
func (e *planExec) importReport(name string, fs *fragmentStream, keepDB bool) error {
	if fs.r.EOSPayload == nil {
		return fmt.Errorf("qpc: fragment stream ended without stats")
	}
	var es wire.ExecStats
	if err := wire.DecodeXML(fs.r.EOSPayload, &es); err != nil {
		return err
	}
	fs.r.EOSPayload = nil
	if u := fs.unit; u.Of > 0 && (es.Part != u.Part || es.Of != u.Of) {
		return fmt.Errorf("qpc: stream from %s reported shard %d/%d, activated as %d/%d",
			es.Site, es.Part, es.Of, u.Part, u.Of)
	}
	phase := obs.Span{Name: name, Site: fs.ds.site, StartMicros: fs.startOff,
		DurMicros: max(e.trace.Since(time.Now())-fs.startOff, 0)}
	for i := range es.Spans {
		s := &es.Spans[i]
		s.StartMicros += fs.startOff
		if s.NetBytes > 0 {
			phase.NetBytes += s.NetBytes
			phase.Tuples += s.Tuples
		}
		s.NetBytes, s.CodeBytes, s.Classes, s.CacheHits = 0, 0, 0, 0
		if !keepDB {
			s.DBBytes = 0
		}
	}
	e.trace.Add(append(es.Spans, phase)...)
	return nil
}
