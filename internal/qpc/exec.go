package qpc

import (
	"context"
	"fmt"
	"strings"
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
	srv   *Server
	plan  *core.Plan
	stats *QueryStats
	trace *obs.Trace

	// ctx and budget are the execution context and the shared per-query
	// retry pool, held here so mid-stream recovery (fragmentStream) can
	// retry its reconnects under the same limits as the setup phases.
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

func (e *planExec) run(ctx context.Context, emit func(types.Tuple) error) (err error) {
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
			for i, fs := range e.readers {
				if fs != nil && fs.EOS() != nil {
					if e.drainFragment(i, fs.r, true) == nil {
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
	}()

	// Phase 1: open a session per unit and START its fragment, all sites
	// concurrently (all Misc/Deploy time): one request carries the plan,
	// its ack names the classes the site lacks, and the stream follows
	// the last of them. Under the 2-way semi-join of section 5.4 a unit
	// starts the projection of its fragment onto the join column first.
	// A START is idempotent — the DAP replaces a stream whose ID it
	// already retains — so a transport failure anywhere in the exchange
	// retries on a fresh connection under the policy's shared per-query
	// budget.
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
	err = timedPhase(e.stats, func() error {
		sp := exec.BindPlan(e.plan, e.srv.health.PickReplica)
		sp.ApplyOverrides(e.overrides)
		e.units = sp.Units
		e.readers = make([]*fragmentStream, len(e.units))
		partials := make([]QueryStats, len(e.units))
		errs := make([]error, len(e.units))
		var wg sync.WaitGroup
		for i := range e.units {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = e.setupUnit(execCtx, i, &partials[i])
			}(i)
		}
		wg.Wait()
		for i := range errs {
			e.stats.mergeCodeShipping(&partials[i])
			if errs[i] != nil {
				return errs[i]
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Phase 2, semi-join plans only: the key exchange, after which each
	// unit's session runs the fragment proper.
	if semiFrags > 0 {
		if err := e.exchangeKeys(); err != nil {
			return err
		}
	}

	// Phase 4: lower the plan's QPC-side work (joins, predicates,
	// aggregation, projection, ordering, limit) onto the fragment streams
	// and run the shared operator tree: hash-join build sides build
	// concurrently while bounded prefetchers overlap compute with network
	// receive (serial under Tuning.Serial). On error the execution
	// context is cancelled before the tree closes, so goroutine joins
	// don't drain healthy streams of an already-failed query.
	span := e.trace.Begin("pipeline", "")
	pipeOff := e.trace.Since(time.Now())
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
	countEmit := func(t types.Tuple) error {
		e.stats.ResultTuples++
		e.stats.ResultBytes += int64(t.WireSize())
		return emit(t)
	}
	tree, perr := exec.LowerPlan(e.plan, binder, pulls, countEmit, e.srv.cfg.Exec, e.srv.gov)
	if perr == nil {
		perr = exec.Run(execCtx, tree, func(error) { cancel() })
		e.foldTree(tree, pipeOff)
	}
	span.End()
	if perr != nil {
		return perr
	}

	// Phase 5: drain stats from every fragment stream.
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
		if err := e.drainFragment(i, r.r, true); err != nil {
			return fmt.Errorf("qpc: stats from fragment %d: %w", i, err)
		}
	}
	return nil
}

// exchangeKeys runs the semi-join key exchange: both sites' key
// projections, started in phase 1, are read concurrently; their
// intersection then rides behind each fragment's own START on the
// session that produced its keys.
func (e *planExec) exchangeKeys() error {
	var keySets [2][]types.Tuple
	var keyStats [2]QueryStats
	var keyES [2]*wire.ExecStats
	var keyErrs [2]error
	var kwg sync.WaitGroup
	for i := 0; i < 2; i++ {
		kwg.Add(1)
		go func(i int) {
			defer kwg.Done()
			keySets[i], keyES[i], keyErrs[i] = readKeys(e.readers[i].r, &keyStats[i])
		}(i)
	}
	kwg.Wait()
	for i, fs := range e.readers {
		e.stats.mergeTimesAndVolumes(&keyStats[i])
		if keyES[i] != nil {
			e.recordRemoteSpans("keys:recv", fs.ds.site, keyES[i], fs.startOff)
		}
		if keyErrs[i] != nil {
			return fmt.Errorf("qpc: key phase at %s: %w", fs.frag.Site, keyErrs[i])
		}
	}
	common := intersectKeys(keySets[0], keySets[1])
	e.srv.cfg.Logf("qpc: semi-join keys: %d ∩ %d = %d", len(keySets[0]), len(keySets[1]), len(common))
	// Key delivery is real data movement: count it into CVDT.
	var keyBytes int64
	for _, k := range common {
		keyBytes += int64(k.WireSize())
	}
	for _, fs := range e.readers {
		span := e.trace.Begin("keys:send", fs.ds.site)
		r, err := fs.start(fs.ds, fs.frag, fs.id, common, e.stats)
		if err != nil {
			return err
		}
		fs.r = r
		e.stats.CVDT += keyBytes
		span.AddBytes(keyBytes, 0, 0)
		span.AddTuples(int64(len(common)))
		span.End()
	}
	return nil
}

// setupUnit opens unit i's session and starts its fragment — under a
// semi-join, the fragment's key projection — retrying transient failures
// under the shared policy. The stream ID derives from the trace ID and
// is the same on every attempt, so an attempt that died after the DAP
// began to run is replaced, not duplicated. A partitioned unit that
// exhausts its chosen replica walks the rest of its replica ladder (each
// hop is a replica failover) before giving up with a typed
// partition-unavailable error.
func (e *planExec) setupUnit(execCtx context.Context, i int, partial *QueryStats) error {
	u := e.units[i]
	fs := &fragmentStream{e: e, frag: u.Frag, id: fmt.Sprintf("%s/%d", e.trace.ID, i), unit: u}
	first, firstID := u.Frag, fs.id
	if u.Frag.SemiJoinCol >= 0 {
		first, firstID = keyFragment(u.Frag), fs.id+"/keys"
	}
	var lastErr error
	for ci, site := range u.Replicas {
		if ci > 0 {
			if execCtx.Err() != nil {
				break
			}
			u.Frag.Site = site
			e.srv.met.replicaFailovers.Inc()
			e.srv.cfg.Logf("qpc: partition %d of %s failing over setup from %s to %s",
				u.Part, e.plan.Fragments[u.FragIdx].Table, u.Replicas[ci-1], site)
		}
		what := fmt.Sprintf("qpc: session setup at %s", site)
		err := retryTransient(execCtx, e.srv.cfg.Retry, e.budget, e.srv.health, site, what, func() error {
			// A retried attempt starts its accounting from scratch:
			// the aborted attempt's cache checks and shipped classes
			// must not inflate the query's counters (the shipped
			// bytes it wasted go to a process metric instead).
			if *partial != (QueryStats{}) {
				e.srv.met.wastedCodeBytes.Add(int64(partial.CodeBytesShipped))
				*partial = QueryStats{}
			}
			span := e.trace.Begin("deploy", site)
			ds, err := e.srv.openSession(execCtx, site)
			if err != nil {
				return err
			}
			if fs.r, err = fs.start(ds, first, firstID, nil, partial); err != nil {
				ds.close()
				return err
			}
			span.AddBytes(0, 0, int64(partial.CodeBytesShipped))
			span.End()
			fs.ds = ds
			e.readers[i] = fs
			return nil
		})
		if err == nil {
			return nil
		}
		lastErr = err
	}
	if u.Of > 0 {
		return &PartitionUnavailableError{
			Table: e.plan.Fragments[u.FragIdx].Table,
			Part:  u.Part, Sites: u.Replicas, Last: lastErr,
		}
	}
	return lastErr
}

// drainFragment folds one unit stream's EOS report into the query
// stats and records its trace spans: a QPC-side stream span carrying the
// fragment's wire volume, plus the DAP's own spans re-anchored onto the
// query timeline. A scattered unit's report must echo the shard
// coordinates its activation carried — a mismatch means the gather
// would silently union the wrong partition.
func (e *planExec) drainFragment(i int, r *wire.BatchReader, countVolumes bool) error {
	es, err := drainStats(r, e.stats, countVolumes)
	if err != nil {
		return err
	}
	if u := e.units[i]; u.Of > 0 && (es.Part != u.Part || es.Of != u.Of) {
		return fmt.Errorf("qpc: stream from %s reported shard %d/%d, activated as %d/%d",
			es.Site, es.Part, es.Of, u.Part, u.Of)
	}
	e.recordRemoteSpans("stream", es.Site, es, e.readers[i].startOff)
	return nil
}

// recordRemoteSpans records the QPC-side span for a remote phase and
// imports the DAP's spans from its EOS report. startOff is when the
// phase's START was sent: the QPC-side span begins there, and the DAP's
// spans, whose clock started when the START arrived, are re-anchored
// onto it. The QPC-side span alone carries the phase's network volume;
// imported spans have their NetBytes cleared so summing the trace's
// NetBytes reproduces exactly the CVDT the stats accumulated — each wire
// byte is counted by one span.
func (e *planExec) recordRemoteSpans(name, site string, es *wire.ExecStats, startOff int64) {
	dur := e.trace.Since(time.Now()) - startOff
	if dur < 0 {
		dur = 0
	}
	e.trace.Add(obs.Span{
		Name: name, Site: site,
		StartMicros: startOff, DurMicros: dur,
		NetBytes: es.BytesSent, Tuples: es.TuplesSent,
	})
	for _, s := range es.Spans {
		s.StartMicros += startOff
		s.NetBytes = 0
		e.trace.Add(s)
	}
}

// foldTree folds the finished tree's per-operator accounting into the
// query stats and records one trace span per operator. Join self time
// (build inserts + probes) goes to JoinMS; evaluation operators go to
// CPUMS; source, prefetch and gather self time is network wait, already
// reported as the DAPs' send time. Operator spans never carry NetBytes, so the
// trace's span-sum == CVDT invariant is preserved by construction.
func (e *planExec) foldTree(tree *exec.Tree, startOff int64) {
	for _, op := range tree.Ops {
		st := op.Stats()
		ms := float64(st.Self.Microseconds()) / 1000
		switch {
		case strings.HasPrefix(st.Name, obs.OpHashJoin):
			e.stats.JoinMS += ms
		case strings.HasPrefix(st.Name, obs.OpRemote), strings.HasPrefix(st.Name, obs.OpPrefetch),
			strings.HasPrefix(st.Name, obs.OpGather):
		default:
			e.stats.CPUMS += ms
		}
		e.trace.Add(obs.Span{
			Name: st.Name, StartMicros: startOff,
			DurMicros: st.Self.Microseconds(),
			Tuples:    st.RowsOut, RowsIn: st.RowsIn, Batches: st.Batches,
			SpillBytes: st.SpillBytes,
		})
		addSpillSpan(e.trace, st, startOff)
	}
}

// addSpillSpan records the spill pseudo-span for an operator that
// overflowed its memory grant: Tuples = spilled tuples, Batches = runs
// written, SpillBytes = run payload bytes.
func addSpillSpan(tr *obs.Trace, st *exec.OpStats, startOff int64) {
	if st.Spills == 0 {
		return
	}
	name := obs.OpSpillJoin
	if strings.HasPrefix(st.Name, obs.OpHashAgg) {
		name = obs.OpSpillAgg
	}
	tr.Add(obs.Span{
		Name: name, StartMicros: startOff,
		Tuples: st.SpillTuples, Batches: st.Spills, SpillBytes: st.SpillBytes,
	})
}
