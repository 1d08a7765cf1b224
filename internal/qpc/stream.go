package qpc

import (
	"fmt"
	"strings"
	"time"

	"mocha/internal/core"
	"mocha/internal/exec"
	"mocha/internal/obs"
	"mocha/internal/types"
	"mocha/internal/wire"
)

// fragmentStream is a fragment's result stream with incremental
// recovery: when the connection dies mid-stream it reconnects and sends
// RESUME so the DAP continues from the last frame the QPC holds,
// re-receiving at most the DAP's replay window. Only when the window
// has evicted past that point does it fall back to a full restart of
// the fragment (discarding the duplicate prefix tuple-by-tuple).
type fragmentStream struct {
	e    *planExec
	frag *core.Fragment
	id   string
	ds   *dapSession
	r    *wire.BatchReader
	// unit is the activation this stream serves; a scattered unit with
	// sibling replicas can fail over to one when its serving replica
	// dies or trips its breaker.
	unit *exec.Unit

	// startOff is when the stream's latest START was sent, in
	// microseconds on the query's trace timeline: its stream span begins
	// there and the DAP's spans, relative to that START, re-anchor onto it.
	startOff int64

	delivered int64 // tuples handed to the pipeline
	rxBytes   int64 // payload bytes of delivered tuples
	// skipTuples discards the duplicate prefix after a full restart.
	skipTuples int64
	restarts   int
}

// Next returns the next tuple, or (nil, nil) at end of stream,
// recovering from transient failures.
func (fs *fragmentStream) Next() (types.Tuple, error) {
	for {
		tup, err := fs.r.Next()
		if err != nil {
			if !transientErr(err) {
				return nil, err
			}
			if rerr := fs.recover(err); rerr != nil {
				return nil, rerr
			}
			continue
		}
		if tup == nil {
			return nil, nil
		}
		if fs.skipTuples > 0 {
			fs.skipTuples--
			fs.e.srv.met.restartWastedBytes.Add(int64(tup.WireSize()))
			continue
		}
		fs.delivered++
		fs.rxBytes += int64(tup.WireSize())
		return tup, nil
	}
}

// EOS returns the stream's terminating stats payload, nil while it is
// still open.
func (fs *fragmentStream) EOS() []byte { return fs.r.EOSPayload }

// recover reconnects after a transient mid-stream failure and resumes
// (or, when the DAP's window has evicted, restarts) the stream. A
// scattered stream whose serving replica is beyond saving — breaker
// open, retry budget dry, or resume exhausted — fails over to a sibling
// replica instead of failing the query.
func (fs *fragmentStream) recover(cause error) error {
	e := fs.e
	site := fs.frag.Site
	health := e.srv.health
	health.ReportFailure(site, cause)
	if health.FailFast(site) {
		if fs.canFailover() {
			return fs.failover(cause)
		}
		return fmt.Errorf("qpc: fragment stream at %s interrupted and breaker open: %w", site, cause)
	}
	if !e.budget.take() {
		if fs.canFailover() {
			return fs.failover(cause)
		}
		return &BudgetExhaustedError{Op: fmt.Sprintf("qpc: resuming stream at %s", site), Last: cause}
	}

	span := e.trace.Begin(obs.PhaseResume, site)
	defer span.End()
	fs.ds.abandon()

	// Reconnect and ask to resume; dial refusals and drops before the
	// ack retry under the shared policy and budget.
	lastSeq := fs.r.Seq
	var ds *dapSession
	var ack wire.ResumeAck
	what := fmt.Sprintf("qpc: resume stream at %s", site)
	err := retryTransient(e.ctx, e.srv.cfg.Retry, e.budget, health, site, what, func() error {
		var err error
		ds, err = e.srv.openSession(e.ctx, site)
		if err != nil {
			return err
		}
		if ack, err = ds.resume(fs.id, lastSeq); err != nil {
			ds.abandon()
			return err
		}
		return nil
	})
	if err != nil {
		e.srv.met.resumeFailed.Inc()
		if fs.canFailover() {
			return fs.failover(err)
		}
		return err
	}
	fs.ds = ds

	if ack.OK {
		// Continue in place: a fresh reader that discards the replayed
		// frames up to lastSeq, keeping any tuples the old reader had
		// decoded but not yet delivered. It starts at lastSeq, so if this
		// connection dies before delivering a frame the next resume still
		// asks for the right point, not for the stream's beginning.
		nr := wire.NewBatchReader(ds.conn, fs.frag.OutSchema)
		nr.SkipUntil = lastSeq
		nr.Seq = lastSeq
		carryOver(fs.r, nr)
		fs.r = nr
		e.srv.met.resumes.Inc()
		// Every byte already received is a byte a replay-from-scratch
		// would have re-sent: that is the resume's saving.
		e.srv.met.resumeSavedBytes.Add(fs.rxBytes)
		e.srv.cfg.Logf("qpc: stream %s resumed at %s past seq %d", fs.id, site, lastSeq)
		return nil
	}

	// Window evicted (or stream expired): full restart on the fresh
	// session under a new stream ID, skipping the rows already delivered.
	e.srv.met.resumeFailed.Inc()
	e.srv.cfg.Logf("qpc: stream %s at %s cannot resume (%s); restarting fragment", fs.id, site, ack.Reason)
	return fs.restart(ds)
}

// restart starts the fragment again from scratch under a new stream ID
// after a failed resume, arranging for the already-delivered prefix to
// be discarded. The rows a fragment emits are deterministic, so skipping
// exactly the delivered count resumes the pipeline without duplicates.
func (fs *fragmentStream) restart(ds *dapSession) error {
	e := fs.e
	if fs.frag.SemiJoinCol >= 0 {
		return fmt.Errorf("qpc: fragment at %s lost its semi-join stream past the replay window; cannot restart", fs.frag.Site)
	}
	// Re-shipped classes are recovery overhead, not query work: they are
	// counted into a span no trace holds and go to the process
	// wasted-bytes metric, like an aborted setup attempt.
	var scratch obs.Span
	newID := fmt.Sprintf("%s~r%d", fs.id, fs.restarts+1)
	r, err := fs.start(ds, fs.frag, newID, nil, &scratch)
	e.srv.met.wastedCodeBytes.Add(scratch.CodeBytes)
	if err != nil {
		return err
	}
	fs.restarts++
	fs.id = newID
	fs.r = r
	fs.skipTuples = fs.delivered
	e.trace.Add(obs.Span{Name: obs.PhaseRestart, Site: fs.frag.Site,
		StartMicros: e.trace.Since(time.Now()), Tuples: fs.delivered})
	return nil
}

// carryOver moves tuples the old reader decoded but had not yet
// delivered into the new reader, so a resume loses nothing.
func carryOver(old, next *wire.BatchReader) {
	if rest := old.Pending(); len(rest) > 0 {
		next.Prime(rest)
	}
}

// canFailover reports whether the stream may abandon its serving
// replica for a sibling: it must be a scattered shard with siblings,
// and not a semi-join participant (its key exchange cannot be replayed
// against a different site — unreachable today, as the optimizer never
// plans semi-joins over placed tables).
func (fs *fragmentStream) canFailover() bool {
	return len(fs.unit.Replicas) > 1 && fs.frag.SemiJoinCol < 0
}

// failover demotes the stream's serving replica and restarts the shard
// on a sibling: fresh session, a new START, and a full replay with the
// already-delivered prefix discarded tuple-by-tuple — the PR 3 restart
// machinery pointed at a different site. Rows a shard
// emits are deterministic and identical across replicas, so the
// pipeline observes one uninterrupted stream. Every sibling dead or
// fail-fast yields a typed partition-unavailable error.
func (fs *fragmentStream) failover(cause error) error {
	e := fs.e
	u := fs.unit
	from := fs.frag.Site
	health := e.srv.health
	table := e.plan.Fragments[u.FragIdx].Table
	span := e.trace.Begin(obs.PhaseFailover, from)
	defer span.End()
	fs.ds.abandon()
	lastErr := cause
	for _, sib := range u.Replicas {
		if sib == from || health.FailFast(sib) {
			continue
		}
		if e.ctx.Err() != nil {
			break
		}
		ds, err := e.srv.openSession(e.ctx, sib)
		if err != nil {
			health.ReportFailure(sib, err)
			lastErr = err
			continue
		}
		fs.frag.Site = sib
		if err := fs.restart(ds); err != nil {
			ds.close()
			health.ReportFailure(sib, err)
			fs.frag.Site = from
			lastErr = err
			continue
		}
		fs.ds = ds
		e.srv.met.replicaFailovers.Inc()
		e.srv.cfg.Logf("qpc: partition %d of %s failed over from %s to %s", u.Part, table, from, sib)
		return nil
	}
	return &PartitionUnavailableError{Table: table, Part: u.Part, Sites: u.Replicas, Last: lastErr}
}

// PartitionUnavailableError marks a query that failed because one shard
// of a partitioned table could not be served by any replica — the
// serving replica died mid-stream (or never answered) and every
// sibling was dead or fail-fast too. It unwraps to the last transport
// failure.
type PartitionUnavailableError struct {
	// Table is the logical (partitioned) table name.
	Table string
	// Part is the partition whose replica set was exhausted.
	Part int
	// Sites lists the replica sites that were tried or skipped.
	Sites []string
	// Last is the final transport failure.
	Last error
}

func (e *PartitionUnavailableError) Error() string {
	return fmt.Sprintf("qpc: partition %d of %s unavailable on every replica (%s): %v",
		e.Part, e.Table, strings.Join(e.Sites, ", "), e.Last)
}

func (e *PartitionUnavailableError) Unwrap() error { return e.Last }
