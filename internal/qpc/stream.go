package qpc

import (
	"fmt"
	"strings"
	"time"

	"mocha/internal/exec"
	"mocha/internal/obs"
	"mocha/internal/types"
	"mocha/internal/wire"
)

// fragmentStream is one unit's result stream and the session it runs on.
// The stream gets its connection from place, first and every time after:
// when the connection dies mid-stream, place sends the same START again,
// saying how many tuples the QPC has already delivered, and the DAP that
// receives it runs the fragment from the beginning and sends only the
// tuples after those.
type fragmentStream struct {
	e *planExec
	// unit is the activation this stream serves. unit.Replicas is the
	// ladder place walks, the serving site first; unit.Frag is what START
	// sends there.
	unit *exec.Unit
	id   string
	ds   *dapSession
	r    *wire.BatchReader

	// keyPhase marks a semi-join stream that is still running its
	// fragment's projection onto the join column; keys is the intersected
	// key set that rides behind every START of the fragment proper.
	keyPhase bool
	keys     []types.Tuple

	// startOff is when the START of the execution now streaming was sent,
	// in microseconds on the query's trace timeline: its stream span
	// begins there and the DAP's spans, relative to that START, re-anchor
	// onto it.
	startOff int64

	delivered int64 // tuples handed to the pipeline: what a re-placed START skips
	rxBytes   int64 // payload bytes of delivered tuples
}

// Next returns the next tuple, or (nil, nil) at end of stream, placing
// the stream anew after a transient failure.
func (fs *fragmentStream) Next() (types.Tuple, error) {
	for {
		tup, err := fs.r.Next()
		if err != nil {
			if !transientErr(err) {
				return nil, err
			}
			if perr := fs.place(err); perr != nil {
				return nil, perr
			}
			continue
		}
		if tup == nil {
			return nil, nil
		}
		fs.delivered++
		fs.rxBytes += int64(tup.WireSize())
		return tup, nil
	}
}

// EOS returns the stream's terminating stats payload, nil while it is
// still open.
func (fs *fragmentStream) EOS() []byte { return fs.r.EOSPayload }

// place puts the stream on a connection; no stream gets one any other
// way (DESIGN §8). cause is the transient failure that took the last
// connection, nil for a stream that has had none. The ladder is the
// unit's replica set, the serving site first: each rung is one START
// exchange on a fresh session under the shared retry policy, budget and
// breaker, and once something has failed — the stream, or the rung
// before — a rung costs one retry token and a site whose breaker is open
// is passed over. The START names the same stream ID at every attempt
// and the count of tuples already delivered; whichever site answers runs
// the fragment from its beginning and skips that prefix — rows are
// deterministic and identical across replicas, so the pipeline sees one
// unbroken stream. A partitioned unit that runs out of rungs fails with
// a typed partition-unavailable error.
func (fs *fragmentStream) place(cause error) error {
	e, u := fs.e, fs.unit
	health, met := e.srv.health, &e.srv.met
	table := e.plan.Fragments[u.FragIdx].Table
	began := time.Now()
	lastErr := cause
	if cause != nil {
		health.ReportFailure(u.Replicas[0], cause)
		fs.ds.abandon()
	}
	for i, site := range u.Replicas {
		what := fmt.Sprintf("qpc: placing stream %s at %s", fs.id, site)
		if lastErr != nil {
			if e.ctx.Err() != nil {
				break
			}
			if health.FailFast(site) {
				lastErr = fmt.Errorf("qpc: stream %s: breaker open at %s: %w", fs.id, site, lastErr)
				continue
			}
			if !e.budget.take() {
				lastErr = &BudgetExhaustedError{Op: what, Last: lastErr}
				break
			}
		}
		if i > 0 {
			u.Frag.Site = site
		}
		err := retryTransient(e.ctx, e.srv.cfg.Retry, e.budget, health, site, what, func() error {
			// Each attempt counts into a span of its own, and only a stream's
			// first placement records it: what an aborted attempt or a
			// recovery checks, ships and re-sends never reaches the query's
			// figures (the bytes go to process metrics).
			span := e.trace.Begin(obs.PhaseDeploy, site)
			ds, err := e.srv.openSession(e.ctx, site)
			if err == nil {
				if err = fs.start(ds, &span.Span); err != nil {
					ds.abandon()
				}
			}
			if err == nil && cause == nil {
				span.End()
			} else {
				met.wastedCodeBytes.Add(span.CodeBytes)
				met.restartWastedBytes.Add(span.NetBytes)
			}
			if err != nil {
				return err
			}
			fs.ds = ds
			return nil
		})
		if err != nil {
			lastErr = err
			continue
		}
		if i > 0 {
			met.replicaFailovers.Inc()
			e.srv.cfg.Logf("qpc: partition %d of %s failed over from %s to %s", u.Part, table, u.Replicas[0], site)
			u.Replicas[0], u.Replicas[i] = site, u.Replicas[0]
		}
		if cause == nil {
			return nil
		}
		// The recovery's span is named for where the stream went, and says
		// how long a prefix the DAP skips. Every byte delivered before the
		// cut is a byte that no longer crosses the wire: that is the saving.
		outcome := e.trace.Interval(obs.PhaseResume, site, began, time.Now())
		outcome.Tuples = fs.delivered
		if i > 0 {
			outcome.Name = obs.PhaseFailover
		} else {
			met.resumes.Inc()
		}
		met.resumeSavedBytes.Add(fs.rxBytes)
		e.trace.Add(outcome)
		e.srv.cfg.Logf("qpc: stream %s: %s at %s after %d tuples (%v)", fs.id, outcome.Name, site, fs.delivered, cause)
		return nil
	}
	if u.Of > 0 {
		return &PartitionUnavailableError{Table: table, Part: u.Part, Sites: u.Replicas, Last: lastErr}
	}
	return lastErr
}

// PartitionUnavailableError marks a query that failed because one shard
// of a partitioned table could not be served by any replica — the
// serving replica died mid-stream (or never answered) and every
// sibling was dead or fail-fast too, or the query's retry budget ran
// dry on the way. It unwraps to the last failure.
type PartitionUnavailableError struct {
	// Table is the logical (partitioned) table name.
	Table string
	// Part is the partition whose replica set was exhausted.
	Part int
	// Sites lists the replica sites that were tried or skipped.
	Sites []string
	// Last is the failure that ended the ladder.
	Last error
}

func (e *PartitionUnavailableError) Error() string {
	return fmt.Sprintf("qpc: partition %d of %s unavailable on every replica (%s): %v",
		e.Part, e.Table, strings.Join(e.Sites, ", "), e.Last)
}

func (e *PartitionUnavailableError) Unwrap() error { return e.Last }
