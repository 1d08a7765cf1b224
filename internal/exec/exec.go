// Package exec is the shared batch-vectorized operator-tree executor
// used by both sites of the middleware: the QPC lowers its post-join
// plan work (remote streams, hash joins, filters, aggregation, ordering)
// into one tree, and each DAP lowers its fragment (storage scan,
// semi-join filter, predicates, projection or aggregation, limit) into
// another. Every operator implements the same Volcano-style protocol
// with batch granularity — Open / NextBatch / Close / Stats — so new
// operators (spilling joins, parallel probes, exchange) plug in without
// touching either site's driver loop.
//
// Concurrency model: Open starts background work (hash-join build
// goroutines, bounded prefetchers) and cascades down the tree, so every
// build side of a multi-join tree is building while the left stream is
// being prefetched. NextBatch is pull-based from the root, one call at a
// time; inside a call, a DAP fragment's row stages and pushed aggregate
// may fan the batch out over lanes (lanes.go) and join them before the
// call returns, so the operators above never see a lane. Close joins
// every goroutine the tree started; it must be called exactly once after
// the last NextBatch, error or not.
//
// Ownership: the tuples of a batch are windows into the frame they were
// decoded from (types.DecodeValue), or into the copy a DAP's scan made
// of a stored record's columns — the store reads every record into one
// buffer it reuses — and that memory stays reachable as long as any of
// them does. An operator that keeps a row past the NextBatch that
// delivered it — the join build, Sort, TopK, group keys and buffered
// spill records — keeps detach(row) instead, so what it holds is what
// its memory grant accounted.
//
// Allocation: the data path allocates per batch or per scan, never per
// row. A batch's values, the payload headers its pointer-shaped large
// values point to (types.Slab) and its projected rows come from slabs;
// each compiled call fills one argument vector it owns, and each lane
// one per aggregate spec, because a callee may keep the values it is
// passed but never the slice (core.ScalarFn, core.AggFn); the memo
// stamps its entries with the batch instead of clearing them; and an
// aggregate finds a row's group by a key built into a buffer it keeps.
// What a row still costs is the box of a string or of an integer past
// the runtime's small-integer cache, and a call's boxed result.
package exec

import (
	"context"
	"strings"
	"time"

	"mocha/internal/obs"
	"mocha/internal/types"
)

// DefaultBatchRows is the number of tuples an operator targets per
// output batch.
const DefaultBatchRows = 256

// DefaultPrefetch is the bound, in batches, on each stream prefetcher's
// buffer.
const DefaultPrefetch = 4

// Tuning sets the executor's knobs. The zero value takes defaults.
type Tuning struct {
	// MemBudgetBytes bounds the query memory of the server's shared
	// governor pool: hash-join builds and hash-aggregate tables account
	// against it and spill to temp-file runs when it is exhausted.
	// 0 (or negative) means ungoverned — no accounting, no spilling.
	MemBudgetBytes int64
}

// OpStats is one operator's execution accounting. RowsIn counts tuples
// pulled from children (for a hash join: probe side plus build side),
// RowsOut tuples produced, Batches the output batches, and Self the time
// spent inside the operator itself, excluding time blocked on children.
// For source operators Self is the time blocked on the external feed
// (network or storage), which is exactly what their spans should show; a
// scan's RowsIn is the tuples its body produced, and DBBytes, which only
// the scan's owner can count, the volume it read to produce them.
type OpStats struct {
	Name    string
	RowsIn  int64
	RowsOut int64
	Batches int64
	Self    time.Duration
	DBBytes int64
	// Spills, SpillBytes and SpillTuples describe memory-pressure relief:
	// the number of runs the operator wrote to its spill file, their
	// bytes, and the records they carried (a spilled join's output runs
	// carry references to rows, not rows). All zero when the operator
	// stayed within its memory grant.
	Spills      int64
	SpillBytes  int64
	SpillTuples int64
}

// Operator is one node of an execution tree.
type Operator interface {
	// Open prepares the operator and may start background work. It must
	// open its children.
	Open(ctx context.Context) error
	// NextBatch returns the next batch of tuples, or nil at end of
	// stream. A returned batch is owned by the caller until the next
	// call.
	NextBatch() ([]types.Tuple, error)
	// Close releases resources and joins any background goroutines. It
	// closes the operator's children and is safe to call after an error.
	Close() error
	// Stats returns the operator's accounting; stable only after Close
	// (or after the root returned end of stream).
	Stats() *OpStats
}

// Tree is a lowered operator tree: the root plus every operator in a
// deterministic order (sources first, root last) for stats collection.
type Tree struct {
	Root Operator
	Ops  []Operator
}

// Spans renders the finished tree's accounting as trace spans at site
// ("" for the QPC), all anchored at startOff on the trace's clock: one
// span per operator with its self time as the duration, followed, for
// an operator that overflowed its memory grant, by a spill pseudo-span
// (Tuples = spilled tuples, Batches = runs written). Operator spans
// carry no NetBytes: wire volume belongs to the span of the exchange.
func (t *Tree) Spans(site string, startOff int64) []obs.Span {
	stats := make([]*OpStats, len(t.Ops))
	for i, op := range t.Ops {
		stats[i] = op.Stats()
	}
	return OpSpans(site, startOff, stats...)
}

// OpSpans turns operators' accounting into their spans, as Tree.Spans
// does for a tree's: also for the operators a DAP runs without lowering
// a tree (a forwarded fragment's scan and emit).
func OpSpans(site string, startOff int64, stats ...*OpStats) []obs.Span {
	spans := make([]obs.Span, 0, len(stats))
	for _, st := range stats {
		spans = append(spans, obs.Span{Name: st.Name, Site: site, StartMicros: startOff,
			DurMicros: st.Self.Microseconds(), DBBytes: st.DBBytes,
			Tuples: st.RowsOut, RowsIn: st.RowsIn, Batches: st.Batches, SpillBytes: st.SpillBytes})
		if st.Spills > 0 {
			name := obs.OpSpillJoin
			if strings.HasPrefix(st.Name, obs.OpHashAgg) {
				name = obs.OpSpillAgg
			}
			spans = append(spans, obs.Span{Name: name, Site: site, StartMicros: startOff,
				Tuples: st.SpillTuples, Batches: st.Spills, SpillBytes: st.SpillBytes})
		}
	}
	return spans
}

// Run drives a tree: Open, pull every batch from the root, Close. The
// first error wins; Close always runs. Per-batch context checks stop a
// cancelled query promptly even when sources keep delivering. onErr, if
// non-nil, runs after the first error and before Close — callers use it
// to cancel outstanding I/O so Close's goroutine joins return promptly
// instead of draining healthy streams on an already-failed query.
func Run(ctx context.Context, tree *Tree, onErr func(error)) error {
	err := tree.Root.Open(ctx)
	if err == nil {
		for {
			if cerr := ctx.Err(); cerr != nil {
				err = cerr
				break
			}
			var batch []types.Tuple
			batch, err = tree.Root.NextBatch()
			if err != nil || batch == nil {
				break
			}
		}
	}
	if err != nil && onErr != nil {
		onErr(err)
	}
	if cerr := tree.Root.Close(); err == nil {
		err = cerr
	}
	return err
}

// detach returns a copy of t that shares no memory with the frame t was
// decoded from: the row's own slice, out of its batch's slab, and every
// large value re-encoded into memory of its own, which the decoded copy
// is then a window into.
func detach(t types.Tuple) types.Tuple {
	out := make(types.Tuple, len(t))
	for i, o := range t {
		if _, ok := o.(types.Large); ok {
			if v, _, err := types.DecodeValue(o.Kind(), o.AppendTo(nil)); err == nil {
				o = v
			}
		}
		out[i] = o
	}
	return out
}

// base carries the bookkeeping every operator shares.
type base struct {
	stats OpStats
}

func (b *base) Stats() *OpStats { return &b.stats }

// timed adds d to the operator's self time.
func (b *base) timed(start time.Time) { b.stats.Self += time.Since(start) }

// out accounts one produced batch.
func (b *base) out(batch []types.Tuple) {
	if len(batch) > 0 {
		b.stats.Batches++
		b.stats.RowsOut += int64(len(batch))
	}
}
