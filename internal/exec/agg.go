package exec

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"mocha/internal/core"
	"mocha/internal/types"
)

type aggGroup struct {
	keys types.Tuple
	aggs []core.AggFn
}

// aggSpillRec is one buffered post-overflow input tuple: its arrival
// sequence, its encoded group key, and the raw input row.
type aggSpillRec struct {
	seq uint64
	key string
	tup types.Tuple
}

// HashAggregate folds its input into per-group aggregate states and,
// once the input is exhausted, emits one row per group — group-by keys
// first, then aggregate results — in deterministic order (sorted by the
// groups' encoded keys, matching the historical executors on both
// sites). A global aggregate over an empty input emits no rows.
//
// When a memory grant is attached, each new group is accounted against
// it. On refusal the aggregate goes hybrid: groups created before the
// overflow keep receiving direct in-order updates, while tuples whose
// key is NOT in the table are buffered and written to temp-file runs
// sorted by (key, arrival). The two key sets are disjoint, so the final
// output is a two-way merge of the in-memory groups (sorted) with the
// disk groups (folded one at a time, in arrival order, from the merged
// runs) — byte-identical, in identical order, to the in-memory path.
type HashAggregate struct {
	base
	child     Operator
	groupBy   []int
	specs     []core.AggSpec
	binder    core.OpBinder
	argFns    [][]core.EvalFn
	memo      *core.Memo
	resetMemo bool
	errPrefix string
	rows      int
	grant     *Grant

	groups  map[string]*aggGroup
	order   []string
	built   bool
	emitIdx int

	// Spill state (zero while the table fits in memory).
	spilled     bool
	seq         uint64
	bufRecs     []aggSpillRec
	bufBytes    int64 // accounted buffer bytes (unaccounted slack excluded)
	acctScratch int64 // accounted run-writer scratch (best-effort)
	runs        []*spillFile
	merge       *mergeHeap
	diskRec     *spillRec // head record of the next disk group
	diskDone    bool
}

// NewHashAggregate compiles the aggregate argument expressions against
// binder (sharing memo with the chain below when resetMemo is false).
// grant, when non-nil, bounds the group table's memory and arms the
// hybrid spill path.
func NewHashAggregate(name string, child Operator, groupBy []int, specs []core.AggSpec, binder core.OpBinder, memo *core.Memo, resetMemo bool, errPrefix string, batchRows int, grant *Grant) (*HashAggregate, error) {
	if batchRows <= 0 {
		batchRows = DefaultBatchRows
	}
	a := &HashAggregate{
		child: child, groupBy: groupBy, specs: specs, binder: binder,
		memo: memo, resetMemo: resetMemo, errPrefix: errPrefix, rows: batchRows,
		grant:  grant,
		groups: make(map[string]*aggGroup),
	}
	a.stats.Name = name
	for _, spec := range specs {
		fns := make([]core.EvalFn, len(spec.Args))
		for j, argExpr := range spec.Args {
			fn, err := core.CompileExprMemo(argExpr, binder, memo)
			if err != nil {
				return nil, err
			}
			fns[j] = fn
		}
		a.argFns = append(a.argFns, fns)
	}
	return a, nil
}

func (a *HashAggregate) Open(ctx context.Context) error { return a.child.Open(ctx) }

func (a *HashAggregate) NextBatch() ([]types.Tuple, error) {
	if !a.built {
		for {
			in, err := a.child.NextBatch()
			if err != nil {
				return nil, err
			}
			if in == nil {
				break
			}
			a.stats.RowsIn += int64(len(in))
			t0 := time.Now()
			if a.resetMemo && a.memo != nil {
				a.memo.Reset()
			}
			for _, tup := range in {
				if err := a.accumulate(tup); err != nil {
					a.timed(t0)
					return nil, err
				}
			}
			a.timed(t0)
		}
		t0 := time.Now()
		sort.Strings(a.order)
		err := a.finishBuild()
		a.timed(t0)
		if err != nil {
			return nil, err
		}
		a.built = true
	}
	if a.spilled {
		return a.nextMerged()
	}
	if a.emitIdx >= len(a.order) {
		return nil, nil
	}
	defer a.timed(time.Now())
	n := len(a.order) - a.emitIdx
	if n > a.rows {
		n = a.rows
	}
	out := make([]types.Tuple, 0, n)
	for ; n > 0; n-- {
		row, err := a.memRow()
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	a.out(out)
	return out, nil
}

// memRow emits the next in-memory group (in sorted key order).
func (a *HashAggregate) memRow() (types.Tuple, error) {
	grp := a.groups[a.order[a.emitIdx]]
	a.emitIdx++
	row := make(types.Tuple, 0, len(grp.keys)+len(grp.aggs))
	row = append(row, grp.keys...)
	for i, agg := range grp.aggs {
		v, err := agg.Summarize()
		if err != nil {
			return nil, fmt.Errorf("%s: aggregate %s summarize: %w", a.errPrefix, a.specs[i].Func, err)
		}
		row = append(row, v)
	}
	return row, nil
}

// finishBuild flushes the last pending run and primes the (key, seq)
// merge when the aggregate spilled; a no-op otherwise.
func (a *HashAggregate) finishBuild() error {
	if !a.spilled {
		return nil
	}
	if err := a.flushRun(); err != nil {
		return err
	}
	// The run-writer scratch is no longer needed; the merge holds one
	// reader buffer per run instead (best-effort accounted, like every
	// fixed bufio overhead — bulk data is what the grant strictly
	// governs).
	a.grant.Release(a.acctScratch)
	a.acctScratch = 0
	a.grant.Try(int64(len(a.runs)) * spillBufBytes)
	m, err := newMergeHeap(a.runs, byKeySeq)
	if err != nil {
		return err
	}
	a.merge = m
	return nil
}

// nextMerged emits the two-way merge of the sorted in-memory groups and
// the sorted disk groups (the key sets are disjoint).
func (a *HashAggregate) nextMerged() ([]types.Tuple, error) {
	defer a.timed(time.Now())
	out := make([]types.Tuple, 0, a.rows)
	for len(out) < a.rows {
		if a.diskRec == nil && !a.diskDone {
			rec, ok, err := a.merge.next()
			if err != nil {
				return nil, err
			}
			if !ok {
				a.diskDone = true
			} else {
				a.diskRec = &rec
			}
		}
		memLeft := a.emitIdx < len(a.order)
		switch {
		case memLeft && (a.diskRec == nil || a.order[a.emitIdx] < string(a.diskRec.key)):
			row, err := a.memRow()
			if err != nil {
				return nil, err
			}
			out = append(out, row)
		case a.diskRec != nil:
			row, err := a.diskRow()
			if err != nil {
				return nil, err
			}
			out = append(out, row)
		default:
			if len(out) == 0 {
				return nil, nil
			}
			a.out(out)
			return out, nil
		}
	}
	a.out(out)
	return out, nil
}

// diskRow folds the next disk group — all consecutive merge records
// sharing a.diskRec's key, already in arrival order — through fresh
// aggregate states and emits its output row.
func (a *HashAggregate) diskRow() (types.Tuple, error) {
	head := a.diskRec
	a.diskRec = nil
	if a.resetMemo && a.memo != nil {
		a.memo.Reset()
	}
	keys := make(types.Tuple, len(a.groupBy))
	for i, g := range a.groupBy {
		keys[i] = head.tup[g]
	}
	aggs := make([]core.AggFn, 0, len(a.specs))
	for _, spec := range a.specs {
		agg, err := a.binder.BindAggregate(spec.Func, spec.Ret)
		if err != nil {
			return nil, err
		}
		if err := agg.Reset(); err != nil {
			return nil, err
		}
		aggs = append(aggs, agg)
	}
	rec := *head
	for {
		if err := a.fold(aggs, rec.tup); err != nil {
			return nil, err
		}
		nxt, ok, err := a.merge.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			a.diskDone = true
			break
		}
		if !bytes.Equal(nxt.key, head.key) {
			a.diskRec = &nxt
			break
		}
		rec = nxt
	}
	row := make(types.Tuple, 0, len(keys)+len(aggs))
	row = append(row, keys...)
	for i, agg := range aggs {
		v, err := agg.Summarize()
		if err != nil {
			return nil, fmt.Errorf("%s: aggregate %s summarize: %w", a.errPrefix, a.specs[i].Func, err)
		}
		row = append(row, v)
	}
	return row, nil
}

// fold updates one group's states with one input tuple.
func (a *HashAggregate) fold(aggs []core.AggFn, in types.Tuple) error {
	for i, spec := range a.specs {
		args := make([]types.Object, len(a.argFns[i]))
		for j, fn := range a.argFns[i] {
			v, err := fn(in)
			if err != nil {
				return fmt.Errorf("%s: aggregate %s argument: %w", a.errPrefix, spec.Func, err)
			}
			args[j] = v
		}
		if err := aggs[i].Update(args); err != nil {
			return fmt.Errorf("%s: aggregate %s: %w", a.errPrefix, spec.Func, err)
		}
	}
	return nil
}

// accumulate folds one tuple into its group, buffering it for the spill
// runs when the group table has overflowed and the key is new.
func (a *HashAggregate) accumulate(in types.Tuple) error {
	seq := a.seq
	a.seq++
	keys := make(types.Tuple, len(a.groupBy))
	var keyBuf []byte
	for i, g := range a.groupBy {
		keys[i] = in[g]
		keyBuf = in[g].AppendTo(keyBuf)
	}
	gk := string(keyBuf)
	grp, ok := a.groups[gk]
	if !ok {
		if !a.spilled {
			need := tupleMemBytes(keys) + int64(len(gk)) + 96 + 64*int64(len(a.specs))
			if a.grant.Try(need) {
				grp = &aggGroup{keys: detach(keys)}
				for _, spec := range a.specs {
					agg, err := a.binder.BindAggregate(spec.Func, spec.Ret)
					if err != nil {
						return err
					}
					if err := agg.Reset(); err != nil {
						return err
					}
					grp.aggs = append(grp.aggs, agg)
				}
				a.groups[gk] = grp
				a.order = append(a.order, gk)
			} else {
				// Overflow: reserve the run-writer scratch (best-effort
				// — the pool is full right now by definition), then
				// route this and every later new-key tuple to disk.
				if a.grant.Try(spillBufBytes) {
					a.acctScratch = spillBufBytes
				}
				a.spilled = true
			}
		}
		if grp == nil {
			return a.spillAdd(aggSpillRec{seq: seq, key: gk, tup: detach(in)})
		}
	}
	return a.fold(grp.aggs, in)
}

// spillAdd buffers one post-overflow record, flushing the buffer to a
// sorted run when the grant refuses to grow it.
func (a *HashAggregate) spillAdd(rec aggSpillRec) error {
	need := tupleMemBytes(rec.tup) + int64(len(rec.key)) + 64
	if !a.grant.Try(need) {
		if err := a.flushRun(); err != nil {
			return err
		}
		if !a.grant.Try(need) {
			// The buffer must hold at least one record to make progress.
			// A record bigger than the whole budget can never fit;
			// anything smaller rides unaccounted in the just-emptied
			// buffer (one record of slack, the pool is full right now).
			if need > a.grant.g.Budget() {
				return &OverBudgetError{Op: a.stats.Name, Need: need, Budget: a.grant.g.Budget()}
			}
			need = 0
		}
	}
	a.bufRecs = append(a.bufRecs, rec)
	a.bufBytes += need
	return nil
}

// flushRun sorts the buffered records by (key, arrival) and writes them
// as one run, returning the buffer's bytes to the pool.
func (a *HashAggregate) flushRun() error {
	if len(a.bufRecs) == 0 {
		return nil
	}
	sort.Slice(a.bufRecs, func(i, j int) bool {
		if a.bufRecs[i].key != a.bufRecs[j].key {
			return a.bufRecs[i].key < a.bufRecs[j].key
		}
		return a.bufRecs[i].seq < a.bufRecs[j].seq
	})
	sf, err := newSpillFile()
	if err != nil {
		return err
	}
	a.runs = append(a.runs, sf)
	for _, rec := range a.bufRecs {
		if err := sf.write(spillRec{seqA: rec.seq, key: []byte(rec.key), tup: rec.tup}); err != nil {
			return err
		}
	}
	if err := sf.flush(); err != nil {
		return err
	}
	a.stats.Spills++
	a.stats.SpillBytes += sf.bytes
	a.stats.SpillTuples += sf.recs
	a.grant.noteSpill(sf.bytes, sf.recs)
	a.grant.Release(a.bufBytes)
	a.bufRecs = nil
	a.bufBytes = 0
	return nil
}

func (a *HashAggregate) Close() error {
	cerr := a.child.Close()
	// Runs are unlinked-on-create, so closing the descriptors is the
	// whole cleanup — on every path, including mid-stream errors.
	ferr := closeSpillFiles(a.runs)
	a.grant.Close()
	if cerr != nil {
		return cerr
	}
	return ferr
}
