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
	idx  int // creation order: the group's lane is idx mod W
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
// key is NOT in the table are buffered and written to runs in the
// aggregate's one spill file, sorted by (key, arrival). The two key sets
// are disjoint, so the final output is a two-way merge of the in-memory
// groups (sorted) with the disk groups (folded one at a time, in arrival
// order, from the merged runs) — byte-identical, in identical order, to
// the in-memory path.
//
// On lanes (lanes.go) the chain of row stages below runs on contiguous
// chunks of each input batch; routing — group lookup, creation and spill
// — stays on the calling goroutine, in arrival order; and each group's
// rows are folded by the lane that owns it, in arrival order, so every
// group's states see exactly the updates one lane would have made.
type HashAggregate struct {
	base
	child     Operator
	groupBy   []int
	specs     []core.AggSpec
	binder    core.OpBinder
	set       *laneSet
	in        *chain // the row stages below, fused into the lanes
	argsCall  bool   // an argument calls a bound operator
	resetMemo bool
	errPrefix string
	rows      int
	grant     *Grant

	groups  map[string]*aggGroup
	order   []string
	built   bool
	emitIdx int

	// A batch's routing, kept from batch to batch: each row's group,
	// each lane's rows, the row's key as route builds it, and the
	// argument vectors of the rows lanes evaluate apart (carveArgs).
	owner   []*aggGroup
	work    [][]int
	key     []byte
	argv    [][]types.Object
	argSlab []types.Object

	// Spill state (zero while the table fits in memory).
	spilled  bool
	seq      uint64
	bufRecs  []aggSpillRec
	bufBytes int64 // accounted buffer bytes (unaccounted slack excluded)
	scratch  int64 // accounted block scratch (best-effort)
	file     spillFile
	runs     []*spillRun
	merge    *mergeHeap
	diskRec  *spillRec // head record of the next disk group
	diskDone bool
}

// NewHashAggregate compiles the aggregate argument expressions against
// binder (sharing memo with the chain below when resetMemo is false).
// grant, when non-nil, bounds the group table's memory and arms the
// hybrid spill path.
func NewHashAggregate(name string, child Operator, groupBy []int, specs []core.AggSpec, binder core.OpBinder, memo *core.Memo, resetMemo bool, errPrefix string, batchRows int, grant *Grant) (*HashAggregate, error) {
	if batchRows <= 0 {
		batchRows = DefaultBatchRows
	}
	args, err := compileAggArgs(specs, binder, memo)
	if err != nil {
		return nil, err
	}
	a := &HashAggregate{
		child: child, groupBy: groupBy, specs: specs, binder: binder,
		set:       soloLanes(&lane{memo: memo, args: args}),
		resetMemo: resetMemo, errPrefix: errPrefix, rows: batchRows,
		grant:  grant,
		groups: make(map[string]*aggGroup),
	}
	a.stats.Name = name
	for _, spec := range specs {
		core.CallsIn(func(string) { a.argsCall = true }, spec.Args...)
	}
	return a, nil
}

// compileAggArgs compiles every spec's argument expressions.
func compileAggArgs(specs []core.AggSpec, binder core.OpBinder, memo *core.Memo) ([][]core.EvalFn, error) {
	out := make([][]core.EvalFn, len(specs))
	for i, spec := range specs {
		var err error
		if out[i], err = compileExprs(spec.Args, binder, memo); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (a *HashAggregate) Open(ctx context.Context) error {
	a.in = chainOf(a.child, a.set)
	return a.child.Open(ctx)
}

func (a *HashAggregate) NextBatch() ([]types.Tuple, error) {
	if !a.built {
		for {
			in, err := a.in.src.NextBatch()
			if err != nil {
				return nil, err
			}
			if in == nil {
				break
			}
			if err := a.consume(in); err != nil {
				return nil, err
			}
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
	// The run-writer scratch is no longer needed; the merge holds a
	// block of each run instead.
	setScratch(a.grant, &a.scratch, readScratch(a.runs))
	m, err := newMergeHeap(&a.file, a.runs, decodeRow, byKeySeq)
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
	// Lane 0's memo holds whichever chunk it ran last, which depends on W:
	// a disk group starts from an empty one.
	if memo := a.set.ls[0].memo; memo != nil {
		memo.Reset()
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

// fold updates a disk group's states with one input tuple, on lane 0.
func (a *HashAggregate) fold(aggs []core.AggFn, in types.Tuple) error {
	ln := a.set.ls[0]
	for i := range a.specs {
		args, err := ln.evalArgs(i, in)
		if err != nil {
			return a.argErr(i, err)
		}
		if err := aggs[i].Update(args); err != nil {
			return a.updateErr(i, err)
		}
	}
	return nil
}

// evalArgs evaluates aggregate spec s's arguments on a row into the
// lane's vector for s, which the next row overwrites (core.AggFn).
func (ln *lane) evalArgs(s int, in types.Tuple) ([]types.Object, error) {
	if ln.vecs == nil {
		ln.vecs = make([][]types.Object, len(ln.args))
		for i, fns := range ln.args {
			ln.vecs[i] = make([]types.Object, len(fns))
		}
	}
	return evalInto(ln.vecs[s], ln.args[s], in)
}

// evalInto evaluates fns on a row into args, one value each.
func evalInto(args []types.Object, fns []core.EvalFn, in types.Tuple) ([]types.Object, error) {
	for j, fn := range fns {
		v, err := fn(in)
		if err != nil {
			return nil, err
		}
		args[j] = v
	}
	return args, nil
}

func (a *HashAggregate) argErr(spec int, err error) error {
	return fmt.Errorf("%s: aggregate %s argument: %w", a.errPrefix, a.specs[spec].Func, err)
}

func (a *HashAggregate) updateErr(spec int, err error) error {
	return fmt.Errorf("%s: aggregate %s: %w", a.errPrefix, a.specs[spec].Func, err)
}

// failure is a candidate error at a position in one batch's work: row
// r's routing is step 0, spec i's arguments step 1+2i and its update
// step 2+2i, in the order one lane performs them.
type failure struct {
	pos int
	err error
}

// first keeps the earlier of two failures.
func (f *failure) first(g failure) {
	if g.err != nil && (f.err == nil || g.pos < f.pos) {
		*f = g
	}
}

// consume runs one input batch through the chain below and folds what
// comes out. Lanes make each step's work concurrent but not its outcome:
// the error returned is the one at the earliest position, which is where
// one lane would have stopped, and nothing at a later position is
// reported in its place.
func (a *HashAggregate) consume(in []types.Tuple) error {
	// The chain's set is the aggregate's unless a stage below compiled
	// its expressions apart, and then nothing fans out.
	w, tokens, err := a.in.set.width(len(in))
	if err != nil {
		return err
	}
	defer helpers.give(tokens)
	parts, err := a.in.run(in, w)
	if err != nil {
		return err
	}
	rows := concat(parts)
	if len(rows) == 0 {
		return nil
	}
	a.stats.RowsIn += int64(len(rows))
	defer a.timed(time.Now())
	if a.resetMemo {
		for _, ln := range a.set.ls[:w] {
			if ln.memo != nil {
				ln.memo.Reset()
			}
		}
	}

	// Route every row in arrival order: group lookup and creation, the
	// grant and the spill buffer are the aggregate's alone.
	k := len(a.specs)
	stride := 2*k + 1
	var fail failure
	if cap(a.owner) < len(rows) {
		a.owner = make([]*aggGroup, len(rows))
	}
	owner := a.owner[:len(rows)]
	clear(owner)
	for len(a.work) < w {
		a.work = append(a.work, nil)
	}
	work := a.work[:w]
	for l := range work {
		work[l] = work[l][:0]
	}
	for i, tup := range rows {
		grp, err := a.route(tup)
		if err != nil {
			fail = failure{pos: i * stride, err: err}
			break
		}
		if grp != nil {
			owner[i] = grp
			work[grp.idx%w] = append(work[grp.idx%w], i)
		}
	}
	limit := func() int {
		if fail.err == nil {
			return len(rows) * stride
		}
		return fail.pos
	}

	// Arguments that call a bound operator are evaluated on the lane whose
	// chunk the row came from: its memo holds what the predicates below
	// computed for that row.
	var argv [][]types.Object
	if a.argsCall && w > 1 {
		argv = a.carveArgs(len(rows))
		lfail := make([]failure, w)
		end := limit()
		fanOut(w, func(l int) {
			off := 0
			for _, p := range parts[:l] {
				off += len(p)
			}
			ln := a.set.ls[l]
			for i := off; i < off+len(parts[l]) && i*stride < end; i++ {
				if owner[i] == nil {
					continue
				}
				for s := 0; s < k; s++ {
					if _, err := evalInto(argv[i*k+s], ln.args[s], rows[i]); err != nil {
						lfail[l] = failure{pos: i*stride + 1 + 2*s, err: a.argErr(s, err)}
						return
					}
				}
			}
		})
		for _, f := range lfail {
			fail.first(f)
		}
	}

	// Fold: each lane updates the groups it owns, row by row in arrival
	// order, up to the earliest failure found so far.
	lfail := make([]failure, w)
	end := limit()
	fanOut(w, func(l int) {
		ln := a.set.ls[l]
		for _, i := range work[l] {
			grp := owner[i]
			for s := 0; s < k; s++ {
				pos := i*stride + 1 + 2*s
				if pos >= end {
					return
				}
				var args []types.Object
				if argv != nil {
					args = argv[i*k+s]
				} else {
					var err error
					if args, err = ln.evalArgs(s, rows[i]); err != nil {
						lfail[l] = failure{pos: pos, err: a.argErr(s, err)}
						return
					}
				}
				if pos+1 >= end {
					return
				}
				if err := grp.aggs[s].Update(args); err != nil {
					lfail[l] = failure{pos: pos + 1, err: a.updateErr(s, err)}
					return
				}
			}
		}
	})
	for _, f := range lfail {
		fail.first(f)
	}
	return fail.err
}

// carveArgs returns the argument vectors of a batch of n rows, vector
// i*k+s for row i and spec s, all carved from one slab the aggregate
// keeps from batch to batch: each lane fills its rows' vectors, and the
// folds read them before the next batch.
func (a *HashAggregate) carveArgs(n int) [][]types.Object {
	k, per := len(a.specs), 0
	for _, spec := range a.specs {
		per += len(spec.Args)
	}
	if cap(a.argv) < n*k {
		a.argv = make([][]types.Object, n*k)
		a.argSlab = make([]types.Object, n*per)
		slab := a.argSlab
		for v := range a.argv {
			m := len(a.specs[v%k].Args)
			a.argv[v], slab = slab[:m:m], slab[m:]
		}
	}
	return a.argv[:n*k]
}

// route finds or creates one tuple's group, or buffers the tuple for the
// spill runs when the group table has overflowed and the key is new (and
// returns no group).
func (a *HashAggregate) route(in types.Tuple) (*aggGroup, error) {
	seq := a.seq
	a.seq++
	key := a.key[:0]
	for _, g := range a.groupBy {
		key = in[g].AppendTo(key)
	}
	a.key = key
	if grp, ok := a.groups[string(key)]; ok {
		return grp, nil
	}
	// A new key: only now does the row pay for its key string and tuple.
	gk := string(key)
	var grp *aggGroup
	if !a.spilled {
		keys := make(types.Tuple, len(a.groupBy))
		for i, g := range a.groupBy {
			keys[i] = in[g]
		}
		need := tupleMemBytes(keys) + int64(len(gk)) + 96 + 64*int64(len(a.specs))
		if a.grant.Try(need) {
			grp = &aggGroup{keys: detach(keys), idx: len(a.order)}
			for _, spec := range a.specs {
				agg, err := a.binder.BindAggregate(spec.Func, spec.Ret)
				if err != nil {
					return nil, err
				}
				if err := agg.Reset(); err != nil {
					return nil, err
				}
				grp.aggs = append(grp.aggs, agg)
			}
			a.groups[gk] = grp
			a.order = append(a.order, gk)
		} else {
			// Overflow: reserve the run-writer scratch, then route
			// this and every later new-key tuple to disk.
			setScratch(a.grant, &a.scratch, spillBlockBytes)
			a.spilled = true
		}
	}
	if grp == nil {
		return nil, a.spillAdd(aggSpillRec{seq: seq, key: gk, tup: detach(in)})
	}
	return grp, nil
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
	run := &spillRun{}
	a.runs = append(a.runs, run)
	for _, rec := range a.bufRecs {
		if err := run.writeRow(&a.file, rec.seq, rec.key, rec.tup); err != nil {
			return err
		}
	}
	if err := run.flush(&a.file); err != nil {
		return err
	}
	a.noteRun(a.grant, run)
	a.grant.Release(a.bufBytes)
	a.bufRecs = nil
	a.bufBytes = 0
	return nil
}

func (a *HashAggregate) Close() error {
	cerr := a.child.Close()
	// The spill file is unlinked on creation, so closing its descriptor
	// is the whole cleanup — on every path, including mid-stream errors.
	ferr := a.file.close()
	a.grant.Close()
	if cerr != nil {
		return cerr
	}
	return ferr
}
