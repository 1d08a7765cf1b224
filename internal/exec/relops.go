package exec

import (
	"context"
	"fmt"
	"time"

	"mocha/internal/core"
	"mocha/internal/types"
)

// Filter drops tuples that fail any predicate. When it is the lowest
// memo user of its chain it resets the shared memo once per input batch
// (per chunk, on lanes): every tuple of a batch is live for the whole
// batch, so identity-keyed memo entries cannot alias across a reset
// boundary, and operators above it reuse the cached results for the same
// tuples.
type Filter struct {
	rowOp
	resetMemo bool
	errPrefix string
}

// NewFilter wraps child with compiled predicates.
func NewFilter(name string, child Operator, preds []core.EvalFn, memo *core.Memo, resetMemo bool, errPrefix string) *Filter {
	f := &Filter{rowOp: rowOp{child: child, set: soloLanes(&lane{memo: memo, preds: preds})},
		resetMemo: resetMemo, errPrefix: errPrefix}
	f.stats.Name = name
	return f
}

func (f *Filter) NextBatch() ([]types.Tuple, error) { return f.next(f) }

// apply filters in place: the batch is owned by this operator now, and
// the kept tuples keep their references.
func (f *Filter) apply(l int, in []types.Tuple) ([]types.Tuple, error) {
	ln := f.set.ls[l]
	if f.resetMemo && ln.memo != nil {
		ln.memo.Reset()
	}
	out := in[:0]
	for _, tup := range in {
		keep := true
		for i, p := range ln.preds {
			ok, perr := core.EvalPredicate(p, tup)
			if perr != nil {
				return nil, fmt.Errorf("%s: predicate %d: %w", f.errPrefix, i, perr)
			}
			if !ok {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, tup)
		}
	}
	return out, nil
}

// Project computes output columns from each input tuple.
type Project struct {
	rowOp
	names     []string
	resetMemo bool
	errPrefix string
}

// NewProject wraps child with compiled projection expressions; names are
// the output column names, used in error messages.
func NewProject(name string, child Operator, projs []core.EvalFn, names []string, memo *core.Memo, resetMemo bool, errPrefix string) *Project {
	p := &Project{rowOp: rowOp{child: child, set: soloLanes(&lane{memo: memo, projs: projs})},
		names: names, resetMemo: resetMemo, errPrefix: errPrefix}
	p.stats.Name = name
	return p
}

func (p *Project) NextBatch() ([]types.Tuple, error) { return p.next(p) }

func (p *Project) apply(l int, in []types.Tuple) ([]types.Tuple, error) {
	ln := p.set.ls[l]
	if p.resetMemo && ln.memo != nil {
		ln.memo.Reset()
	}
	// One slab per call holds every output row, which nothing writes
	// again; a zero-column row is still a non-nil tuple.
	n := len(ln.projs)
	slab := make([]types.Object, len(in)*n)
	out := make([]types.Tuple, len(in))
	for r, tup := range in {
		row := types.Tuple(slab[r*n : (r+1)*n : (r+1)*n])
		for i, fn := range ln.projs {
			v, perr := fn(tup)
			if perr != nil {
				return nil, fmt.Errorf("%s: projection %q: %w", p.errPrefix, p.names[i], perr)
			}
			row[i] = v
		}
		out[r] = row
	}
	return out, nil
}

// SemiFilter keeps tuples whose key column matches the delivered
// semi-join key set (section 5.4's reducing site).
type SemiFilter struct {
	rowOp
	col       int
	keys      map[uint64][]types.Object
	desc      string
	errPrefix string
}

// NewSemiFilter wraps child with a semi-join key filter on column col;
// desc names the column for error messages.
func NewSemiFilter(name string, child Operator, col int, keys map[uint64][]types.Object, desc, errPrefix string) *SemiFilter {
	s := &SemiFilter{rowOp: rowOp{child: child}, col: col, keys: keys, desc: desc, errPrefix: errPrefix}
	s.stats.Name = name
	return s
}

func (s *SemiFilter) NextBatch() ([]types.Tuple, error) { return s.next(s) }

func (s *SemiFilter) apply(_ int, in []types.Tuple) ([]types.Tuple, error) {
	out := in[:0]
	for _, tup := range in {
		k, ok := tup[s.col].(types.Small)
		if !ok {
			return nil, fmt.Errorf("%s: semi-join key of kind %v at %s", s.errPrefix, tup[s.col].Kind(), s.desc)
		}
		for _, cand := range s.keys[k.Hash()] {
			if k.Equal(cand) {
				out = append(out, tup)
				break
			}
		}
	}
	return out, nil
}

// Limit passes through the first k tuples and then stops pulling, so
// upstream operators (and, through ScanSource's stop channel, the
// storage scan itself) cease work once the limit is satisfied.
type Limit struct {
	base
	child     Operator
	remaining int
}

// NewLimit caps the stream at k tuples (k >= 0).
func NewLimit(name string, child Operator, k int) *Limit {
	l := &Limit{child: child, remaining: k}
	l.stats.Name = name
	return l
}

func (l *Limit) Open(ctx context.Context) error { return l.child.Open(ctx) }

func (l *Limit) NextBatch() ([]types.Tuple, error) {
	if l.remaining <= 0 {
		return nil, nil
	}
	in, err := l.child.NextBatch()
	if err != nil || in == nil {
		return nil, err
	}
	l.stats.RowsIn += int64(len(in))
	if len(in) > l.remaining {
		in = in[:l.remaining]
	}
	l.remaining -= len(in)
	l.out(in)
	return in, nil
}

func (l *Limit) Close() error { return l.child.Close() }

// Emit delivers every tuple to a sink callback (the client emit at the
// QPC, the batch writer at a DAP). Its self time is the sink's time —
// at a DAP, the network send path.
type Emit struct {
	base
	child Operator
	fn    func(types.Tuple) error
}

// NewEmit wraps child with a sink.
func NewEmit(name string, child Operator, fn func(types.Tuple) error) *Emit {
	e := &Emit{child: child, fn: fn}
	e.stats.Name = name
	return e
}

func (e *Emit) Open(ctx context.Context) error { return e.child.Open(ctx) }

func (e *Emit) NextBatch() ([]types.Tuple, error) {
	in, err := e.child.NextBatch()
	if err != nil || in == nil {
		return nil, err
	}
	e.stats.RowsIn += int64(len(in))
	defer e.timed(time.Now())
	for _, tup := range in {
		if err := e.fn(tup); err != nil {
			return nil, err
		}
	}
	e.out(in)
	return in, nil
}

func (e *Emit) Close() error { return e.child.Close() }
