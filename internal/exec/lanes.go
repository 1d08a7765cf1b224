package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mocha/internal/core"
	"mocha/internal/types"
)

// Lanes (DESIGN §10.1). A DAP fragment's row-independent stages — the
// semi-join filter, predicates and projection — run on W lanes inside
// each batch: the batch is cut into W contiguous chunks, each lane runs
// the whole chain of stages over its chunk with its own memo and its own
// machine, and the chunks' outputs are concatenated in order, so the
// operators above see exactly the sequence one lane would have produced.
// A pushed aggregate fans its folds out by group instead (agg.go). W
// comes from the process: a fan-out takes whatever helper tokens are
// free, never waits for one, and gives them back when its batch is done.

// helpers holds one token per core beyond the one a fragment's driver
// already runs on, counted once at start: a later change to GOMAXPROCS
// does not resize it.
var helpers = newTokenPool(runtime.GOMAXPROCS(0) - 1)

// tokenPool is a counting pool that never blocks.
type tokenPool struct {
	size int64
	free atomic.Int64
}

func newTokenPool(n int) *tokenPool {
	p := &tokenPool{size: int64(max(n, 0))}
	p.free.Store(p.size)
	return p
}

// take claims up to want free tokens and returns how many it got.
func (p *tokenPool) take(want int) int {
	for want > 0 {
		free := p.free.Load()
		n := min(free, int64(want))
		if n <= 0 {
			return 0
		}
		if p.free.CompareAndSwap(free, free-n) {
			return int(n)
		}
	}
	return 0
}

func (p *tokenPool) give(n int) { p.free.Add(int64(n)) }

// forcedLanes, when positive, fixes every fan-out's width without taking
// tokens.
var forcedLanes atomic.Int32

// ForceLanes makes every fan-out run on w lanes (fewer for a batch of
// fewer rows) whatever the pool holds, until restore is called. It is a
// test hook for the lane parity tests, exported only because pkg/mocha's
// ladders pin W with it; mocha-lint rejects a call from anything but a
// _test.go file.
func ForceLanes(w int) (restore func()) {
	prev := forcedLanes.Swap(int32(w))
	return func() { forcedLanes.Store(prev) }
}

// HelperTokens reports the helper pool's size and the tokens free now.
// Like ForceLanes it is for tests only.
func HelperTokens() (size, free int) {
	return int(helpers.size), int(helpers.free.Load())
}

// widen returns the lanes a batch of n rows runs on and the helper
// tokens they hold, which the caller gives back when the batch is done.
func widen(n int) (w, tokens int) {
	if f := int(forcedLanes.Load()); f > 0 {
		return max(1, min(f, n)), 0
	}
	tokens = helpers.take(n - 1)
	return 1 + tokens, tokens
}

// fanOut runs fn on lanes 0..w-1 — lane 0 on the calling goroutine, the
// others on goroutines of their own — and returns when all are done.
func fanOut(w int, fn func(l int)) {
	if w == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for l := 1; l < w; l++ {
		go func(l int) {
			defer wg.Done()
			fn(l)
		}(l)
	}
	fn(0)
	wg.Wait()
}

// chunk returns lane l's share of rows cut into w contiguous chunks.
func chunk(rows []types.Tuple, l, w int) []types.Tuple {
	n := len(rows)
	return rows[l*n/w : (l+1)*n/w]
}

// concat joins lane outputs in lane order.
func concat(parts [][]types.Tuple) []types.Tuple {
	if len(parts) == 1 {
		return parts[0]
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]types.Tuple, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// lane is one worker's copy of a memo chain's compiled expressions: a
// memo of its own and, through its binder fork, a machine of its own.
type lane struct {
	memo  *core.Memo
	preds []core.EvalFn    // the filter's
	projs []core.EvalFn    // the projection's
	args  [][]core.EvalFn  // the aggregate's, per spec
	vecs  [][]types.Object // per spec: the argument vector its folds fill
}

// laneSet is the lanes of one memo chain. Lane 0 is what lowering
// compiled; fork compiles another the same way against a binder fork,
// the first time a batch runs that wide. A set without fork never fans
// out.
type laneSet struct {
	ls   []*lane
	fork func() (*lane, error)
}

// soloLanes is the set of an operator built on its own: one lane.
func soloLanes(ln *lane) *laneSet { return &laneSet{ls: []*lane{ln}} }

// grow compiles lanes until there are w.
func (s *laneSet) grow(w int) error {
	for len(s.ls) < w {
		ln, err := s.fork()
		if err != nil {
			return err
		}
		s.ls = append(s.ls, ln)
	}
	return nil
}

// width returns how many lanes a batch of n rows runs on under s, and
// the helper tokens they hold.
func (s *laneSet) width(n int) (w, tokens int, err error) {
	if s == nil || s.fork == nil {
		return 1, 0, nil
	}
	w, tokens = widen(n)
	if err := s.grow(w); err != nil {
		helpers.give(tokens)
		return 0, 0, err
	}
	return w, tokens, nil
}

// rowStage is a row-independent operator: what it does to a row depends
// on that row alone, so its batches cut into chunks that lanes run side
// by side.
type rowStage interface {
	Operator
	input() Operator
	lanes() *laneSet
	// apply runs the stage over one chunk with lane l's expressions and
	// returns the rows it keeps or makes.
	apply(l int, rows []types.Tuple) ([]types.Tuple, error)
}

// rowOp is what the row stages share: their lane set (nil for a stage
// that evaluates no expressions) and the chain they pull through, built
// at their first pull.
type rowOp struct {
	base
	child Operator
	set   *laneSet
	pipe  *chain
}

func (r *rowOp) Open(ctx context.Context) error { return r.child.Open(ctx) }

func (r *rowOp) Close() error { return r.child.Close() }

func (r *rowOp) input() Operator { return r.child }

func (r *rowOp) lanes() *laneSet { return r.set }

// next pulls top's next non-empty batch through its chain.
func (r *rowOp) next(top rowStage) ([]types.Tuple, error) {
	if r.pipe == nil {
		r.pipe = chainOf(top, r.set)
	}
	return r.pipe.next()
}

// chain is a fused run of row stages: from an operator down to the first
// operator below it that is not a row stage, its source.
type chain struct {
	src    Operator
	stages []rowStage // bottom-up
	set    *laneSet   // nil: the chain runs on one lane

	// The batch in flight and its lanes' scratch, kept from batch to
	// batch so that a batch on one lane allocates none of it.
	batch  []types.Tuple
	w      int
	parts  [][]types.Tuple // per lane: its output
	tally  []stageTally    // per lane and stage
	failAt []int           // per lane: the stage that failed
	errs   []error         // per lane
	pass   func(l int)     // c.runLane, bound once
}

// chainOf collects the row stages from op down. The chain fans out under
// set only when every stage evaluating expressions compiled them in set:
// only then does each lane have all of them.
func chainOf(op Operator, set *laneSet) *chain {
	c := &chain{set: set}
	for {
		st, ok := op.(rowStage)
		if !ok {
			break
		}
		if own := st.lanes(); own != nil && own != set {
			c.set = nil
		}
		c.stages = append([]rowStage{st}, c.stages...)
		op = st.input()
	}
	c.src = op
	c.pass = c.runLane
	return c
}

// next pulls batches from the source until one leaves rows at the top.
func (c *chain) next() ([]types.Tuple, error) {
	for {
		in, err := c.src.NextBatch()
		if err != nil || in == nil {
			return nil, err
		}
		w, tokens, err := c.set.width(len(in))
		if err != nil {
			return nil, err
		}
		parts, err := c.run(in, w)
		helpers.give(tokens)
		if err != nil {
			return nil, err
		}
		if out := concat(parts); len(out) > 0 {
			return out, nil
		}
	}
}

// stageTally is one lane's account of one stage over one chunk.
type stageTally struct {
	in, out int
	self    time.Duration
}

// run passes one batch through the stages on w lanes and returns each
// lane's output in lane order, valid until the next run. Every stage's
// stats read as if one lane had run the batch, and its self time is its
// share of the fork-join's wall time. The error is the one the first
// failing stage met on its first failing row, as one lane would have met
// it: chunks are contiguous, so the lowest lane failing in the lowest
// stage holds it.
func (c *chain) run(in []types.Tuple, w int) ([][]types.Tuple, error) {
	k := len(c.stages)
	if len(c.parts) < w {
		c.parts = make([][]types.Tuple, w)
		c.tally = make([]stageTally, w*k)
		c.failAt = make([]int, w)
		c.errs = make([]error, w)
	}
	parts, tally, errs := c.parts[:w], c.tally[:w*k], c.errs[:w]
	clear(tally)
	clear(errs)
	if k == 0 {
		for l := range parts {
			parts[l] = chunk(in, l, w)
		}
		return parts, nil
	}
	c.batch, c.w = in, w
	began := time.Now()
	fanOut(w, c.pass)
	wall := time.Since(began)
	c.batch = nil

	var busy time.Duration
	for _, t := range tally {
		busy += t.self
	}
	for s, st := range c.stages {
		var sum stageTally
		for l := 0; l < w; l++ {
			t := tally[l*k+s]
			sum.in += t.in
			sum.out += t.out
			sum.self += t.self
		}
		b := st.Stats()
		b.RowsIn += int64(sum.in)
		b.RowsOut += int64(sum.out)
		if sum.out > 0 {
			b.Batches++
		}
		if w > 1 && busy > 0 {
			sum.self = time.Duration(float64(wall) * float64(sum.self) / float64(busy))
		}
		b.Self += sum.self
	}

	var first error
	at := k
	for l, err := range errs {
		if err != nil && c.failAt[l] < at {
			first, at = err, c.failAt[l]
		}
	}
	return parts, first
}

// runLane runs lane l's chunk of the batch in flight through every stage.
func (c *chain) runLane(l int) {
	k := len(c.stages)
	rows := chunk(c.batch, l, c.w)
	for s, st := range c.stages {
		if len(rows) == 0 {
			break
		}
		t := &c.tally[l*k+s]
		t.in = len(rows)
		t0 := time.Now()
		var err error
		rows, err = st.apply(l, rows)
		t.self = time.Since(t0)
		if err != nil {
			c.failAt[l], c.errs[l] = s, err
			rows = nil
			break
		}
		t.out = len(rows)
	}
	c.parts[l] = rows
}

// laneForker is a binder that can bind the same operators again for
// another lane: the same releases, a machine of its own.
type laneForker interface {
	Fork() core.OpBinder
}
