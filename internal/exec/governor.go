package exec

import (
	"context"
	"fmt"
	"sync"

	"mocha/internal/obs"
)

// OverBudgetError reports that an operator could not obtain even its
// minimal working memory from the governor: the budget is too small for
// the query to make progress at all, so the query is cancelled with
// this typed error instead of deadlocking or thrashing.
type OverBudgetError struct {
	// Op is the span name of the operator that needed the memory.
	Op string
	// Need is the grant, in bytes, the operator could not obtain.
	Need int64
	// Budget is the governor's total budget at the time of the refusal.
	Budget int64
}

func (e *OverBudgetError) Error() string {
	return fmt.Sprintf("exec: %s needs %d B of query memory under a %d B budget (over budget)",
		e.Op, e.Need, e.Budget)
}

// Governor arbitrates one memory budget between the memory-hungry
// operators (hash-join builds, hash-aggregate tables, spill buffers) of
// every query executing concurrently on a server. The QPC and each DAP
// own one governor apiece; operators obtain a Grant at lowering time
// and account bytes against it as they buffer.
//
// The pool is a hard bound: the sum of granted bytes never exceeds the
// budget. Operators use the non-blocking Try and treat a refusal as the
// signal to spill — they never block while holding memory, so two
// operators of one query (or of two queries) cannot deadlock against
// each other. The blocking Acquire exists for zero-hold admission
// points only (a caller that holds nothing and can safely wait).
type Governor struct {
	mu        sync.Mutex
	cond      *sync.Cond
	budget    int64
	granted   int64
	highWater int64

	grantedGauge   *obs.Gauge
	highWaterGauge *obs.Gauge
	denied         *obs.Counter
	spillEvents    *obs.Counter
	spillBytes     *obs.Counter
	spillTuples    *obs.Counter
}

// NewGovernor creates a governor over a budget of b bytes, reporting
// into r (nil uses the process-wide default registry).
func NewGovernor(b int64, r *obs.Registry) *Governor {
	if r == nil {
		r = obs.Default()
	}
	g := &Governor{
		budget:         b,
		grantedGauge:   r.Gauge(obs.MExecMemGrantedBytes),
		highWaterGauge: r.Gauge(obs.MExecMemHighWaterBytes),
		denied:         r.Counter(obs.MExecMemDenied),
		spillEvents:    r.Counter(obs.MExecSpillEvents),
		spillBytes:     r.Counter(obs.MExecSpillBytes),
		spillTuples:    r.Counter(obs.MExecSpillTuples),
	}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Budget returns the current budget. A nil governor is unlimited.
func (g *Governor) Budget() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.budget
}

// Granted returns the bytes currently granted across all grants.
func (g *Governor) Granted() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.granted
}

// HighWater returns the maximum granted bytes ever observed — the
// bounded-RSS pin: it can never exceed the largest budget the governor
// has had.
func (g *Governor) HighWater() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.highWater
}

// Grant opens an accounting handle for one operator. op is the
// operator's span name, used in OverBudgetError and diagnostics. A nil
// governor returns a nil grant, whose methods are no-ops that always
// succeed — the ungoverned fast path.
func (g *Governor) Grant(op string) *Grant {
	if g == nil {
		return nil
	}
	return &Grant{g: g, op: op}
}

// Grant is one operator's claim on the governor's pool. Not safe for
// concurrent use by multiple goroutines (each operator accounts from
// its own build/probe goroutine); the governor underneath is.
type Grant struct {
	g      *Governor
	op     string
	mu     sync.Mutex
	held   int64
	closed bool
}

// Try attempts to grant n more bytes without blocking. A refusal means
// the pool cannot fit the request right now — the caller should spill
// (or fail with OverBudgetError if it cannot make progress otherwise).
// A nil grant always succeeds.
func (gr *Grant) Try(n int64) bool {
	if gr == nil || n <= 0 {
		return true
	}
	gr.mu.Lock()
	defer gr.mu.Unlock()
	if gr.closed {
		return false
	}
	g := gr.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.granted+n > g.budget {
		g.denied.Inc()
		return false
	}
	g.grant(n)
	gr.held += n
	return true
}

// grant books n bytes; the governor lock must be held.
func (g *Governor) grant(n int64) {
	g.granted += n
	g.grantedGauge.Set(g.granted)
	if g.granted > g.highWater {
		g.highWater = g.granted
		g.highWaterGauge.Set(g.highWater)
	}
}

// Acquire blocks until n bytes fit in the pool or ctx ends. It returns
// OverBudgetError immediately when n exceeds the whole budget (waiting
// could never succeed). Callers must hold no other memory while
// blocking here — operators that already hold a grant use Try and
// spill instead, which is what makes the pool deadlock-free.
func (gr *Grant) Acquire(ctx context.Context, n int64) error {
	if gr == nil || n <= 0 {
		return nil
	}
	g := gr.g
	// A context cancellation must wake the cond wait below.
	stop := context.AfterFunc(ctx, func() {
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	})
	defer stop()
	gr.mu.Lock()
	defer gr.mu.Unlock()
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if gr.closed {
			return fmt.Errorf("exec: %s: acquire on a closed grant", gr.op)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if n > g.budget {
			return &OverBudgetError{Op: gr.op, Need: n, Budget: g.budget}
		}
		if g.granted+n <= g.budget {
			g.grant(n)
			gr.held += n
			return nil
		}
		g.cond.Wait()
	}
}

// Release returns n bytes to the pool (clamped to what the grant
// holds) and wakes blocked acquirers.
func (gr *Grant) Release(n int64) {
	if gr == nil || n <= 0 {
		return
	}
	gr.mu.Lock()
	defer gr.mu.Unlock()
	if n > gr.held {
		n = gr.held
	}
	if n == 0 {
		return
	}
	gr.held -= n
	g := gr.g
	g.mu.Lock()
	g.granted -= n
	g.grantedGauge.Set(g.granted)
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Held returns the bytes the grant currently holds.
func (gr *Grant) Held() int64 {
	if gr == nil {
		return 0
	}
	gr.mu.Lock()
	defer gr.mu.Unlock()
	return gr.held
}

// Close releases everything the grant holds, exactly, and retires it.
// Safe to call more than once.
func (gr *Grant) Close() {
	if gr == nil {
		return
	}
	gr.mu.Lock()
	defer gr.mu.Unlock()
	if gr.closed {
		return
	}
	gr.closed = true
	if gr.held == 0 {
		return
	}
	g := gr.g
	g.mu.Lock()
	g.granted -= gr.held
	g.grantedGauge.Set(g.granted)
	g.cond.Broadcast()
	g.mu.Unlock()
	gr.held = 0
}

// noteSpill feeds the registry's spill counters when an operator
// writes a run: one event, its payload bytes, and its tuples.
func (gr *Grant) noteSpill(bytes, tuples int64) {
	if gr == nil {
		return
	}
	g := gr.g
	g.spillEvents.Inc()
	g.spillBytes.Add(bytes)
	g.spillTuples.Add(tuples)
}
