package qpc

// Retry with jittered exponential backoff for the idempotent exchange of
// query execution: dialing a DAP and sending START (DESIGN §3.6). A
// repeated START names the same stream ID, so the DAP continues or
// replaces whatever the failed attempt began instead of running it
// twice; fragmentStream.place is the one caller on the stream path, at
// set-up and mid-stream alike.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"syscall"
	"time"

	"mocha/internal/obs"
	"mocha/internal/wire"
)

// RetryPolicy configures retry-with-backoff for idempotent phases. The
// zero value means "use defaults" (see withDefaults); to disable
// retries set MaxAttempts to 1.
type RetryPolicy struct {
	// MaxAttempts bounds tries per operation (first try included).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry multiplies it by Multiplier, capped at MaxDelay.
	BaseDelay  time.Duration
	MaxDelay   time.Duration
	Multiplier float64
	// Jitter is the fraction of each delay that is randomized: the
	// actual sleep is delay * (1 - Jitter/2 + Jitter*rand). 0.5, the
	// default, spreads sleeps over ±25% so synchronized failures do not
	// retry in lockstep.
	Jitter float64
	// Budget bounds total retries across all operations of one query, so
	// a query against several flaky sites cannot multiply its worst-case
	// latency per site.
	Budget int

	// Sleep and Rand are injection points for tests; nil means a real
	// context-aware sleep and math/rand.
	Sleep func(context.Context, time.Duration) error
	Rand  func() float64
}

// DefaultRetryPolicy is applied when Config.Retry is the zero value.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Multiplier:  2,
		Jitter:      0.5,
		Budget:      8,
	}
}

// withDefaults fills unset fields. A zero policy becomes
// DefaultRetryPolicy; a partially set one keeps its explicit choices.
func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts == 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = d.MaxDelay
	}
	if p.Multiplier == 0 {
		p.Multiplier = d.Multiplier
	}
	if p.Jitter == 0 {
		p.Jitter = d.Jitter
	}
	if p.Budget == 0 {
		p.Budget = d.Budget
	}
	return p
}

// delay computes the sleep before retry number n (n = 1 for the first
// retry), applying exponential growth, the cap and jitter.
func (p RetryPolicy) delay(n int) time.Duration {
	d := float64(p.BaseDelay)
	for i := 1; i < n; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 {
		r := rand.Float64
		if p.Rand != nil {
			r = p.Rand
		}
		d *= 1 - p.Jitter/2 + p.Jitter*r()
	}
	return time.Duration(d)
}

// sleep waits for d or until the context ends.
func (p RetryPolicy) sleep(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryBudget is the per-query pool of retries shared by all fragments.
// The optional counters make retry behaviour observable process-wide:
// retries counts tokens consumed, exhausted counts operations denied a
// retry because the pool ran dry.
type retryBudget struct {
	mu        sync.Mutex
	remaining int

	retries   *obs.Counter
	exhausted *obs.Counter
}

func newRetryBudget(p RetryPolicy) *retryBudget {
	return &retryBudget{remaining: p.Budget}
}

// take consumes one retry token, reporting false when the budget is
// exhausted.
func (b *retryBudget) take() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.remaining <= 0 {
		if b.exhausted != nil {
			b.exhausted.Inc()
		}
		return false
	}
	b.remaining--
	if b.retries != nil {
		b.retries.Inc()
	}
	return true
}

// ErrRetryBudgetExhausted marks a query that failed because its shared
// per-query retry budget ran dry, as opposed to an unretryable failure.
// Errors carrying it are BudgetExhaustedErrors, which also unwrap to the
// last transport error.
var ErrRetryBudgetExhausted = errors.New("query retry budget exhausted")

// BudgetExhaustedError is returned when an operation was denied a retry
// because the per-query budget ran dry. It unwraps both to
// ErrRetryBudgetExhausted (so callers can classify the exhaustion) and
// to Last (so the underlying transport failure stays inspectable).
type BudgetExhaustedError struct {
	// Op names the operation that was denied a retry.
	Op string
	// Last is the transport failure that triggered the denied retry.
	Last error
}

func (e *BudgetExhaustedError) Error() string {
	return fmt.Sprintf("%s: %v: %v", e.Op, ErrRetryBudgetExhausted, e.Last)
}

func (e *BudgetExhaustedError) Unwrap() []error {
	return []error{ErrRetryBudgetExhausted, e.Last}
}

// retryTransient runs op, retrying under the policy while the failure is
// transient (see transientErr), the context is alive, the shared budget
// has tokens, and the site's breaker permits retries. Each attempt's
// outcome is reported to the health registry (site may be empty for
// operations not tied to one). The final error is the last attempt's.
func retryTransient(ctx context.Context, p RetryPolicy, budget *retryBudget, health *HealthRegistry, site, what string, op func() error) error {
	var err error
	for attempt := 1; ; attempt++ {
		start := time.Now()
		err = op()
		if err == nil {
			if site != "" {
				health.ReportSuccess(site, time.Since(start))
			}
			return nil
		}
		if !transientErr(err) {
			return err
		}
		if site != "" {
			health.ReportFailure(site, err)
		}
		if attempt >= p.MaxAttempts {
			return fmt.Errorf("%s: %d attempts exhausted: %w", what, attempt, err)
		}
		if ctx.Err() != nil {
			return fmt.Errorf("%s: %w (last failure: %v)", what, ctx.Err(), err)
		}
		if site != "" && health.FailFast(site) {
			return fmt.Errorf("%s: breaker open at %s, not retrying: %w", what, site, err)
		}
		if !budget.take() {
			return &BudgetExhaustedError{Op: what, Last: err}
		}
		if serr := p.sleep(ctx, p.delay(attempt)); serr != nil {
			return fmt.Errorf("%s: %w (last failure: %v)", what, serr, err)
		}
	}
}

// transientErr reports whether err is a transport-level failure worth a
// fresh-connection retry. Remote errors are excluded — the peer is alive
// and rejected the request for a reason — as are context errors, which
// mean the query's own deadline fired.
func transientErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var re *wire.RemoteError
	if errors.As(err, &re) {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}
