package qpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"mocha/internal/wire"
)

// fakeClock records retry sleeps instead of performing them.
type fakeClock struct {
	slept []time.Duration
}

func (f *fakeClock) sleep(_ context.Context, d time.Duration) error {
	f.slept = append(f.slept, d)
	return nil
}

// testPolicy is deterministic: no jitter unless rnd is set, no real
// sleeping.
func testPolicy(clock *fakeClock, rnd func() float64) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    80 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.5,
		Budget:      8,
		Sleep:       clock.sleep,
		Rand:        rnd,
	}
}

var errTransient = fmt.Errorf("link hiccup: %w", syscall.ECONNRESET)

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	clock := &fakeClock{}
	p := testPolicy(clock, func() float64 { return 0.5 }) // jitter factor 1.0
	budget := newRetryBudget(p)
	attempts := 0
	err := retryTransient(context.Background(), p, budget, nil, "", "op", func() error {
		attempts++
		if attempts < 3 {
			return errTransient
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	// Exponential: 10ms then 20ms (rand=0.5 → multiplier exactly 1).
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(clock.slept) != len(want) {
		t.Fatalf("slept %v, want %v", clock.slept, want)
	}
	for i := range want {
		if clock.slept[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v", i, clock.slept[i], want[i])
		}
	}
}

func TestRetryAttemptsExhausted(t *testing.T) {
	clock := &fakeClock{}
	p := testPolicy(clock, func() float64 { return 0.5 })
	attempts := 0
	err := retryTransient(context.Background(), p, newRetryBudget(p), nil, "", "op", func() error {
		attempts++
		return errTransient
	})
	if attempts != p.MaxAttempts {
		t.Fatalf("attempts = %d, want %d", attempts, p.MaxAttempts)
	}
	if err == nil || !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("final error should carry the last failure, got %v", err)
	}
}

func TestRetryStopsOnPermanentError(t *testing.T) {
	clock := &fakeClock{}
	p := testPolicy(clock, nil)
	attempts := 0
	permanent := errors.New("qpc: unknown site \"x\"")
	err := retryTransient(context.Background(), p, newRetryBudget(p), nil, "", "op", func() error {
		attempts++
		return permanent
	})
	if attempts != 1 {
		t.Fatalf("permanent error retried: %d attempts", attempts)
	}
	if !errors.Is(err, permanent) {
		t.Fatalf("got %v", err)
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	clock := &fakeClock{}
	p := testPolicy(clock, func() float64 { return 0.5 })
	p.Budget = 3
	budget := newRetryBudget(p)
	// Two operations share the budget of 3 retries; with every attempt
	// failing, the first drains MaxAttempts-1 = 3 tokens and the second
	// gets none.
	attempts := 0
	_ = retryTransient(context.Background(), p, budget, nil, "", "op1", func() error {
		attempts++
		return errTransient
	})
	if attempts != p.MaxAttempts {
		t.Fatalf("op1 attempts = %d, want %d", attempts, p.MaxAttempts)
	}
	attempts = 0
	err := retryTransient(context.Background(), p, budget, nil, "", "op2", func() error {
		attempts++
		return errTransient
	})
	if attempts != 1 {
		t.Fatalf("op2 attempts = %d, want 1 (budget empty)", attempts)
	}
	if err == nil || !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("got %v", err)
	}
	if want := "retry budget exhausted"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q should mention %q", err, want)
	}
}

// TestRetryBudgetErrorTyped pins the budget-dry error's identity:
// callers classify it with errors.Is/As instead of string matching, and
// it still unwraps to the transport error that burned the last token.
func TestRetryBudgetErrorTyped(t *testing.T) {
	clock := &fakeClock{}
	p := testPolicy(clock, func() float64 { return 0.5 })
	p.Budget = 1
	budget := newRetryBudget(p)
	_ = retryTransient(context.Background(), p, budget, nil, "", "op1", func() error {
		return errTransient
	})
	err := retryTransient(context.Background(), p, budget, nil, "", "op2", func() error {
		return errTransient
	})
	if !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("errors.Is(err, ErrRetryBudgetExhausted) = false for %v", err)
	}
	var be *BudgetExhaustedError
	if !errors.As(err, &be) {
		t.Fatalf("errors.As to *BudgetExhaustedError failed for %v", err)
	}
	if be.Op == "" {
		t.Error("typed error lost the operation name")
	}
	if !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("budget error should unwrap to the last transport error, got %v", err)
	}
}

func TestRetryRespectsContextCancel(t *testing.T) {
	clock := &fakeClock{}
	p := testPolicy(clock, nil)
	ctx, cancel := context.WithCancel(context.Background())
	attempts := 0
	err := retryTransient(ctx, p, newRetryBudget(p), nil, "", "op", func() error {
		attempts++
		cancel()
		return errTransient
	})
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1 after cancel", attempts)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v", err)
	}
}

func TestDelayJitterBounds(t *testing.T) {
	base := 100 * time.Millisecond
	p := RetryPolicy{BaseDelay: base, MaxDelay: time.Second, Multiplier: 2, Jitter: 0.5}
	// rand=0 → 75% of base; rand=1 → 125% of base.
	p.Rand = func() float64 { return 0 }
	if got := p.delay(1); got != 75*time.Millisecond {
		t.Fatalf("low jitter delay = %v, want 75ms", got)
	}
	p.Rand = func() float64 { return 1 }
	if got := p.delay(1); got != 125*time.Millisecond {
		t.Fatalf("high jitter delay = %v, want 125ms", got)
	}
	// Growth is capped at MaxDelay (pre-jitter).
	p.Rand = func() float64 { return 0.5 }
	if got := p.delay(10); got != time.Second {
		t.Fatalf("capped delay = %v, want 1s", got)
	}
}

func TestWithDefaultsFillsZeroValue(t *testing.T) {
	// The zero policy — what cmd/mocha-qpc's unset flags and Cluster hand
	// over — must come out as the documented default, field by field (the
	// test hooks aside: funcs do not compare).
	got, want := RetryPolicy{}.withDefaults(), DefaultRetryPolicy()
	if got.Sleep != nil || got.Rand != nil {
		t.Fatalf("defaults installed a test hook: %+v", got)
	}
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"MaxAttempts", got.MaxAttempts, want.MaxAttempts},
		{"BaseDelay", got.BaseDelay, want.BaseDelay},
		{"MaxDelay", got.MaxDelay, want.MaxDelay},
		{"Multiplier", got.Multiplier, want.Multiplier},
		{"Jitter", got.Jitter, want.Jitter},
		{"Budget", got.Budget, want.Budget},
	} {
		if f.got != f.want {
			t.Errorf("zero policy's %s = %v, DefaultRetryPolicy has %v", f.name, f.got, f.want)
		}
	}
	if n := reflect.TypeOf(got).NumField(); n != 8 {
		t.Errorf("RetryPolicy has %d fields; this test compares 6 and excuses 2 hooks", n)
	}
	// Explicit single-attempt stays a single attempt.
	one := RetryPolicy{MaxAttempts: 1}.withDefaults()
	if one.MaxAttempts != 1 {
		t.Fatalf("explicit MaxAttempts overridden: %+v", one)
	}
}

func TestTransientErrClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{io.EOF, true},
		{io.ErrUnexpectedEOF, true},
		{net.ErrClosed, true},
		{fmt.Errorf("dial: %w", syscall.ECONNREFUSED), true},
		{fmt.Errorf("send: %w", syscall.EPIPE), true},
		{os.ErrDeadlineExceeded, true}, // a stalled frame is worth a fresh conn
		{&wire.RemoteError{Msg: "no such class"}, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{errors.New("qpc: unknown site"), false},
	}
	for _, c := range cases {
		if got := transientErr(c.err); got != c.want {
			t.Errorf("transientErr(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
