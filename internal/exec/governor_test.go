package exec

import (
	"context"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mocha/internal/obs"
)

// runGovernorScript interprets a byte script against a fresh governor,
// checking the pool invariants after every step. Each pair of bytes is
// one operation on a rotating set of grants: try, release, close or
// reopen, with the amount derived from the second byte. It reports the
// first violated invariant.
func runGovernorScript(budget int64, script []byte) error {
	g := NewGovernor(budget, obs.NewRegistry())
	const nGrants = 4
	grants := make([]*Grant, nGrants)
	for i := range grants {
		grants[i] = g.Grant("op:test")
	}
	for i := 0; i+1 < len(script); i += 2 {
		gr := grants[int(script[i]>>2)%nGrants]
		n := int64(script[i+1]) * 7 // 0..1785, straddles small budgets
		switch script[i] % 4 {
		case 0:
			gr.Try(n)
		case 1:
			gr.Release(n)
		case 2:
			gr.Close()
		case 3:
			idx := int(script[i]>>2) % nGrants
			grants[idx].Close()
			grants[idx] = g.Grant("op:test")
		}
		if got := g.Granted(); got > budget {
			return errors.New("granted exceeds budget")
		}
		var held int64
		for _, h := range grants {
			held += h.Held()
		}
		if held != g.Granted() {
			return errors.New("sum of held grants diverged from granted")
		}
		if g.HighWater() > budget {
			return errors.New("high water exceeds budget")
		}
	}
	// Release-on-Close must be exact: closing every grant empties the
	// pool no matter what the script did.
	for _, gr := range grants {
		gr.Close()
		gr.Close() // idempotent
	}
	if g.Granted() != 0 {
		return errors.New("pool not empty after closing all grants")
	}
	return nil
}

// TestGovernorScriptProperties drives random operation scripts through
// the governor: granted never exceeds the budget, accounting matches
// the sum of live grants, and Close releases exactly what is held.
func TestGovernorScriptProperties(t *testing.T) {
	check := func(script []byte) bool {
		for _, budget := range []int64{1, 64, 1000, 1 << 20} {
			if err := runGovernorScript(budget, script); err != nil {
				t.Logf("budget %d: %v", budget, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzGovernorScript fuzzes the same interpreter; go test runs the
// seed corpus, go test -fuzz explores further.
func FuzzGovernorScript(f *testing.F) {
	f.Add([]byte{0, 255, 1, 10, 2, 0, 3, 9, 0, 200, 0, 200})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 1, 255, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		for _, budget := range []int64{3, 500} {
			if err := runGovernorScript(budget, script); err != nil {
				t.Fatalf("budget %d: %v", budget, err)
			}
		}
	})
}

// TestGovernorConcurrentHammer races many grants over a small pool:
// under -race this doubles as the data-race check, and afterwards the
// pool must drain to zero with the high water still under the budget.
func TestGovernorConcurrentHammer(t *testing.T) {
	const budget = 4096
	g := NewGovernor(budget, obs.NewRegistry())
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gr := g.Grant("op:test")
			defer gr.Close()
			for i := 0; i < 500; i++ {
				n := int64(1 + (w*31+i*7)%513)
				if gr.Try(n) && i%3 == 0 {
					gr.Release(n / 2)
				}
				if i%5 == 4 {
					gr.Release(gr.Held())
				}
			}
		}(w)
	}
	wg.Wait()
	if got := g.Granted(); got != 0 {
		t.Errorf("granted = %d after all grants closed", got)
	}
	if hw := g.HighWater(); hw > budget {
		t.Errorf("high water %d exceeds budget %d", hw, budget)
	}
}

// TestGrantAcquireBlocksAndWakes pins the blocking path: an Acquire
// that does not fit waits until a Release frees the pool.
func TestGrantAcquireBlocksAndWakes(t *testing.T) {
	g := NewGovernor(100, obs.NewRegistry())
	holder := g.Grant("op:holder")
	if !holder.Try(80) {
		t.Fatal("initial Try failed")
	}
	waiter := g.Grant("op:waiter")
	done := make(chan error, 1)
	go func() { done <- waiter.Acquire(context.Background(), 50) }()
	select {
	case err := <-done:
		t.Fatalf("Acquire returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	holder.Release(80)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Acquire after release: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Acquire never woke after Release")
	}
	waiter.Close()
	holder.Close()
	if g.Granted() != 0 {
		t.Errorf("granted = %d", g.Granted())
	}
}

// TestGrantAcquireOverBudget: a request larger than the whole budget
// fails fast with the typed error instead of waiting forever.
func TestGrantAcquireOverBudget(t *testing.T) {
	g := NewGovernor(64, obs.NewRegistry())
	gr := g.Grant("op:hashagg")
	err := gr.Acquire(context.Background(), 65)
	var obe *OverBudgetError
	if !errors.As(err, &obe) {
		t.Fatalf("err = %v, want OverBudgetError", err)
	}
	if obe.Op != "op:hashagg" || obe.Need != 65 || obe.Budget != 64 {
		t.Errorf("OverBudgetError = %+v", obe)
	}
}

// TestGrantAcquireCancel: cancelling the context unblocks a waiter.
func TestGrantAcquireCancel(t *testing.T) {
	g := NewGovernor(10, obs.NewRegistry())
	holder := g.Grant("op:holder")
	holder.Try(10)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- g.Grant("op:waiter").Acquire(ctx, 5) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled Acquire never returned")
	}
	holder.Close()
}

// TestNilGovernorFastPath: the ungoverned path is all no-ops.
func TestNilGovernorFastPath(t *testing.T) {
	var g *Governor
	if g.Budget() != 0 || g.Granted() != 0 || g.HighWater() != 0 {
		t.Error("nil governor reported nonzero accounting")
	}
	gr := g.Grant("op:x")
	if gr != nil {
		t.Fatal("nil governor issued a non-nil grant")
	}
	if !gr.Try(1 << 40) {
		t.Error("nil grant refused")
	}
	if err := gr.Acquire(context.Background(), 1<<40); err != nil {
		t.Errorf("nil grant Acquire: %v", err)
	}
	gr.Release(5)
	gr.Close()
}
