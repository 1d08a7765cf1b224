package core

import (
	"testing"

	"mocha/internal/types"
)

// countingBinder counts operator invocations, to verify per-tuple
// common-subexpression sharing.
type countingBinder struct {
	calls map[string]*int
}

func (b *countingBinder) BindScalar(name string, _ types.Kind) (ScalarFn, error) {
	n := new(int)
	if b.calls == nil {
		b.calls = map[string]*int{}
	}
	if existing, ok := b.calls[name]; ok {
		n = existing
	} else {
		b.calls[name] = n
	}
	return func(args []types.Object) (types.Object, error) {
		*n++
		sum := 0.0
		for _, a := range args {
			if d, ok := a.(types.Double); ok {
				sum += float64(d)
			}
			if r, ok := a.(types.Raster); ok {
				sum += r.AvgEnergy()
			}
		}
		return types.Double(sum), nil
	}, nil
}

func (b *countingBinder) BindAggregate(string, types.Kind) (AggFn, error) {
	return nil, nil
}

func TestMemoSharesCallsWithinTuple(t *testing.T) {
	// Two expressions both invoking F($0): a predicate-like comparison
	// and a bare projection.
	call := &PExpr{Kind: ExprCall, Func: "F", Ret: types.KindDouble,
		Args: []*PExpr{NewCol(0, types.KindDouble)}}
	pred := &PExpr{Kind: ExprBinop, Op: "<", Ret: types.KindBool,
		Args: []*PExpr{call, NewConst(types.Double(100))}}

	b := &countingBinder{}
	memo := NewMemo()
	predFn, err := CompileExprMemo(pred, b, memo)
	if err != nil {
		t.Fatal(err)
	}
	projFn, err := CompileExprMemo(call, b, memo)
	if err != nil {
		t.Fatal(err)
	}

	tup := types.Tuple{types.Double(7)}
	if _, err := predFn(tup); err != nil {
		t.Fatal(err)
	}
	if v, err := projFn(tup); err != nil || v.(types.Double) != 7 {
		t.Fatalf("proj = %v, %v", v, err)
	}
	if got := *b.calls["F"]; got != 1 {
		t.Errorf("F invoked %d times for one tuple, want 1 (memoized)", got)
	}

	// Next tuple: the memo resets, F runs again with the new value.
	memo.Reset()
	tup2 := types.Tuple{types.Double(9)}
	if v, _ := projFn(tup2); v.(types.Double) != 9 {
		t.Errorf("memo leaked a stale value: %v", v)
	}
	if got := *b.calls["F"]; got != 2 {
		t.Errorf("F invoked %d times total, want 2", got)
	}
}

func TestMemoLargeArgumentsKeyByIdentity(t *testing.T) {
	r := types.NewRaster(16, 16, make([]byte, 256))
	call := &PExpr{Kind: ExprCall, Func: "F", Ret: types.KindDouble,
		Args: []*PExpr{NewCol(0, types.KindRaster)}}
	b := &countingBinder{}
	memo := NewMemo()
	// Two call sites — a predicate and a projection, say — share F(image).
	fn, err := CompileExprMemo(call, b, memo)
	if err != nil {
		t.Fatal(err)
	}
	fn2, err := CompileExprMemo(call, b, memo)
	if err != nil {
		t.Fatal(err)
	}
	tup := types.Tuple{r}
	fn(tup)
	fn2(tup)
	if got := *b.calls["F"]; got != 1 {
		t.Errorf("same raster evaluated %d times, want 1", got)
	}
	// A different raster with equal length must NOT hit the cache (keyed
	// by identity, so a distinct backing slice is a miss).
	r2 := types.NewRaster(16, 16, make([]byte, 256))
	fn(types.Tuple{r2})
	if got := *b.calls["F"]; got != 2 {
		t.Errorf("distinct raster reused cache entry: %d calls", got)
	}
}

// entries counts the memo's live results.
func (m *Memo) entries() int {
	n := 0
	for _, s := range m.slots {
		if s.gen == m.gen {
			n += s.live
		}
	}
	return n
}

// TestMemoBypassesLoneCallSite binds an operator once in the whole
// chain: no other call in a tuple could share its result, so it pays for
// no key and no table — and is evaluated every time it is called.
func TestMemoBypassesLoneCallSite(t *testing.T) {
	call := &PExpr{Kind: ExprCall, Func: "F", Ret: types.KindDouble,
		Args: []*PExpr{NewCol(0, types.KindDouble)}}
	b := &countingBinder{}
	memo := NewMemo()
	fn, err := CompileExprMemo(call, b, memo)
	if err != nil {
		t.Fatal(err)
	}
	tup := types.Tuple{types.Double(1)}
	fn(tup)
	fn(tup)
	if got := *b.calls["F"]; got != 2 || memo.entries() != 0 {
		t.Errorf("lone call site: %d calls, %d memo entries; want 2 and 0", got, memo.entries())
	}
	// F's boxed result; nothing for a key, and the call reuses its
	// argument vector.
	if allocs := testing.AllocsPerRun(100, func() { fn(tup) }); allocs > 1 {
		t.Errorf("lone call site allocates %.0f times per call, want 1", allocs)
	}
}

// TestMemoKeyAllocatesNothing pins the memoized path's own cost: a hit
// builds its key on the stack and the call reuses its argument vector,
// so it allocates nothing.
func TestMemoKeyAllocatesNothing(t *testing.T) {
	call := &PExpr{Kind: ExprCall, Func: "F", Ret: types.KindDouble,
		Args: []*PExpr{NewCol(0, types.KindRaster), NewCol(1, types.KindDouble)}}
	b := &countingBinder{}
	memo := NewMemo()
	fn, _ := CompileExprMemo(call, b, memo)
	if _, err := CompileExprMemo(call, b, memo); err != nil {
		t.Fatal(err)
	}
	tup := types.Tuple{types.NewRaster(16, 16, make([]byte, 256)), types.Double(2)}
	fn(tup)
	if allocs := testing.AllocsPerRun(100, func() { fn(tup) }); allocs > 0 {
		t.Errorf("a memo hit allocates %.0f times, want 0", allocs)
	}
	if got := *b.calls["F"]; got != 1 {
		t.Errorf("F evaluated %d times, want 1", got)
	}
	// A miss stores its result in the site's table, which Reset keeps:
	// once the memo has seen a batch, a miss allocates only F's boxed
	// result.
	tuples := make([]types.Tuple, 64)
	for i := range tuples {
		tuples[i] = types.Tuple{types.NewRaster(4, 4, make([]byte, 16)), types.Double(i)}
	}
	batch := func() {
		memo.Reset()
		for _, tup := range tuples {
			fn(tup)
		}
	}
	batch()
	if allocs := testing.AllocsPerRun(20, batch); allocs > float64(len(tuples)) {
		t.Errorf("a batch of %d memo misses allocates %.0f times, want %d", len(tuples), allocs, len(tuples))
	}
	if n := memo.entries(); n != len(tuples) {
		t.Errorf("%d memo entries after a batch of %d misses", n, len(tuples))
	}
}

// TestMemoHoldsABatch: a site's results for a whole batch — more than
// its first table holds — are all found again, and a Reset forgets them
// all without clearing anything.
func TestMemoHoldsABatch(t *testing.T) {
	call := &PExpr{Kind: ExprCall, Func: "F", Ret: types.KindDouble,
		Args: []*PExpr{NewCol(0, types.KindRaster), NewCol(1, types.KindDouble)}}
	b := &countingBinder{}
	memo := NewMemo()
	pred, _ := CompileExprMemo(call, b, memo)
	proj, _ := CompileExprMemo(call, b, memo)
	tuples := make([]types.Tuple, 300)
	for i := range tuples {
		tuples[i] = types.Tuple{types.NewRaster(2, 2, []byte{byte(i), 1, 2, 3}), types.Double(i % 7)}
	}
	for round := 1; round <= 2; round++ {
		memo.Reset()
		for _, tup := range tuples {
			pred(tup)
		}
		for i, tup := range tuples {
			v, err := proj(tup)
			if want := types.Double(float64(i%7) + tuples[i][0].(types.Raster).AvgEnergy()); err != nil || v != want {
				t.Fatalf("round %d row %d: %v, %v; want %v", round, i, v, err, want)
			}
		}
		if got := *b.calls["F"]; got != round*len(tuples) {
			t.Errorf("round %d: F evaluated %d times, want %d", round, got, round*len(tuples))
		}
	}
}

func TestMemoNilFallsBackToPlainCompile(t *testing.T) {
	call := &PExpr{Kind: ExprCall, Func: "F", Ret: types.KindDouble,
		Args: []*PExpr{NewCol(0, types.KindDouble)}}
	b := &countingBinder{}
	fn, err := CompileExprMemo(call, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	tup := types.Tuple{types.Double(1)}
	fn(tup)
	fn(tup)
	if got := *b.calls["F"]; got != 2 {
		t.Errorf("nil memo should not cache: %d calls", got)
	}
}
