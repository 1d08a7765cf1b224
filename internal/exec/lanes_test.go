package exec

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mocha/internal/core"
	"mocha/internal/obs"
	"mocha/internal/ops"
	"mocha/internal/types"
	"mocha/internal/vm"
)

// laneProgs are the shipped-style classes the lane tests call. Trap
// divides by zero on 3 and takes a modulo by zero on 200, so the two
// failures read differently; Sq squares, as a DOUBLE.
var laneProgs = map[string]*vm.Program{
	"Trap": vm.MustAssemble(`
program Trap
func eval args=1 locals=0
  pushi 1
  arg 0
  pushi 3
  subi
  divi
  pushi 1
  arg 0
  pushi 200
  subi
  modi
  addi
  ret
end`),
	"Sq": vm.MustAssemble(`
program Sq
func eval args=1 locals=0
  arg 0
  arg 0
  muli
  i2f
  ret
end`),
}

// laneBinder binds laneProgs on a machine of its own per fork, as a
// DAP's binder does, and the built-ins natively.
type laneBinder struct {
	native   core.NativeBinder
	machine  *vm.Machine
	machines *[]*vm.Machine
}

func newLaneBinder() *laneBinder {
	b := &laneBinder{native: core.NativeBinder{Reg: ops.Builtins()}, machines: new([]*vm.Machine)}
	b.machine = b.Fork().(*laneBinder).machine
	return b
}

func (b *laneBinder) Fork() core.OpBinder {
	f := *b
	f.machine = vm.New(vm.Limits{})
	*b.machines = append(*b.machines, f.machine)
	return &f
}

func (b *laneBinder) BindScalar(name string, ret types.Kind) (core.ScalarFn, error) {
	p, ok := laneProgs[name]
	if !ok {
		return b.native.BindScalar(name, ret)
	}
	s, err := ops.NewVMScalar(b.machine, p, ret)
	if err != nil {
		return nil, err
	}
	return s.Call, nil
}

func (b *laneBinder) BindAggregate(name string, ret types.Kind) (core.AggFn, error) {
	return b.native.BindAggregate(name, ret)
}

func (b *laneBinder) instrs() (n int64) {
	for _, m := range *b.machines {
		n += m.Instrs
	}
	return n
}

func call(name string, ret types.Kind, args ...*core.PExpr) *core.PExpr {
	return &core.PExpr{Kind: core.ExprCall, Func: name, Ret: ret, Args: args}
}

func binop(op string, ret types.Kind, l, r *core.PExpr) *core.PExpr {
	return &core.PExpr{Kind: core.ExprBinop, Op: op, Ret: ret, Args: []*core.PExpr{l, r}}
}

// laneRun is what one fragment run shows.
type laneRun struct {
	rows   string
	err    error
	ops    string
	instrs int64
	spills int64
}

// runLanes lowers frag over rows (batches of batchRows) on w forced lanes.
func runLanes(t *testing.T, frag *core.Fragment, rows []types.Tuple, batchRows, w int, gov *Governor) laneRun {
	t.Helper()
	defer ForceLanes(w)()
	b := newLaneBinder()
	var out []string
	src := NewSource("op:remote[0]", slicePull(rows), batchRows)
	tree, err := LowerFragment(frag, b, src, nil, func(tup types.Tuple) error {
		out = append(out, tup.String())
		return nil
	}, gov)
	if err != nil {
		t.Fatal(err)
	}
	run := laneRun{err: Run(context.Background(), tree, nil), instrs: b.instrs()}
	run.rows = strings.Join(out, " ")
	var st []string
	for _, op := range tree.Ops {
		s := op.Stats()
		st = append(st, fmt.Sprintf("%s %d→%d/%d", s.Name, s.RowsIn, s.RowsOut, s.Batches))
		run.spills += s.Spills
	}
	run.ops = strings.Join(st, " ")
	return run
}

func seqRows(n int) []types.Tuple {
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(i), types.Int(i % 7)}
	}
	return rows
}

var laneSchema = types.NewSchema(types.Column{Name: "a", Kind: types.KindInt}, types.Column{Name: "k", Kind: types.KindInt})

func col(i int) *core.PExpr { return core.NewCol(i, types.KindInt) }

// TestLaneTrapParity: a class that traps on rows 3 and 200 of one
// 256-row batch returns row 3's error at every W — in a predicate, in a
// projection and in an aggregate's argument.
func TestLaneTrapParity(t *testing.T) {
	trap := call("Trap", types.KindInt, col(0))
	cases := []struct {
		name string
		frag core.Fragment
		want string
	}{
		{"predicate", core.Fragment{
			Chain: core.Chain{
				Predicates:  []*core.PExpr{binop("<", types.KindBool, trap, core.NewConst(types.Int(1000)))},
				Projections: []core.Output{{Name: "a", Expr: col(0)}},
			},
		}, "dap: predicate 0: ops: Trap: "},
		{"projection", core.Fragment{
			Chain: core.Chain{
				Projections: []core.Output{{Name: "a", Expr: col(0)}, {Name: "t", Expr: trap}},
			},
		}, `dap: projection "t": ops: Trap: `},
		{"aggregate", core.Fragment{
			Chain: core.Chain{
				GroupBy:    []int{1},
				Aggregates: []core.AggSpec{{Name: "n", Func: "Count", Ret: types.KindInt, Args: []*core.PExpr{trap}}},
			},
		}, "dap: aggregate Count argument: ops: Trap: "},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frag := tc.frag
			frag.SemiJoinCol = -1
			frag.InSchema = laneSchema
			for _, w := range []int{1, 2, 4} {
				run := runLanes(t, &frag, seqRows(256), 256, w, nil)
				if run.err == nil {
					t.Fatalf("W=%d: no error", w)
				}
				if msg := run.err.Error(); !strings.HasPrefix(msg, tc.want) || !strings.Contains(msg, "divide by zero") {
					t.Errorf("W=%d: error %q, want row 3's (%s… divide by zero)", w, msg, tc.want)
				}
			}
		})
	}
}

// TestLaneParityFragments: a fragment whose predicate and projection
// share a call site, and an aggregate whose argument shares it with the
// predicate below, give the same rows, operator counts and instruction
// counts on 1, 2 and 4 lanes.
func TestLaneParityFragments(t *testing.T) {
	sq := call("Sq", types.KindDouble, col(0))
	frags := map[string]core.Fragment{
		"project": {
			Chain: core.Chain{
				Predicates:  []*core.PExpr{binop("<", types.KindBool, sq, core.NewConst(types.Double(90000)))},
				Projections: []core.Output{{Name: "a", Expr: col(0)}, {Name: "sq", Expr: sq}},
			},
		},
		"aggregate": {
			Chain: core.Chain{
				Predicates: []*core.PExpr{binop("<", types.KindBool, sq, core.NewConst(types.Double(90000)))},
				GroupBy:    []int{1},
				Aggregates: []core.AggSpec{
					{Name: "n", Func: "Count", Ret: types.KindInt, Args: []*core.PExpr{col(0)}},
					{Name: "s", Func: "Sum", Ret: types.KindDouble, Args: []*core.PExpr{sq}},
				},
			},
		},
	}
	for name, frag := range frags {
		t.Run(name, func(t *testing.T) {
			frag.SemiJoinCol = -1
			frag.InSchema = laneSchema
			want := runLanes(t, &frag, seqRows(1000), 256, 1, nil)
			if want.err != nil || want.rows == "" {
				t.Fatalf("W=1: %v, rows %q", want.err, want.rows)
			}
			for _, w := range []int{2, 4} {
				got := runLanes(t, &frag, seqRows(1000), 256, w, nil)
				if got.err != nil {
					t.Fatalf("W=%d: %v", w, got.err)
				}
				if got.rows != want.rows || got.ops != want.ops || got.instrs != want.instrs {
					t.Errorf("W=%d differs:\n got  %s | %s | %d instrs\n want %s | %s | %d instrs",
						w, got.rows, got.ops, got.instrs, want.rows, want.ops, want.instrs)
				}
			}
		})
	}
}

// TestLaneSpilledAggregate: a pushed aggregate whose table overflows
// after its lanes have started folding returns the in-memory output, in
// the same order, at every W.
func TestLaneSpilledAggregate(t *testing.T) {
	checkLeaks(t)
	rows := kvRows(600, 97)
	frag := &core.Fragment{
		SemiJoinCol: -1,
		InSchema:    types.NewSchema(types.Column{Name: "k", Kind: types.KindInt}, types.Column{Name: "p", Kind: types.KindString}),
		Chain: core.Chain{
			Predicates: []*core.PExpr{binop("<", types.KindBool, call("Sq", types.KindDouble, col(0)), core.NewConst(types.Double(1<<20)))},
			GroupBy:    []int{0},
			Aggregates: []core.AggSpec{
				{Name: "n", Func: "Count", Ret: types.KindInt, Args: []*core.PExpr{core.NewCol(1, types.KindString)}},
				{Name: "s", Func: "Sum", Ret: types.KindDouble, Args: []*core.PExpr{call("Sq", types.KindDouble, col(0))}},
			},
		},
	}
	// 16-row batches: the first few fold on lanes before the table fills.
	want := runLanes(t, frag, rows, 16, 1, nil)
	if want.err != nil {
		t.Fatal(want.err)
	}
	for _, w := range []int{1, 2, 4} {
		g := NewGovernor(12<<10, obs.NewRegistry())
		got := runLanes(t, frag, rows, 16, w, g)
		if got.err != nil {
			t.Fatalf("W=%d: %v", w, got.err)
		}
		if got.spills == 0 {
			t.Fatalf("W=%d: a 12 KiB budget did not make the aggregate spill", w)
		}
		if got.rows != want.rows {
			t.Errorf("W=%d spilled aggregate diverged:\n got  %s\n want %s", w, got.rows, want.rows)
		}
		if g.Granted() != 0 {
			t.Errorf("W=%d: granted = %d after close", w, g.Granted())
		}
	}
}

// TestHelperPoolEmptyMeansOneLane: with no token free, a batch runs on
// its caller alone, and tokens come back.
func TestHelperPoolEmptyMeansOneLane(t *testing.T) {
	p := newTokenPool(0)
	if n := p.take(3); n != 0 {
		t.Fatalf("empty pool gave %d tokens", n)
	}
	p = newTokenPool(3)
	if n := p.take(2); n != 2 {
		t.Fatalf("took %d of 2", n)
	}
	if n := p.take(5); n != 1 {
		t.Fatalf("took %d, want the 1 left", n)
	}
	if n := p.take(1); n != 0 {
		t.Fatalf("drained pool gave %d", n)
	}
	p.give(3)
	if p.free.Load() != 3 {
		t.Errorf("free %d, want 3", p.free.Load())
	}

	// The process pool, drained by someone else's batch: W falls to 1.
	held := helpers.take(int(helpers.size))
	defer helpers.give(held)
	if w, tokens := widen(256); w != 1 || tokens != 0 {
		t.Errorf("widen on a drained pool = %d lanes, %d tokens", w, tokens)
	}
}

// TestHelperPoolConcurrent hammers the pool: tokens out never exceed its
// size and all come back.
func TestHelperPoolConcurrent(t *testing.T) {
	p := newTokenPool(3)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				n := p.take(2)
				if out := p.size - p.free.Load(); out > p.size {
					t.Errorf("%d tokens out of %d", out, p.size)
				}
				p.give(n)
			}
		}()
	}
	wg.Wait()
	if p.free.Load() != 3 {
		t.Errorf("free %d of 3 after the run", p.free.Load())
	}
}
