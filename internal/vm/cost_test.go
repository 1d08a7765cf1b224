package vm

import (
	"strings"
	"testing"
)

func analyzeSrc(t *testing.T, src string) (*Program, *VerifyInfo) {
	t.Helper()
	p := MustAssemble(src)
	info, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return p, info
}

// runBoth executes the program's entry function on the reference
// interpreter and the compiled engine, asserts they agree, and returns
// the instruction counter.
func runBoth(t *testing.T, p *Program, args []Value) int64 {
	t.Helper()
	if err := Verify(p); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return parity(t, p, 0, DefaultLimits, args).instrs
}

func TestCostStraightLineExact(t *testing.T) {
	p, info := analyzeSrc(t, "program s\nfunc eval args=0 locals=0\npushi 1\npushi 2\naddi\nret\nend")
	c := info.Cost
	if !c.Bounded || c.BudgetInstrs != 4 {
		t.Fatalf("straight-line budget: got %+v, want exact 4 instrs", c)
	}
	if got := runBoth(t, p, nil); got != 4 {
		t.Fatalf("executed %d instructions, want 4", got)
	}
	if c.PerTripUnits != 0 {
		t.Fatalf("straight-line summary: %+v", c)
	}
}

// countingLoop is the canonical bounded ascending loop: i from 0 to
// limit by 1, two instructions of body work per trip.
func countingLoop(limit int) string {
	return "program s\nfunc eval args=0 locals=1\n" +
		"pushi 0\nstore 0\n" +
		"loop:\nload 0\npushi " + itoa(limit) + "\nlt\njz done\n" +
		"load 0\npop\n" +
		"load 0\npushi 1\naddi\nstore 0\njmp loop\n" +
		"done:\npushi 0\nret\nend"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestCostBoundedLoop(t *testing.T) {
	p, info := analyzeSrc(t, countingLoop(10))
	c := info.Cost
	if !c.Bounded {
		t.Fatalf("counting loop should be statically bounded: %+v", c)
	}
	// 4 straight-line instructions plus an 11-instruction body executed
	// at most trips+1 = 11 times (the +1 pays the exiting guard).
	if c.BudgetInstrs != 4+11*11 {
		t.Fatalf("budget = %d, want 125", c.BudgetInstrs)
	}
	got := runBoth(t, p, nil)
	if got > c.BudgetInstrs {
		t.Fatalf("executed %d > budget %d", got, c.BudgetInstrs)
	}
	if got != 118 {
		t.Fatalf("executed %d instructions, want 118", got)
	}
}

func TestCostZeroTripLoop(t *testing.T) {
	// i starts at the limit: the guard fails on entry, the body never
	// runs, and the budget must still cover the single guard pass.
	src := "program s\nfunc eval args=0 locals=1\n" +
		"pushi 5\nstore 0\n" +
		"loop:\nload 0\npushi 5\nlt\njz done\n" +
		"load 0\npushi 1\naddi\nstore 0\njmp loop\n" +
		"done:\npushi 0\nret\nend"
	p, info := analyzeSrc(t, src)
	c := info.Cost
	if !c.Bounded {
		t.Fatalf("zero-trip loop should be bounded: %+v", c)
	}
	got := runBoth(t, p, nil)
	if got > c.BudgetInstrs {
		t.Fatalf("executed %d > budget %d", got, c.BudgetInstrs)
	}
}

func TestCostCountdownLoop(t *testing.T) {
	src := "program s\nfunc eval args=0 locals=1\n" +
		"pushi 8\nstore 0\n" +
		"loop:\nload 0\npushi 0\ngt\njz done\n" +
		"load 0\npushi 1\nsubi\nstore 0\njmp loop\n" +
		"done:\npushi 0\nret\nend"
	p, info := analyzeSrc(t, src)
	c := info.Cost
	if !c.Bounded {
		t.Fatalf("countdown loop should be bounded: %+v", c)
	}
	// 4 straight-line + 9-instruction body × (8+1).
	if c.BudgetInstrs != 4+9*9 {
		t.Fatalf("budget = %d, want 85", c.BudgetInstrs)
	}
	if got := runBoth(t, p, nil); got > c.BudgetInstrs {
		t.Fatalf("executed %d > budget %d", got, c.BudgetInstrs)
	}
}

func TestCostNestedBoundedLoops(t *testing.T) {
	// Outer 3 trips, inner 4 trips re-initialized each outer iteration:
	// the inner body's multiplier is the product of both loops.
	src := "program s\nfunc eval args=0 locals=2\n" +
		"pushi 0\nstore 0\n" +
		"outer:\nload 0\npushi 3\nlt\njz done\n" +
		"pushi 0\nstore 1\n" +
		"inner:\nload 1\npushi 4\nlt\njz iout\n" +
		"load 1\npushi 1\naddi\nstore 1\njmp inner\n" +
		"iout:\nload 0\npushi 1\naddi\nstore 0\njmp outer\n" +
		"done:\npushi 0\nret\nend"
	p, info := analyzeSrc(t, src)
	c := info.Cost
	if !c.Bounded {
		t.Fatalf("nested bounded loops should be bounded: %+v", c)
	}
	got := runBoth(t, p, nil)
	if got > c.BudgetInstrs {
		t.Fatalf("executed %d > budget %d", got, c.BudgetInstrs)
	}
	// Sanity: the bound is loop-aware (far below a naive (T+1)^2 over
	// the whole function) yet covers the real 3×4 execution.
	if c.BudgetInstrs > 1000 {
		t.Fatalf("nested budget %d looks unfolded", c.BudgetInstrs)
	}
}

func TestCostInputDependentLoop(t *testing.T) {
	// Loop bound read from an argument: statically unbounded, budget
	// saturates, and the body lands on the per-trip slope.
	src := "program s\nfunc eval args=1 locals=1\n" +
		"pushi 0\nstore 0\n" +
		"loop:\nload 0\narg 0\nlt\njz done\n" +
		"load 0\npushi 1\naddi\nstore 0\njmp loop\n" +
		"done:\npushi 0\nret\nend"
	p, info := analyzeSrc(t, src)
	c := info.Cost
	if c.Bounded {
		t.Fatalf("arg-bounded loop must be input-dependent: %+v", c)
	}
	if c.BudgetInstrs != DefaultLimits.MaxFuel {
		t.Fatalf("unbounded budget must saturate at MaxFuel, got %d", c.BudgetInstrs)
	}
	if c.PerTripUnits == 0 {
		t.Fatalf("input-dependent loop must carry per-trip units: %+v", c)
	}
	if got := runBoth(t, p, []Value{IntVal(50)}); got > c.BudgetInstrs {
		t.Fatalf("executed %d > budget %d", got, c.BudgetInstrs)
	}
}

func TestCostMutuallyExclusiveBranches(t *testing.T) {
	// Only one arm runs per invocation; the budget soundly charges
	// both, and execution stays under it on either path.
	src := "program s\nfunc eval args=1 locals=0\n" +
		"arg 0\npushi 0\ngt\njz neg\n" +
		"pushi 1\npushi 2\naddi\nret\n" +
		"neg:\npushi 3\npushi 4\npushi 5\naddi\naddi\nret\nend"
	p, info := analyzeSrc(t, src)
	c := info.Cost
	if !c.Bounded || c.BudgetInstrs != 14 {
		t.Fatalf("branchy budget: got %+v, want 14 instrs (both arms charged)", c)
	}
	for _, arg := range []int64{-1, 1} {
		if got := runBoth(t, p, []Value{IntVal(arg)}); got > c.BudgetInstrs {
			t.Fatalf("arg %d: executed %d > budget %d", arg, got, c.BudgetInstrs)
		}
	}
}

func TestCostCallInlinesCalleeBudget(t *testing.T) {
	src := "program s\nfunc eval args=0 locals=0\n" +
		"pushi 7\ncall aux\nret\nend\n" +
		"func aux args=1 locals=0\narg 0\npushi 1\naddi\nret\nend"
	p, info := analyzeSrc(t, src)
	// eval: pushi + call + ret = 3 own instructions, plus aux's 4.
	if got := info.Funcs[0].BudgetInstrs; got != 7 {
		t.Fatalf("caller budget = %d, want 7", got)
	}
	if got := runBoth(t, p, nil); got != 7 {
		t.Fatalf("executed %d, want 7", got)
	}
}

func TestCostBackEdgeIntoUnreachableCode(t *testing.T) {
	// A back edge whose loop body is unreachable from the entry: the
	// verifier rejects the program outright (unreachable code), so the
	// cost pass never has to price it.
	p := &Program{
		Name: "s",
		Funcs: []Func{{Name: "eval", NArgs: 0, NLocals: 1, Code: []byte{
			byte(OpPushI), 0, 0, 0, 1,
			byte(OpRet),
			// unreachable: jmp to itself
			byte(OpJmp), 0, 0, 0, 6,
		}}},
	}
	if _, err := Analyze(p); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("want unreachable-code rejection, got %v", err)
	}
}

func TestCostTrapPathsSetCounter(t *testing.T) {
	// The counter must be set on trap exits too: divide by zero after
	// two pushes executes exactly 3 instructions.
	src := "program s\nfunc eval args=0 locals=0\npushi 1\npushi 0\ndivi\nret\nend"
	p, info := analyzeSrc(t, src)
	if err := Verify(p); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	got := parity(t, p, 0, DefaultLimits, nil)
	if tr, ok := got.err.(*Trap); !ok || tr.Kind != TrapMath {
		t.Fatalf("want math trap, got %v", got.err)
	}
	if got.instrs != 3 {
		t.Fatalf("trap-path counter = %d, want 3", got.instrs)
	}
	if got.instrs > info.Cost.BudgetInstrs {
		t.Fatalf("trap path exceeded budget: %d > %d", got.instrs, info.Cost.BudgetInstrs)
	}
}

// TestCostBlockMove: a bcopy is priced by its length — the `pushi K`
// right before it budgets 1 + K>>3 instructions, exactly what it is
// charged at run time, and the same in weighted units; any other length
// is input-dependent work, the function unbounded and the instruction on
// the per-trip slope.
func TestCostBlockMove(t *testing.T) {
	move := func(length string) string {
		return "program s\nfunc eval args=1 locals=0\npushi 64\nbnew\npushi 0\npushi 64\nbnew\npushi 0\n" + length + "\nbcopy\nblen\nret\nend"
	}
	p, info := analyzeSrc(t, move("pushi 64"))
	c := info.Cost
	if want := int64(10 + 64>>3); !c.Bounded || c.BudgetInstrs != want || runBoth(t, p, []Value{IntVal(64)}) != want {
		t.Errorf("static length: %+v, want exactly %d instructions budgeted and run", c, want)
	}
	_, none := analyzeSrc(t, move("pushi 0"))
	if got := c.FixedUnits - none.Cost.FixedUnits; got != 64>>3 || c.PerTripUnits != 0 {
		t.Errorf("static length: 64 bytes weigh %d units more than none, summary %+v", got, c)
	}

	for _, length := range []string{"arg 0", "pushi 32\npushi 32\naddi", "pushi -1"} {
		p, info := analyzeSrc(t, move(length))
		c := info.Cost
		if c.Bounded || c.BudgetInstrs != DefaultLimits.MaxFuel || c.PerTripUnits != opInfo[OpBCopy].cost {
			t.Errorf("length %q: %+v, want unbounded with the move on the per-trip slope", length, c)
		}
		runBoth(t, p, []Value{IntVal(64)})
	}

	// Under a bounded loop the bytes multiply out with the trips (4, and
	// one more for the guard that leaves).
	_, info = analyzeSrc(t, moveSeedSrcs[2])
	if c := info.Cost; !c.Bounded || c.BudgetInstrs != 5+5*4+5*(12+32>>3)+2 {
		t.Errorf("static length under a 4-trip loop: %+v", c)
	}
}

func TestCostHostIntrinsicsPriced(t *testing.T) {
	plain := "program s\nconst f float 2.5\nfunc eval args=0 locals=0\nconst f\nret\nend"
	hosted := "program s\nconst f float 2.5\nfunc eval args=0 locals=0\nconst f\nhost sqrt\nret\nend"
	_, pi := analyzeSrc(t, plain)
	_, hi := analyzeSrc(t, hosted)
	extra := hi.Cost.FixedUnits - pi.Cost.FixedUnits
	if want := opInfo[OpHost].cost + hostInfo[HostSqrt].cost; extra != want {
		t.Fatalf("sqrt priced at %d units, want %d", extra, want)
	}
}

// TestCostInfoString pins the canonical encoding the release manifest
// stores, which LoadDir compares byte-for-byte with a fresh verification.
func TestCostInfoString(t *testing.T) {
	for _, tc := range []struct {
		c    CostInfo
		want string
	}{
		{CostInfo{Bounded: true, BudgetInstrs: 125, FixedUnits: 136, PerTripUnits: 0},
			"instrs=125;fixed=136;pertrip=0"},
		{CostInfo{Bounded: false, BudgetInstrs: DefaultLimits.MaxFuel, FixedUnits: 12, PerTripUnits: 9},
			"instrs=unbounded;fixed=12;pertrip=9"},
	} {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("%+v renders %q, want %q", tc.c, got, tc.want)
		}
	}
}

// TestCostAnalyzeWrapper pins that the full verification ladder records
// the cost summary in VerifyInfo.Cost, and that a program failing
// verification gets no summary.
func TestCostAnalyzeWrapper(t *testing.T) {
	p := MustAssemble(countingLoop(3))
	info, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if c := info.Cost; !c.Bounded || c.BudgetInstrs == 0 {
		t.Fatalf("Analyze cost summary: %+v", c)
	}
	if info, err := Analyze(&Program{Name: "bad"}); err == nil {
		t.Fatalf("Analyze of an empty program = %+v, want a verification error", info)
	}
}

// TestInstructionTable holds every opcode and host intrinsic to a row of
// its table: a mnemonic that resolves back to it and a positive weight,
// and for an intrinsic a stack effect. A missing row fails here, before
// any program uses the instruction. The cost pass sums those weights
// saturating at the fuel cap.
func TestInstructionTable(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		row := opInfo[op]
		if row.name == "" || row.cost <= 0 {
			t.Errorf("opcode %d: row %+v, want a mnemonic and a positive cost", op, row)
		}
		if got, ok := OpByName(row.name); !ok || got != op {
			t.Errorf("opcode %d: mnemonic %q resolves to %v", op, row.name, got)
		}
	}
	for id := 0; id < NumHost; id++ {
		row := hostInfo[id]
		if row.name == "" || row.cost <= 0 || row.pops == nil {
			t.Errorf("host intrinsic %d: row %+v, want a mnemonic, a positive cost and a stack effect", id, row)
		}
		if got, ok := HostByName(row.name); !ok || got != id {
			t.Errorf("host intrinsic %d: mnemonic %q resolves to %d", id, row.name, got)
		}
	}
	if Op(numOps).Valid() || HostName(NumHost) != "" || HostName(-1) != "" {
		t.Error("an id past the table is defined")
	}

	if got := capAdd(costCap-1, 5, costCap); got != costCap {
		t.Errorf("capAdd overflow = %d, want cap %d", got, costCap)
	}
	if got := capAdd(2, 3, costCap); got != 5 {
		t.Errorf("capAdd = %d, want 5", got)
	}
	if got := capMul(costCap/2, 3, costCap); got != costCap {
		t.Errorf("capMul overflow = %d, want cap %d", got, costCap)
	}
	if got := capMul(0, 99, costCap); got != 0 {
		t.Errorf("capMul by zero = %d, want 0", got)
	}
}

// TestValueAndKindStrings covers the diagnostic renderings used in
// verifier errors and traps.
func TestValueAndKindStrings(t *testing.T) {
	cases := map[string]interface{ String() string }{
		"42":       IntVal(42),
		"1.5":      FloatVal(1.5),
		"true":     BoolVal(true),
		"false":    BoolVal(false),
		"\"hi\"":   StrVal("hi"),
		"bytes[3]": BytesVal([]byte{1, 2, 3}),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	kinds := map[string]VKind{
		"int": VInt, "float": VFloat, "bool": VBool, "str": VStr, "bytes": VBytes,
	}
	for want, k := range kinds {
		if got := k.String(); got != want {
			t.Errorf("VKind.String() = %q, want %q", got, want)
		}
	}
	if got := VKind(99).String(); got != "vkind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}
