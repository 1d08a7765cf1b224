package vm

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func run(t *testing.T, src, fn string, globals, args []Value) (Value, error) {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(Limits{})
	return m.Run(p, p.FuncIndex(fn), globals, args)
}

func mustRun(t *testing.T, src, fn string, globals, args []Value) Value {
	t.Helper()
	v, err := run(t, src, fn, globals, args)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	src := `
program arith
func eval args=2 locals=0
  arg 0
  arg 1
  addi
  pushi 3
  muli
  ret
end`
	v := mustRun(t, src, "eval", nil, []Value{IntVal(4), IntVal(6)})
	if v.I != 30 {
		t.Errorf("(4+6)*3 = %d, want 30", v.I)
	}
}

func TestFloatAndHost(t *testing.T) {
	src := `
program hyp
func eval args=2 locals=0
  arg 0
  arg 0
  mulf
  arg 1
  arg 1
  mulf
  addf
  host sqrt
  ret
end`
	v := mustRun(t, src, "eval", nil, []Value{FloatVal(3), FloatVal(4)})
	if v.F != 5 {
		t.Errorf("hypot(3,4) = %g, want 5", v.F)
	}
}

func TestLoopSum(t *testing.T) {
	// sum of 1..n using a loop with locals and a backward jump.
	src := `
program sum
func eval args=1 locals=2
  pushi 0
  store 0      ; acc
  pushi 1
  store 1      ; i
loop:
  load 1
  arg 0
  gt
  jnz done
  load 0
  load 1
  addi
  store 0
  load 1
  pushi 1
  addi
  store 1
  jmp loop
done:
  load 0
  ret
end`
	v := mustRun(t, src, "eval", nil, []Value{IntVal(100)})
	if v.I != 5050 {
		t.Errorf("sum 1..100 = %d, want 5050", v.I)
	}
}

func TestCallHelperFunctions(t *testing.T) {
	// Cross-function calls: eval(a,b) = square(a) + square(b), with
	// square built on a further helper. (Recursion is statically
	// rejected by the verifier; loops use jumps.)
	src := `
program calls
func eval args=2 locals=0
  arg 0
  call square
  arg 1
  call square
  addi
  ret
end
func square args=1 locals=0
  arg 0
  arg 0
  call mul
  ret
end
func mul args=2 locals=0
  arg 0
  arg 1
  muli
  ret
end`
	v := mustRun(t, src, "eval", nil, []Value{IntVal(3), IntVal(4)})
	if v.I != 25 {
		t.Errorf("3^2+4^2 = %d, want 25", v.I)
	}
}

func TestAggregateProtocol(t *testing.T) {
	// A shippable SUM aggregate: globals[0] accumulates.
	src := `
program sumagg
globals 1
const zero float 0
func reset args=0 locals=0
  const zero
  gstore 0
  ret
end
func update args=1 locals=0
  gload 0
  arg 0
  addf
  gstore 0
  ret
end
func summarize args=0 locals=0
  gload 0
  ret
end`
	p := MustAssemble(src)
	m := New(Limits{})
	globals := make([]Value, 1)
	if _, err := m.Run(p, p.FuncIndex("reset"), globals, nil); err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1.5, 2.5, 3} {
		if _, err := m.Run(p, p.FuncIndex("update"), globals, []Value{FloatVal(x)}); err != nil {
			t.Fatal(err)
		}
	}
	v, err := m.Run(p, p.FuncIndex("summarize"), globals, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.F != 7 {
		t.Errorf("sum = %g, want 7", v.F)
	}
	// Reset clears state for reuse (per-group aggregation).
	if _, err := m.Run(p, p.FuncIndex("reset"), globals, nil); err != nil {
		t.Fatal(err)
	}
	v, _ = m.Run(p, p.FuncIndex("summarize"), globals, nil)
	if v.F != 0 {
		t.Errorf("after reset sum = %g, want 0", v.F)
	}
}

func TestByteBufferOps(t *testing.T) {
	// Average of a byte buffer — the core of AvgEnergy.
	src := `
program avg
func eval args=1 locals=3
  pushi 0
  store 0      ; sum
  pushi 0
  store 1      ; i
  arg 0
  blen
  store 2      ; n
loop:
  load 1
  load 2
  ge
  jnz done
  load 0
  arg 0
  load 1
  ldu8
  addi
  store 0
  load 1
  pushi 1
  addi
  store 1
  jmp loop
done:
  load 0
  i2f
  load 2
  i2f
  divf
  ret
end`
	v := mustRun(t, src, "eval", nil, []Value{BytesVal([]byte{10, 20, 30, 40})})
	if v.F != 25 {
		t.Errorf("avg = %g, want 25", v.F)
	}
}

func TestBNewStoreSlice(t *testing.T) {
	src := `
program build
func eval args=0 locals=1
  pushi 8
  bnew
  store 0
  load 0
  pushi 0
  pushi 42
  stu8
  pop
  load 0
  pushi 4
  pushi 7
  sti32
  pop
  load 0
  pushi 4
  pushi 8
  bslice
  pushi 0
  ldi32
  ret
end`
	v := mustRun(t, src, "eval", nil, nil)
	if v.I != 7 {
		t.Errorf("stored/loaded i32 = %d, want 7", v.I)
	}
}

func TestReadOnlyBufferTrap(t *testing.T) {
	src := `
program mut
func eval args=1 locals=0
  arg 0
  pushi 0
  pushi 1
  stu8
  ret
end`
	_, err := run(t, src, "eval", nil, []Value{BytesVal([]byte{0})})
	if err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Errorf("expected read-only trap, got %v", err)
	}
}

func TestDivideByZeroTrap(t *testing.T) {
	src := `
program div
func eval args=1 locals=0
  pushi 1
  arg 0
  divi
  ret
end`
	if _, err := run(t, src, "eval", nil, []Value{IntVal(0)}); err == nil {
		t.Error("expected divide-by-zero trap")
	}
	v := mustRun(t, src, "eval", nil, []Value{IntVal(2)})
	if v.I != 0 {
		t.Errorf("1/2 = %d", v.I)
	}
}

func TestFuelExhaustion(t *testing.T) {
	src := `
program spin
func eval args=0 locals=0
loop:
  jmp loop
end`
	p := MustAssemble(src)
	m := New(Limits{MaxFuel: 1000})
	_, err := m.Run(p, 0, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "fuel") {
		t.Errorf("expected fuel trap, got %v", err)
	}
	if m.Instrs != 1000 || m.LastRunInstrs != 1000 {
		t.Errorf("Instrs = %d, LastRunInstrs = %d, want 1000", m.Instrs, m.LastRunInstrs)
	}
}

func TestCallDepthTrap(t *testing.T) {
	// A verified 10-deep call chain whose static CallDepth exceeds this
	// machine's limit is refused with a typed error before anything runs.
	var b strings.Builder
	b.WriteString("program chain\n")
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&b, "func f%d args=0 locals=0\n", i)
		if i < 9 {
			fmt.Fprintf(&b, "call f%d\n", i+1)
		} else {
			b.WriteString("pushi 1\n")
		}
		b.WriteString("ret\nend\n")
	}
	p := MustAssemble(b.String())
	if info := p.Verified(); info == nil || info.CallDepth != 10 {
		t.Fatalf("static call depth = %+v, want 10", info)
	}
	m := New(Limits{MaxCallDepth: 2})
	_, err := m.Run(p, 0, nil, nil)
	var le *LimitError
	if !errors.As(err, &le) || *le != (LimitError{Program: "chain", Limit: "MaxCallDepth", Need: 10, Max: 2}) {
		t.Fatalf("expected a call depth LimitError, got %#v", err)
	}
	if !strings.Contains(err.Error(), "call depth 10") || Limits.Admit(Limits{MaxCallDepth: 2}, p) == nil {
		t.Errorf("limit error text %q / Admit disagree with Run", err)
	}
	if m.CheckedRuns != 0 || m.FastRuns != 0 || m.Instrs != 0 {
		t.Errorf("a refused program must not run: runs=%d checked=%d instrs=%d", m.FastRuns, m.CheckedRuns, m.Instrs)
	}
	// The other static bound: an operand stack deeper than the machine's.
	deep := MustAssemble("program deep\nfunc eval args=0 locals=0\npushi 1\npushi 2\npushi 3\naddi\naddi\nret\nend")
	if _, err := New(Limits{MaxStack: 2}).Run(deep, 0, nil, nil); !errors.As(err, &le) || le.Limit != "MaxStack" || le.Need != 3 {
		t.Errorf("expected a stack LimitError, got %v", err)
	}
	// With a roomy machine the chain runs.
	m2 := New(Limits{})
	if v, err := m2.Run(p, 0, nil, nil); err != nil || v.I != 1 {
		t.Errorf("chain run: %v %v", v, err)
	}
	if m2.FastRuns != 1 {
		t.Errorf("expected one run, got %d", m2.FastRuns)
	}
}

func TestAllocBudgetTrap(t *testing.T) {
	src := `
program alloc
func eval args=0 locals=0
loop:
  pushi 1024
  bnew
  pop
  jmp loop
end`
	p := MustAssemble(src)
	m := New(Limits{MaxAlloc: 10 * 1024})
	_, err := m.Run(p, 0, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "allocation") {
		t.Errorf("expected allocation trap, got %v", err)
	}
}

func TestOutOfBoundsLoadTrap(t *testing.T) {
	src := `
program oob
func eval args=1 locals=0
  arg 0
  pushi 100
  ldu8
  ret
end`
	_, err := run(t, src, "eval", nil, []Value{BytesVal([]byte{1, 2})})
	if err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Errorf("expected bounds trap, got %v", err)
	}
}

func TestTypeConfusionTraps(t *testing.T) {
	// Kinds flowing through args are dynamic (akAny): the verifier
	// accepts these, and the runtime kind check traps.
	cases := []string{
		"arg 0\narg 0\naddi\nret", // float+float with addi
		"arg 0\nnot\nret",         // not on float
	}
	for _, body := range cases {
		src := "program t\nfunc eval args=1 locals=0\n" + body + "\nend"
		if _, err := run(t, src, "eval", nil, []Value{FloatVal(1)}); err == nil {
			t.Errorf("expected type trap for %q", body)
		}
	}
	// A statically-known kind mismatch never even assembles.
	if _, err := Assemble("program t\nfunc eval args=1 locals=0\narg 0\npushi 1\naddf\nret\nend"); err == nil {
		t.Error("expected static rejection of int operand to addf")
	}
}

func TestCompareSemantics(t *testing.T) {
	src := `
program cmp
func eval args=2 locals=0
  arg 0
  arg 1
  lt
  ret
end`
	if v := mustRun(t, src, "eval", nil, []Value{StrVal("abc"), StrVal("abd")}); !v.Bool() {
		t.Error("string lt broken")
	}
	if v := mustRun(t, src, "eval", nil, []Value{FloatVal(1), FloatVal(math.NaN())}); v.Bool() {
		t.Error("NaN comparison should be false")
	}
	if _, err := run(t, src, "eval", nil, []Value{IntVal(1), FloatVal(2)}); err == nil {
		t.Error("cross-kind comparison should trap")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	src := `
program round version 2.5
globals 3
const a int 42
const b float 3.5
const c str "hello"
func eval args=2 locals=1
  arg 0
  arg 1
  addi
  ret
end
func helper args=0 locals=0
  const a
  ret
end`
	p := MustAssemble(src)
	enc := p.Encode()
	q, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "round" || q.Version != "2.5" || q.NGlobals != 3 {
		t.Errorf("header lost: %+v", q)
	}
	if len(q.Consts) != 3 || q.Consts[2].S != "hello" {
		t.Errorf("consts lost: %v", q.Consts)
	}
	if len(q.Funcs) != 2 || q.Funcs[1].Name != "helper" {
		t.Errorf("funcs lost")
	}
	if err := Verify(q); err != nil {
		t.Errorf("decoded program fails verify: %v", err)
	}
	if p.Checksum() != q.Checksum() {
		t.Error("checksum not stable across round trip")
	}
	m := New(Limits{})
	v, err := m.Run(q, q.FuncIndex("eval"), make([]Value, 3), []Value{IntVal(1), IntVal(2)})
	if err != nil || v.I != 3 {
		t.Errorf("decoded program misbehaves: %v %v", v, err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("MVM1"),
		[]byte("MVM1\x00\x01a"),
	}
	for _, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("Decode(%q) should fail", c)
		}
	}
	// Trailing garbage after a valid program.
	p := MustAssemble("program x\nfunc eval args=0 locals=0\nret\nend")
	enc := append(p.Encode(), 0xFF)
	if _, err := Decode(enc); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestQuickDecodeNeverPanics(t *testing.T) {
	// Property: arbitrary bytes never panic the decoder (they may error).
	f := func(data []byte) bool {
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Also with a valid prefix.
	p := MustAssemble("program x\nfunc eval args=0 locals=0\nret\nend")
	enc := p.Encode()
	for i := 0; i < len(enc); i++ {
		_, _ = Decode(enc[:i])
	}
}

func TestVerifyRejections(t *testing.T) {
	mk := func(mutate func(p *Program)) error {
		p := MustAssemble("program x\nconst c int 1\nfunc eval args=1 locals=1\narg 0\nret\nend")
		mutate(p)
		return Verify(p)
	}
	cases := []struct {
		name   string
		mutate func(p *Program)
		want   string
	}{
		{"no funcs", func(p *Program) { p.Funcs = nil }, `vm: program "x" has no functions`},
		{"bad opcode", func(p *Program) { p.Funcs[0].Code = []byte{255} }, `vm: program "x" function "eval": invalid opcode 255 at offset 0`},
		{"truncated operand", func(p *Program) { p.Funcs[0].Code = []byte{byte(OpPushI), 0} }, `vm: program "x" function "eval": truncated operand for pushi at offset 0`},
		{"const oob", func(p *Program) { p.Funcs[0].Code = mkCode(OpConst, 9) }, `vm: program "x" function "eval": const index 9 out of range at offset 0`},
		{"arg oob", func(p *Program) { p.Funcs[0].Code = mkCode(OpArg, 1) }, `vm: program "x" function "eval": arg index 1 out of range at offset 0`},
		{"local oob", func(p *Program) { p.Funcs[0].Code = mkCode(OpLoad, 5) }, `vm: program "x" function "eval": local index 5 out of range at offset 0`},
		{"global oob", func(p *Program) { p.Funcs[0].Code = mkCode(OpGLoad, 0) }, `vm: program "x" function "eval": global index 0 out of range at offset 0`},
		{"call oob", func(p *Program) { p.Funcs[0].Code = mkCode(OpCall, 3) }, `vm: program "x" function "eval": call target 3 out of range at offset 0`},
		{"host oob", func(p *Program) { p.Funcs[0].Code = mkCode(OpHost, 99) }, `vm: program "x" function "eval": host intrinsic 99 unknown at offset 0`},
		{"jump into operand", func(p *Program) { p.Funcs[0].Code = append(mkCode(OpJmp, 2), byte(OpRet)) }, `vm: program "x" function "eval": jump at offset 0 targets 2, not an instruction boundary`},
		{"negative jump target", func(p *Program) { p.Funcs[0].Code = append(mkCode(OpJmp, -5), byte(OpRet)) }, `vm: program "x" function "eval": jump at offset 0 targets -5, not an instruction boundary`},
		{"jump past the end", func(p *Program) { p.Funcs[0].Code = append(mkCode(OpJmp, 6), byte(OpRet)) }, `vm: program "x" function "eval": jump at offset 0 targets 6, not an instruction boundary`},
		{"jz into an operand", func(p *Program) {
			p.Funcs[0].Code = append(append(mkCode(OpPushI, 0), mkCode(OpJz, 7)...), byte(OpRet))
		}, `vm: program "x" function "eval": jump at offset 5 targets 7, not an instruction boundary`},
		{"empty code", func(p *Program) { p.Funcs[0].Code = nil }, `vm: program "x" function "eval": has no code`},
		{"too many globals", func(p *Program) { p.NGlobals = 10000 }, `vm: program "x" declares 10000 globals (max 256)`},
		{"dup func", func(p *Program) { p.Funcs = append(p.Funcs, p.Funcs[0]) }, `vm: duplicate function "eval"`},
	}
	for _, c := range cases {
		err := mk(c.mutate)
		if err == nil {
			t.Errorf("%s: verify should reject", c.name)
		} else if err.Error() != c.want {
			t.Errorf("%s: error %q, want %q", c.name, err, c.want)
		}
	}
}

func mkCode(op Op, operand int32) []byte {
	return []byte{byte(op), byte(operand >> 24), byte(operand >> 16), byte(operand >> 8), byte(operand)}
}

func TestAssemblerErrors(t *testing.T) {
	cases := []string{
		"func eval args=1 locals=0\nbogus\nend",
		"func eval\njmp nowhere\nend",
		"func eval\nconst missing\nend",
		"func eval\narg 0",                   // unterminated
		"func a\nret\nend\nfunc a\nret\nend", // duplicate
		"const x int notanumber",
		"const x weird 1",
		"func eval args=1 locals=0\npushi\nend", // missing operand
		"func eval args=1 locals=0\nret 5\nend", // spurious operand
		"end",
		"ret",
		"func eval args=1 locals=0\nl:\nl:\nret\nend", // duplicate label
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble should fail for %q", src)
		}
	}
}

func TestDisassembleRoundTrips(t *testing.T) {
	src := `
program demo
const k float 2.5
func eval args=1 locals=1
  arg 0
  const k
  mulf
  host sqrt
  ret
end`
	p := MustAssemble(src)
	d := Disassemble(p)
	for _, want := range []string{"program demo", "func eval", "mulf", "host sqrt", "ret"} {
		if !strings.Contains(d, want) {
			t.Errorf("disassembly missing %q:\n%s", want, d)
		}
	}
}

// TestBlockMoveRoundTrip takes a program with a bcopy from assembly to
// the wire and back to assembly: the decoded program verifies to the
// same digest and cost, runs to the same bytes, and disassembles with
// the mnemonic where the assembler put it.
func TestBlockMoveRoundTrip(t *testing.T) {
	p := MustAssemble(`
program move version 1.1
func eval args=1 locals=0
  pushi 6
  bnew
  pushi 1
  arg 0
  pushi 2
  pushi 4
  bcopy
  ret
end`)
	q, err := Decode(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(q); err != nil {
		t.Fatal(err)
	}
	if q.Checksum() != p.Checksum() || q.Verified().Cost != p.Verified().Cost {
		t.Errorf("decoded program: digest %s cost %v, assembled %s %v", q.Checksum(), q.Verified().Cost, p.Checksum(), p.Verified().Cost)
	}
	v, err := New(Limits{}).Run(q, 0, nil, []Value{BytesVal([]byte{1, 2, 3, 4, 5, 6, 7})})
	if err != nil || string(v.B) != "\x00\x03\x04\x05\x06\x00" {
		t.Errorf("decoded program returned %v, %v", v.B, err)
	}
	if d := Disassemble(q); d != Disassemble(p) || !strings.Contains(d, "  26: bcopy\n    27: ret\n") {
		t.Errorf("disassembly:\n%s", d)
	}
}

func TestHostIntrinsics(t *testing.T) {
	cases := []struct {
		host string
		args []Value
		want float64
	}{
		{"sqrt", []Value{FloatVal(9)}, 3},
		{"absf", []Value{FloatVal(-2.5)}, 2.5},
		{"floor", []Value{FloatVal(2.7)}, 2},
		{"ceil", []Value{FloatVal(2.1)}, 3},
		{"exp", []Value{FloatVal(0)}, 1},
		{"log", []Value{FloatVal(math.E)}, 1},
	}
	for _, c := range cases {
		src := "program h\nfunc eval args=1 locals=0\narg 0\nhost " + c.host + "\nret\nend"
		v := mustRun(t, src, "eval", nil, c.args)
		if math.Abs(v.F-c.want) > 1e-12 {
			t.Errorf("%s(%v) = %g, want %g", c.host, c.args[0], v.F, c.want)
		}
	}
	// pow takes two args.
	src := "program h\nfunc eval args=2 locals=0\narg 0\narg 1\nhost pow\nret\nend"
	if v := mustRun(t, src, "eval", nil, []Value{FloatVal(2), FloatVal(10)}); v.F != 1024 {
		t.Errorf("pow(2,10) = %g", v.F)
	}
	// absi on ints.
	src = "program h\nfunc eval args=1 locals=0\narg 0\nhost absi\nret\nend"
	if v := mustRun(t, src, "eval", nil, []Value{IntVal(-5)}); v.I != 5 {
		t.Errorf("absi(-5) = %d", v.I)
	}
	// sqrt of negative traps.
	src = "program h\nfunc eval args=1 locals=0\narg 0\nhost sqrt\nret\nend"
	if _, err := run(t, src, "eval", nil, []Value{FloatVal(-1)}); err == nil {
		t.Error("sqrt(-1) should trap")
	}
}

func TestQuickVMArithMatchesGo(t *testing.T) {
	src := `
program mix
func eval args=2 locals=0
  arg 0
  arg 1
  muli
  arg 0
  arg 1
  addi
  subi
  ret
end`
	p := MustAssemble(src)
	m := New(Limits{})
	f := func(a, b int16) bool {
		v, err := m.Run(p, 0, nil, []Value{IntVal(int64(a)), IntVal(int64(b))})
		if err != nil {
			return false
		}
		return v.I == int64(a)*int64(b)-(int64(a)+int64(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSwapDupPop(t *testing.T) {
	src := `
program s
func eval args=2 locals=0
  arg 0
  arg 1
  swap
  subi    ; arg1 - arg0
  dup
  addi    ; 2*(arg1-arg0)
  ret
end`
	v := mustRun(t, src, "eval", nil, []Value{IntVal(3), IntVal(10)})
	if v.I != 14 {
		t.Errorf("got %d, want 14", v.I)
	}
}

func TestStrLen(t *testing.T) {
	src := "program s\nfunc eval args=1 locals=0\narg 0\nslen\nret\nend"
	if v := mustRun(t, src, "eval", nil, []Value{StrVal("hello")}); v.I != 5 {
		t.Errorf("slen = %d", v.I)
	}
}

func TestVoidReturn(t *testing.T) {
	src := "program v\nfunc eval args=0 locals=0\nret\nend"
	v := mustRun(t, src, "eval", nil, nil)
	if v.K != VInt || v.I != 0 {
		t.Errorf("void return = %v", v)
	}
}

func TestRunArgumentValidation(t *testing.T) {
	p := MustAssemble("program v\nglobals 2\nfunc eval args=1 locals=0\narg 0\nret\nend")
	m := New(Limits{})
	if _, err := m.Run(p, 5, nil, nil); err == nil {
		t.Error("bad function index accepted")
	}
	if _, err := m.Run(p, 0, make([]Value, 2), nil); err == nil {
		t.Error("wrong arg count accepted")
	}
	if _, err := m.Run(p, 0, nil, []Value{IntVal(1)}); err == nil {
		t.Error("missing globals accepted")
	}
}
