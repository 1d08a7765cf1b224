package vm

import (
	"strings"
	"testing"
)

// expectReject asserts that the program fails verification with an error
// mentioning the offending function by name and a byte offset, plus the
// given fragment — the contract the QPC surfaces to operator authors at
// publish time.
func expectReject(t *testing.T, src, fragment string) {
	t.Helper()
	p, err := Assemble(src)
	if err == nil {
		err = Verify(p)
	}
	if err == nil {
		t.Fatalf("verifier accepted program; want rejection mentioning %q", fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("rejection %q does not mention %q", err, fragment)
	}
}

func TestVerifierRejectsUnderflow(t *testing.T) {
	cases := []struct{ name, src, frag string }{
		{"pop empty", "program u\nfunc eval args=0 locals=0\npop\nret\nend", "stack underflow"},
		{"addi one value", "program u\nfunc eval args=0 locals=0\npushi 1\naddi\nret\nend", "stack underflow"},
		{"swap one value", "program u\nfunc eval args=0 locals=0\npushi 1\nswap\nret\nend", "stack underflow"},
		{"store empty", "program u\nfunc eval args=0 locals=1\nstore 0\nret\nend", "stack underflow"},
		{"cond jump empty", "program u\nfunc eval args=0 locals=0\njz out\nout:\nret\nend", "stack underflow"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { expectReject(t, c.src, c.frag) })
	}
}

func TestVerifierErrorNamesFunctionAndOffset(t *testing.T) {
	_, err := Assemble("program u\nfunc broken args=0 locals=0\nnop\npop\nret\nend")
	if err == nil {
		t.Fatal("want rejection")
	}
	for _, want := range []string{`function "broken"`, "offset 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestVerifierRejectsMergeDepthMismatch(t *testing.T) {
	// The two paths into label m arrive with depths 2 and 1.
	src := `
program m
func eval args=1 locals=0
  arg 0
  jz a
  pushi 1
  pushi 2
  jmp m
a:
  pushi 1
m:
  ret
end`
	expectReject(t, src, "depth mismatch at merge point")
}

func TestVerifierRejectsCallArity(t *testing.T) {
	src := `
program c
func eval args=0 locals=0
  pushi 1
  call two
  ret
end
func two args=2 locals=0
  arg 0
  arg 1
  addi
  ret
end`
	expectReject(t, src, "needs 2 args, stack has 1")
}

func TestVerifierRejectsRecursion(t *testing.T) {
	direct := `
program r
func eval args=0 locals=0
  call eval
  ret
end`
	expectReject(t, direct, "recursive call cycle")

	mutual := `
program r
func a args=0 locals=0
  call b
  ret
end
func b args=0 locals=0
  call a
  ret
end`
	expectReject(t, mutual, "recursive call cycle")
}

func TestVerifierRejectsUnreachableCode(t *testing.T) {
	src := `
program d
func eval args=0 locals=0
  pushi 1
  ret
  pushi 2
  ret
end`
	expectReject(t, src, "unreachable code")
}

// Regression: the structural verifier used to accept a function whose
// final instruction falls through past the end of its code, leaving the
// fault to be caught dynamically at a remote site mid-query.
func TestVerifyRejectsFallThroughPastEnd(t *testing.T) {
	cases := []string{
		"program f\nfunc eval args=0 locals=0\npushi 1\nend",
		"program f\nfunc eval args=0 locals=0\nnop\nend",
		"program f\nfunc eval args=1 locals=0\narg 0\njz out\nout:\nnop\nend",
	}
	for _, src := range cases {
		expectReject(t, src, "falls through past end of code")
	}
	// Direct Program construction, bypassing the assembler.
	p := &Program{Name: "f", Funcs: []Func{{Name: "eval", Code: []byte{byte(OpNop)}}}}
	if err := Verify(p); err == nil || !strings.Contains(err.Error(), "falls through") {
		t.Errorf("hand-built fall-through program: %v", err)
	}
}

func TestVerifierRejectsStaticKindViolations(t *testing.T) {
	cases := []struct{ name, src, frag string }{
		{"int to addf", "program k\nfunc eval args=0 locals=0\npushi 1\npushi 2\naddf\nret\nend", "needs float"},
		{"str to addi", "program k\nconst s str \"x\"\nfunc eval args=0 locals=0\nconst s\npushi 1\naddi\nret\nend", "needs int"},
		{"int to sqrt", "program k\nfunc eval args=0 locals=0\npushi 4\nhost sqrt\nret\nend", "needs float"},
		{"cross-kind compare", "program k\nconst f float 1\nfunc eval args=0 locals=0\nconst f\npushi 1\nlt\nret\nend", "compares"},
		{"bytes ordering", "program k\nfunc eval args=0 locals=0\npushi 1\nbnew\npushi 1\nbnew\nlt\nret\nend", "bytes support only eq/ne"},
		{"bool to jz", "program k\nfunc eval args=0 locals=0\npushi 1\njz out\nout:\nret\nend", "needs bool"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { expectReject(t, c.src, c.frag) })
	}
}

func TestVerifierCapabilityManifest(t *testing.T) {
	src := `
program caps
func eval args=2 locals=0
  arg 0
  host sqrt
  arg 1
  host pow
  f2i
  host absi
  i2f
  ret
end`
	p := MustAssemble(src)
	info := p.Verified()
	if info == nil {
		t.Fatal("no VerifyInfo after Verify")
	}
	want := []string{"absi", "pow", "sqrt"}
	if len(info.Capabilities) != len(want) {
		t.Fatalf("capabilities = %v, want %v", info.Capabilities, want)
	}
	for i := range want {
		if info.Capabilities[i] != want[i] {
			t.Fatalf("capabilities = %v, want %v (sorted)", info.Capabilities, want)
		}
	}
	if info.CapString() != "absi,pow,sqrt" {
		t.Errorf("CapString = %q", info.CapString())
	}

	pure := MustAssemble("program pure\nfunc eval args=0 locals=0\npushi 1\nret\nend")
	if got := pure.Verified().CapString(); got != "" {
		t.Errorf("pure program CapString = %q, want empty", got)
	}
}

func TestVerifierStaticBounds(t *testing.T) {
	// eval peaks at 2 slots, then calls helper with 1 arg at depth 2:
	// helper's frame peaks at 2 on top of depth 2-1 → total 3.
	src := `
program b
func eval args=0 locals=0
  pushi 1
  pushi 2
  call helper
  addi
  ret
end
func helper args=1 locals=0
  arg 0
  pushi 10
  muli
  ret
end`
	p := MustAssemble(src)
	info := p.Verified()
	if info.MaxStack != 3 {
		t.Errorf("MaxStack = %d, want 3", info.MaxStack)
	}
	if info.CallDepth != 2 {
		t.Errorf("CallDepth = %d, want 2", info.CallDepth)
	}
	fi := info.Funcs[p.FuncIndex("helper")]
	if fi.MaxStack != 2 || fi.CallDepth != 1 {
		t.Errorf("helper bounds = %+v", fi)
	}
}

func TestVerifierReturnKindInference(t *testing.T) {
	src := `
program r
const f float 2.5
func i args=0 locals=0
  pushi 1
  ret
end
func fl args=0 locals=0
  const f
  ret
end
func dyn args=1 locals=0
  arg 0
  ret
end
func void args=0 locals=0
  ret
end
func viaCall args=0 locals=0
  call fl
  ret
end`
	p := MustAssemble(src)
	info := p.Verified()
	want := map[string]string{"i": "int", "fl": "float", "dyn": "any", "void": "int", "viaCall": "float"}
	for _, fi := range info.Funcs {
		if fi.Ret != want[fi.Name] {
			t.Errorf("func %s: ret kind %q, want %q", fi.Name, fi.Ret, want[fi.Name])
		}
	}
}

func TestVerifierRejectsExcessiveStack(t *testing.T) {
	// 5000 pushes exceed the machine stack limit statically.
	var b strings.Builder
	b.WriteString("program deep\nfunc eval args=0 locals=0\n")
	for i := 0; i < 5000; i++ {
		b.WriteString("pushi 1\n")
	}
	b.WriteString("ret\nend")
	_, err := Assemble(b.String())
	if err == nil || !strings.Contains(err.Error(), "operand stack depth") {
		t.Errorf("deep program: %v", err)
	}
}

func TestVerifiedStampClearedByDecode(t *testing.T) {
	p := MustAssemble("program s\nfunc eval args=0 locals=0\npushi 7\nret\nend")
	if p.Verified() == nil {
		t.Fatal("Assemble should stamp verification")
	}
	q, err := Decode(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if q.Verified() != nil {
		t.Error("decoded program must not inherit the verification stamp (zero trust)")
	}
	m := New(Limits{})
	if _, err := m.Run(q, 0, nil, nil); err == nil || !strings.Contains(err.Error(), "not verified") {
		t.Fatalf("unverified program must be refused, got %v", err)
	}
	if err := q.Compile(); err == nil || m.FastRuns != 0 {
		t.Errorf("unverified program compiled (%v) or ran (%d)", err, m.FastRuns)
	}
	if err := Verify(q); err != nil {
		t.Fatal(err)
	}
	if v, err := m.Run(q, 0, nil, nil); err != nil || v.I != 7 {
		t.Fatalf("verified run: %v %v", v, err)
	}
	if m.FastRuns != 1 {
		t.Errorf("verified program should run: runs=%d", m.FastRuns)
	}
}
