package vm

import (
	"strings"
	"testing"
)

// TestDifferentialTrapParity drives the same verified program through
// the reference interpreter and the compiled engine and asserts
// identical outcomes — value on success; trap function, PC, kind and
// message on failure; instruction count either way. This is the
// deterministic core of what FuzzVerifySound explores randomly, pinned
// on the trap arms the fuzzer reaches only probabilistically.
func TestDifferentialTrapParity(t *testing.T) {
	cases := []struct {
		name string
		src  string
		args []Value
		kind TrapKind // TrapGeneric means "expect success"
		frag string
	}{
		{"div by zero", `
program p
func eval args=1 locals=0
  pushi 10
  arg 0
  divi
  ret
end`, []Value{IntVal(0)}, TrapMath, "divide by zero"},
		{"mod by zero", `
program p
func eval args=1 locals=0
  pushi 10
  arg 0
  modi
  ret
end`, []Value{IntVal(0)}, TrapMath, "modulo by zero"},
		{"arg kind confusion addi", `
program p
func eval args=1 locals=0
  arg 0
  pushi 1
  addi
  ret
end`, []Value{FloatVal(1.5)}, TrapType, "needs ints"},
		{"arg kind confusion addf", `
program p
const f float 1
func eval args=1 locals=0
  arg 0
  const f
  addf
  ret
end`, []Value{IntVal(3)}, TrapType, "needs floats"},
		{"arg kind confusion negi", `
program p
func eval args=1 locals=0
  arg 0
  negi
  ret
end`, []Value{StrVal("x")}, TrapType, "negi needs"},
		{"arg kind confusion negf", `
program p
func eval args=1 locals=0
  arg 0
  negf
  ret
end`, []Value{IntVal(3)}, TrapType, "negf needs"},
		{"arg kind confusion i2f", `
program p
func eval args=1 locals=0
  arg 0
  i2f
  ret
end`, []Value{FloatVal(1)}, TrapType, "i2f needs"},
		{"arg kind confusion f2i", `
program p
func eval args=1 locals=0
  arg 0
  f2i
  ret
end`, []Value{IntVal(1)}, TrapType, "f2i needs"},
		{"arg kind confusion not", `
program p
func eval args=1 locals=0
  arg 0
  not
  ret
end`, []Value{IntVal(1)}, TrapType, "not needs"},
		{"arg kind confusion logic", `
program p
func eval args=2 locals=0
  arg 0
  arg 1
  and
  ret
end`, []Value{IntVal(1), IntVal(1)}, TrapType, "logic op needs bools"},
		{"arg kind confusion jz", `
program p
func eval args=1 locals=0
  arg 0
  jz out
out:
  pushi 1
  ret
end`, []Value{IntVal(1)}, TrapType, "conditional jump needs"},
		{"cross kind compare", `
program p
func eval args=2 locals=0
  arg 0
  arg 1
  lt
  ret
end`, []Value{IntVal(1), FloatVal(1)}, TrapType, "comparison of"},
		{"blen on non bytes", `
program p
func eval args=1 locals=0
  arg 0
  blen
  ret
end`, []Value{IntVal(1)}, TrapType, "blen needs"},
		{"slen on non string", `
program p
func eval args=1 locals=0
  arg 0
  slen
  ret
end`, []Value{IntVal(1)}, TrapType, "slen needs"},
		{"byte load out of bounds", `
program p
func eval args=1 locals=0
  arg 0
  pushi 100
  ldu8
  ret
end`, []Value{BytesVal([]byte{1, 2, 3})}, TrapBounds, "out of bounds"},
		{"ldf64 out of bounds", `
program p
func eval args=1 locals=0
  arg 0
  pushi 0
  ldf64
  ret
end`, []Value{BytesVal([]byte{1, 2, 3})}, TrapBounds, "out of bounds"},
		{"byte load kind", `
program p
func eval args=1 locals=0
  arg 0
  pushi 0
  ldi32
  ret
end`, []Value{IntVal(9)}, TrapType, "byte load needs"},
		{"store into read only", `
program p
func eval args=1 locals=0
  arg 0
  pushi 0
  pushi 7
  stu8
  blen
  ret
end`, []Value{BytesVal([]byte{1, 2, 3})}, TrapBounds, "read-only"},
		{"byte store out of bounds", `
program p
func eval args=0 locals=0
  pushi 2
  bnew
  pushi 9
  pushi 7
  stu8
  blen
  ret
end`, nil, TrapBounds, "out of bounds"},
		{"sti32 value kind", `
program p
func eval args=2 locals=0
  arg 0
  pushi 0
  arg 1
  sti32
  blen
  ret
end`, []Value{mutableBytes(8), FloatVal(1)}, TrapType, "sti32 needs"},
		{"stf32 value kind", `
program p
func eval args=2 locals=0
  arg 0
  pushi 0
  arg 1
  stf32
  blen
  ret
end`, []Value{mutableBytes(8), IntVal(1)}, TrapType, "stf32 needs"},
		{"bnew negative", `
program p
func eval args=1 locals=0
  arg 0
  bnew
  blen
  ret
end`, []Value{IntVal(-1)}, TrapBounds, "negative size"},
		{"bnew alloc budget", `
program p
func eval args=1 locals=0
  arg 0
  bnew
  blen
  ret
end`, []Value{IntVal(1 << 40)}, TrapResource, "allocation budget"},
		{"bslice out of bounds", `
program p
func eval args=1 locals=0
  arg 0
  pushi 0
  pushi 100
  bslice
  blen
  ret
end`, []Value{BytesVal([]byte{1, 2, 3})}, TrapBounds, "out of bounds"},
		{"bslice kind", `
program p
func eval args=1 locals=0
  arg 0
  pushi 0
  pushi 1
  bslice
  blen
  ret
end`, []Value{IntVal(1)}, TrapType, "bslice needs"},
		{"sqrt of negative", `
program p
func eval args=1 locals=0
  arg 0
  host sqrt
  ret
end`, []Value{FloatVal(-4)}, TrapMath, "sqrt"},
		{"log of zero", `
program p
func eval args=1 locals=0
  arg 0
  host log
  ret
end`, []Value{FloatVal(0)}, TrapMath, "log"},
		{"host arg kind", `
program p
func eval args=1 locals=0
  arg 0
  host sqrt
  ret
end`, []Value{IntVal(4)}, TrapType, "sqrt"},
		{"pow success", `
program p
func eval args=2 locals=0
  arg 0
  arg 1
  host pow
  ret
end`, []Value{FloatVal(2), FloatVal(10)}, TrapGeneric, ""},
		{"fuel exhaustion", `
program p
func eval args=0 locals=0
loop:
  jmp loop
end`, nil, TrapResource, "fuel exhausted"},
		{"successful byte pipeline", `
program p
func eval args=1 locals=0
  arg 0
  pushi 1
  pushi 3
  bslice
  pushi 0
  ldu8
  ret
end`, []Value{BytesVal([]byte{10, 20, 30, 40})}, TrapGeneric, ""},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := MustAssemble(c.src)
			limits := DefaultLimits
			limits.MaxFuel = 10000
			got := parity(t, p, 0, limits, c.args)
			if c.frag == "" {
				if got.err != nil {
					t.Fatalf("want success, got %v", got.err)
				}
				return
			}
			tr, ok := got.err.(*Trap)
			if !ok {
				t.Fatalf("want trap, got %v", got.err)
			}
			if tr.Kind != c.kind {
				t.Errorf("kind = %v, want %v", tr.Kind, c.kind)
			}
			if !strings.Contains(tr.Msg, c.frag) {
				t.Errorf("msg %q missing %q", tr.Msg, c.frag)
			}
			if tr.Kind.String() == "" {
				t.Errorf("trap kind %d has no name", tr.Kind)
			}
		})
	}
}

// mutableBytes builds a writable buffer argument (BytesVal buffers are
// read-only; only bnew produces writable ones inside the VM).
func mutableBytes(n int) Value {
	v := BytesVal(make([]byte, n))
	v.W = true
	return v
}

// TestComparePolymorphism pins the comparison matrix on both the
// reference interpreter and the compiled engine.
func TestComparePolymorphism(t *testing.T) {
	cases := []struct {
		src  string
		args []Value
		want int64
	}{
		{"program p\nfunc eval args=2 locals=0\narg 0\narg 1\neq\nret\nend",
			[]Value{StrVal("a"), StrVal("a")}, 1},
		{"program p\nfunc eval args=2 locals=0\narg 0\narg 1\nlt\nret\nend",
			[]Value{StrVal("a"), StrVal("b")}, 1},
		{"program p\nfunc eval args=2 locals=0\narg 0\narg 1\nge\nret\nend",
			[]Value{FloatVal(2), FloatVal(2)}, 1},
		{"program p\nfunc eval args=2 locals=0\narg 0\narg 1\nne\nret\nend",
			[]Value{BytesVal([]byte{1}), BytesVal([]byte{2})}, 1},
		{"program p\nfunc eval args=2 locals=0\narg 0\narg 1\neq\nret\nend",
			[]Value{BytesVal([]byte{1, 2}), BytesVal([]byte{1, 2})}, 1},
		{"program p\nfunc eval args=2 locals=0\narg 0\narg 1\nle\nret\nend",
			[]Value{IntVal(3), IntVal(2)}, 0},
		{"program p\nfunc eval args=2 locals=0\narg 0\narg 1\ngt\nret\nend",
			[]Value{BoolVal(true), BoolVal(false)}, 1},
	}
	for _, c := range cases {
		p := MustAssemble(c.src)
		got := parity(t, p, 0, Limits{}, c.args)
		if got.err != nil {
			t.Fatalf("%s: %v", c.src, got.err)
		}
		if got.val.I != c.want {
			t.Errorf("%s = %v, want %d", c.src, got.val.I, c.want)
		}
	}
}
