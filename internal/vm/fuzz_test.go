package vm

import (
	"bytes"
	"math"
	"testing"
)

// fuzzProgram wraps arbitrary fuzzer bytes as the body of an eval
// function inside a program with a fixed const pool and a fixed aux
// helper (so OpConst and OpCall have legitimate targets to hit).
func fuzzProgram(code []byte, nargs, nglobals uint8) *Program {
	return &Program{
		Name:     "fz",
		NGlobals: int(nglobals % 4),
		Consts: []Value{
			IntVal(42),
			FloatVal(2.5),
			StrVal("mocha"),
			BytesVal([]byte{1, 2, 3, 4, 5, 6, 7, 8}),
			IntVal(math.MaxInt64), // a size no budget has room for
		},
		Funcs: []Func{
			{Name: "eval", NArgs: int(nargs % 4), NLocals: 4, Code: code},
			{Name: "aux", NArgs: 1, NLocals: 0, Code: []byte{
				byte(OpArg), 0, 0, 0, 0,
				byte(OpRet),
			}},
		},
	}
}

func fuzzArgs(n int) []Value {
	vals := []Value{IntVal(7), FloatVal(1.5), StrVal("s"), BytesVal([]byte{9, 8, 7})}
	return vals[:n]
}

// sameValue compares two values field by field. Floats compare by bit
// pattern, except that any NaN equals any NaN: which operand's payload
// and sign a NaN-producing add or multiply keeps is up to the order the
// Go compiler happened to put the operands in, not to the MVM.
func sameValue(a, b Value) bool {
	if a.K != b.K {
		return false
	}
	return a.I == b.I &&
		(math.Float64bits(a.F) == math.Float64bits(b.F) || a.F != a.F && b.F != b.F) &&
		a.S == b.S &&
		bytes.Equal(a.B, b.B)
}

// FuzzVerifySound is the soundness oracle for the dataflow verifier and
// the compiler built on it: any program Analyze accepts must (a) never
// raise a stack-bounds trap in the reference interpreter — those faults
// are exactly what verification claims to prove impossible — and (b)
// behave identically on the reference interpreter and the compiled
// engine: same value, same trap (function, pc, kind, text), same global
// side effects, same instruction count. Programs that read no
// dynamically-kinded inputs (no arg / gload) must additionally never
// raise a kind trap.
func FuzzVerifySound(f *testing.F) {
	seed := func(src string) {
		p := MustAssemble(src)
		f.Add(p.Funcs[0].Code, uint8(p.Funcs[0].NArgs), uint8(p.NGlobals))
	}
	seed("program s\nfunc eval args=1 locals=2\npushi 0\nstore 0\npushi 1\nstore 1\nloop:\nload 1\narg 0\ngt\njnz done\nload 0\nload 1\naddi\nstore 0\nload 1\npushi 1\naddi\nstore 1\njmp loop\ndone:\nload 0\nret\nend")
	seed("program s\nfunc eval args=0 locals=0\npushi 16\nbnew\npushi 0\npushi 8\nbslice\nblen\nret\nend")
	seed("program s\nconst f float 2.5\nfunc eval args=0 locals=0\nconst f\nhost sqrt\nhost absf\nret\nend")
	seed("program s\nglobals 2\nfunc eval args=0 locals=0\ngload 0\npushi 1\naddi\ngstore 0\ngload 1\nret\nend")
	seed("program s\nfunc eval args=1 locals=0\narg 0\ncall aux\nret\nend\nfunc aux args=1 locals=0\narg 0\nret\nend")
	seed("program s\nfunc eval args=0 locals=0\npushi 100\npushi 7\nmodi\npushi 0\neq\njz a\npushi 1\nret\na:\npushi 0\nret\nend")
	for _, src := range moveSeedSrcs {
		seed(src)
	}
	f.Add([]byte{byte(OpRet)}, uint8(0), uint8(0))
	f.Add([]byte{byte(OpConst), 0, 0, 0, 3, byte(OpBLen), byte(OpRet)}, uint8(0), uint8(0))
	// bcopy from the pool's bytes constant, which assembly cannot declare
	f.Add([]byte{byte(OpPushI), 0, 0, 0, 8, byte(OpBNew), byte(OpPushI), 0, 0, 0, 1, byte(OpConst), 0, 0, 0, 3,
		byte(OpPushI), 0, 0, 0, 2, byte(OpPushI), 0, 0, 0, 6, byte(OpBCopy), byte(OpRet)}, uint8(0), uint8(0))

	f.Fuzz(func(t *testing.T, code []byte, nargs, nglobals uint8) {
		p := fuzzProgram(code, nargs, nglobals)
		if err := Verify(p); err != nil {
			return // rejection is always sound
		}
		limits := DefaultLimits
		limits.MaxFuel = 50000
		got := parity(t, p, 0, limits, fuzzArgs(p.Funcs[0].NArgs))

		// Kind-exactness holds only for straight-line code with no
		// dynamically-kinded sources: arg and gload push runtime-kinded
		// values, call may return "any" (aux returns its argument), and
		// any jump can create a merge point whose join is "any". For
		// such code a kind trap is impossible; everywhere else the
		// verifier legitimately defers kind checks to runtime.
		kindExact := true
		for i := 0; i < len(code); i++ {
			op := Op(code[i])
			switch op {
			case OpArg, OpGLoad, OpCall, OpJmp, OpJz, OpJnz:
				kindExact = false
			}
			if int(op) < len(opInfo) && opInfo[op].operand {
				i += 4
			}
		}

		if tr, ok := got.err.(*Trap); ok {
			switch tr.Kind {
			case TrapStack, TrapGeneric:
				t.Fatalf("verified program raised %v trap: %v", tr.Kind, tr)
			case TrapType:
				if kindExact {
					t.Fatalf("verified straight-line program raised kind trap: %v", tr)
				}
			}
		}
	})
}
