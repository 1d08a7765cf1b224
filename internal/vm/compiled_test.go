package vm

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// progGen writes random MVM assembly that the verifier mostly accepts:
// statements (net stack effect zero) built from expressions of a wanted
// kind, where "wanted int" may be served by a dynamically kinded source
// that holds something else at run time. It deliberately leaves
// operands pending across statements, merges values of different kinds,
// and reads buffers at offsets that may be out of range — the places
// where a compiler that folds stack traffic can get order, kinds or
// counts wrong.
type progGen struct {
	r      *rand.Rand
	b      strings.Builder
	labels int
	depth  int
}

const (
	genArgs    = 3 // int, bytes, float at run time
	genLocals  = 6 // 0,1: ints only; 2: loop counter; 3..5: anything
	genGlobals = 2
)

func (g *progGen) emit(format string, a ...any) { fmt.Fprintf(&g.b, format+"\n", a...) }
func (g *progGen) label() string                { g.labels++; return fmt.Sprintf("L%d", g.labels) }
func (g *progGen) pick(n int) int               { return g.r.Intn(n) }

// dyn pushes a dynamically kinded value, more often than not one that
// will hold kind k when the program runs.
func (g *progGen) dyn(k absKind) {
	if g.pick(3) > 0 && (k == akInt || k == akFloat) {
		g.emit(map[absKind][]string{akInt: {"arg 0", "gload 0"}, akFloat: {"arg 2", "arg 2"}}[k][g.pick(2)])
		return
	}
	switch g.pick(5) {
	case 0:
		g.emit("arg %d", g.pick(genArgs)*g.pick(2))
	case 1:
		g.emit("gload %d", g.pick(genGlobals))
	case 2:
		g.emit("load %d", 3+g.pick(3))
	case 3:
		g.expr(akInt)
		g.emit("call aux")
	default: // two kinds merging into one slot
		a, b := g.label(), g.label()
		g.expr(akBool)
		g.emit("jz %s", a)
		g.expr(akInt)
		g.emit("jmp %s", b)
		g.emit("%s:", a)
		g.expr(akFloat)
		g.emit("%s:", b)
	}
}

// expr pushes one value the verifier will accept where kind k is wanted.
func (g *progGen) expr(k absKind) {
	g.depth++
	defer func() { g.depth-- }()
	if g.depth > 4 || g.pick(6) == 0 {
		g.leaf(k)
		return
	}
	if g.pick(8) == 0 && k != akBytes {
		g.dyn(k)
		return
	}
	if g.pick(9) == 0 { // a statement while operands are pending below
		g.stmt()
	}
	switch k {
	case akInt:
		switch g.pick(9) {
		case 0, 1, 2:
			g.expr(akInt)
			g.expr(akInt)
			g.emit([]string{"addi", "subi", "muli", "divi", "modi", "pop\npushi 3\ndivi", "pop\npushi 5\nmodi"}[g.pick(7)])
		case 3:
			g.expr(akInt)
			g.emit([]string{"negi", "host absi", "dup\nmuli", "dup\naddi"}[g.pick(4)])
		case 4, 5:
			g.expr(akBytes)
			g.expr(akInt)
			g.emit([]string{"ldu8", "ldi32", "host absi\npushi 5\nmodi\nldu8", "host absi\npushi 5\nmodi\nldi32"}[g.pick(4)])
		case 6:
			g.expr(akBytes)
			g.emit("blen")
		case 7:
			g.expr(akFloat)
			g.emit("f2i")
		default:
			g.emit("const s\nslen")
		}
	case akFloat:
		switch g.pick(6) {
		case 0, 1:
			g.expr(akFloat)
			g.expr(akFloat)
			g.emit([]string{"addf", "subf", "mulf", "divf", "host pow", "swap\nsubf"}[g.pick(6)])
		case 2:
			g.expr(akFloat)
			g.emit("host %s", []string{"sqrt", "absf", "floor", "ceil", "log", "exp"}[g.pick(6)])
		case 3:
			g.expr(akBytes)
			g.expr(akInt)
			g.emit([]string{"ldf32", "ldf64"}[g.pick(2)])
		case 4:
			g.expr(akInt)
			g.emit("i2f")
		default:
			g.expr(akFloat)
			g.emit("negf")
		}
	case akBool:
		switch g.pick(5) {
		case 0, 1:
			k := []absKind{akInt, akFloat, akBool}[g.pick(3)]
			g.expr(k)
			g.expr(k)
			g.emit([]string{"eq", "ne", "lt", "le", "gt", "ge"}[g.pick(6)])
		case 2:
			k := []absKind{akInt, akFloat}[g.pick(2)]
			g.dyn(k)
			g.dyn(k)
			g.emit([]string{"eq", "ne", "lt"}[g.pick(3)])
		case 3:
			g.expr(akBool)
			g.expr(akBool)
			g.emit([]string{"and", "or"}[g.pick(2)])
		default:
			g.expr(akBool)
			g.emit("not")
		}
	case akBytes:
		switch g.pick(5) {
		case 0:
			g.emit("pushi %d\nbnew", g.pick(24))
		case 4:
			g.bcopy()
		case 1:
			g.expr(akBytes)
			g.expr(akInt)
			g.expr(akInt)
			g.emit("bslice")
		case 2:
			g.emit("pushi %d\nbnew", 8+g.pick(9))
			g.expr(akInt)
			g.expr(akInt)
			g.emit([]string{"stu8", "sti32"}[g.pick(2)])
		default:
			g.leaf(akBytes)
		}
	}
}

// bcopy pushes the destination of a block move: mostly into a fresh
// buffer, at small offsets, a length that may or may not fit.
func (g *progGen) bcopy() {
	small := func(n int) {
		if g.pick(4) == 0 {
			g.expr(akInt)
		} else {
			g.emit("pushi %d", g.pick(n)-1)
		}
	}
	if g.pick(4) == 0 {
		g.expr(akBytes)
	} else {
		g.emit("pushi %d\nbnew", 8+g.pick(24))
	}
	small(6)
	g.expr(akBytes)
	small(6)
	small(12)
	g.emit("bcopy")
}

func (g *progGen) leaf(k absKind) {
	switch k {
	case akInt:
		switch g.pick(4) {
		case 0:
			g.emit("load %d", g.pick(3))
		case 1:
			g.emit("arg 0")
		default:
			g.emit("pushi %d", g.pick(12)-2)
		}
	case akFloat:
		g.emit([]string{"const f", "const h", "arg 2"}[g.pick(3)])
	case akBool:
		g.emit([]string{"pushi 2\npushi 1\nlt", "pushi 1\npushi 2\nlt"}[g.pick(2)])
	case akBytes:
		g.emit([]string{"arg 1", "arg 1", "arg 1", "pushi 16\nbnew", "gload 1"}[g.pick(5)])
	}
}

// stmt emits code with no net stack effect.
func (g *progGen) stmt() {
	g.depth++
	defer func() { g.depth-- }()
	if g.depth > 3 {
		g.emit("nop")
		return
	}
	switch g.pick(11) {
	case 0, 1:
		g.expr(akInt)
		g.emit("store %d", g.pick(2))
	case 2:
		g.expr([]absKind{akInt, akFloat, akBool, akBytes}[g.pick(4)])
		g.emit("store %d", 3+g.pick(3))
	case 3:
		if g.pick(2) == 0 {
			g.expr(akInt)
			g.emit("gstore 0")
		} else {
			g.expr([]absKind{akInt, akFloat, akBytes}[g.pick(3)])
			g.emit("gstore 1")
		}
	case 4:
		g.expr([]absKind{akInt, akFloat, akBool, akBytes}[g.pick(4)])
		g.emit("pop")
	case 5, 6:
		if g.pick(4) == 0 {
			g.bcopy()
			g.emit([]string{"pop", "store 5", "gstore 1"}[g.pick(3)])
			return
		}
		if g.pick(3) == 0 {
			g.expr(akBytes)
		} else {
			g.emit("pushi %d\nbnew", 8+g.pick(9))
		}
		g.expr(akInt)
		if g.pick(2) == 0 {
			g.expr(akInt)
			g.emit([]string{"stu8", "sti32"}[g.pick(2)])
		} else {
			g.expr(akFloat)
			g.emit("stf32")
		}
		g.emit([]string{"pop", "store 5", "gstore 1"}[g.pick(3)])
	case 7, 8:
		a, b := g.label(), g.label()
		g.expr(akBool)
		g.emit("%s %s", []string{"jz", "jnz"}[g.pick(2)], a)
		g.stmt()
		g.emit("jmp %s", b)
		g.emit("%s:", a)
		g.stmt()
		g.emit("%s:", b)
	case 9:
		h, e := g.label(), g.label()
		g.emit("pushi 0\nstore 2\n%s:\nload 2\npushi %d\nge\njnz %s", h, 1+g.pick(4), e)
		g.stmt()
		g.emit("load 2\npushi 1\naddi\nstore 2\njmp %s\n%s:", h, e)
	default:
		g.dyn(akAny)
		g.emit("store %d", 3+g.pick(3))
	}
}

func (g *progGen) program() string {
	g.b.Reset()
	g.emit("program gen\nglobals %d\nconst f float 2.5\nconst h float -0.5\nconst s str \"mocha\"", genGlobals)
	g.emit("func eval args=%d locals=%d", genArgs, genLocals)
	for n := 2 + g.pick(5); n > 0; n-- {
		g.stmt()
	}
	g.expr([]absKind{akInt, akFloat, akBool, akBytes}[g.pick(4)])
	g.emit("ret\nend\nfunc aux args=1 locals=1\narg 0\nstore 0\nload 0\nret\nend")
	return g.b.String()
}

func genArgValues() []Value {
	return []Value{IntVal(3), BytesVal([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1}), FloatVal(1.5)}
}

// TestCompiledRandomPrograms is the structured counterpart of
// FuzzVerifySound: generated programs, each run on the reference
// interpreter and the compiled engine with ample fuel and then with
// every fuel value that runs dry somewhere in its first instructions,
// so exhaustion lands on every instruction of every fused expression.
func TestCompiledRandomPrograms(t *testing.T) {
	g := &progGen{r: rand.New(rand.NewSource(15))}
	accepted, trapped := 0, map[TrapKind]int{}
	for i := 0; i < 1500; i++ {
		src := g.program()
		p, err := Assemble(src)
		if err != nil {
			if strings.HasPrefix(err.Error(), "asm") {
				t.Fatalf("generator wrote bad assembly: %v\n%s", err, src)
			}
			continue // the verifier refused it: nothing to compare
		}
		accepted++
		func() {
			defer func() {
				if t.Failed() {
					t.Logf("program:\n%s", src)
				}
			}()
			limits := Limits{MaxFuel: 20000}
			full := parity(t, p, 0, limits, genArgValues())
			if tr, ok := full.err.(*Trap); ok {
				trapped[tr.Kind]++
			}
			for fuel := int64(1); fuel <= min(full.instrs, 120); fuel++ {
				limits.MaxFuel = fuel
				parity(t, p, 0, limits, genArgValues())
			}
		}()
	}
	t.Logf("%d programs accepted; traps by kind: %v", accepted, trapped)
	if accepted < 500 || trapped[TrapType] == 0 || trapped[TrapBounds] == 0 || trapped[TrapMath] == 0 {
		t.Errorf("generator lost its coverage: %d accepted, traps %v", accepted, trapped)
	}
}

// TestCompiledSharedAcrossMachines runs one compiled program from many
// goroutines at once, each on its own machine, the way every DAP
// session shares a cached class. Run under -race.
func TestCompiledSharedAcrossMachines(t *testing.T) {
	p := MustAssemble(`
program shared
func eval args=1 locals=2
loop:
  load 1
  arg 0
  blen
  ge
  jnz done
  load 0
  arg 0
  load 1
  ldu8
  call twice
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
end
func twice args=1 locals=0
  arg 0
  pushi 2
  muli
  ret
end`)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := New(Limits{})
			for i := 0; i < 50; i++ {
				v, err := m.Run(p, 0, nil, []Value{BytesVal([]byte{1, 2, 3, 4})})
				if err != nil || v.I != 20 {
					t.Errorf("shared run: %v %v", v, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTrapParity pins, one program per reachable TrapKind and per place
// a compiler that folds and batches could get it wrong, the exact trap
// (function, pc, kind, message), instruction count and globals — checked
// against the reference interpreter by parity and against the numbers
// written here. TrapStack and TrapGeneric have no row: the verifier rules
// them out, and an unverified program does not run (last case).
func TestTrapParity(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		limits Limits
		args   []Value
		want   Trap
		instrs int64
		g0     int64 // globals[0].I afterwards
	}{
		{"bounds in the middle of a fused expression", `
program p
globals 1
func eval args=1 locals=1
  pushi 5
  gstore 0
  load 0
  arg 0
  pushi 99
  ldu8
  addi
  pushi 2
  muli
  store 0
  pushi 6
  gstore 0
  load 0
  ret
end`, Limits{}, []Value{BytesVal([]byte{1, 2, 3})},
			Trap{"eval", 25, TrapBounds, "byte load at 99 width 1 out of bounds (3)"}, 6, 5},
		{"divide by zero in the middle of a fused expression", `
program p
globals 1
func eval args=1 locals=0
  pushi 7
  pushi 10
  arg 0
  divi
  muli
  pushi 1
  addi
  ret
end`, Limits{}, []Value{IntVal(0)}, Trap{"eval", 15, TrapMath, "integer divide by zero"}, 4, 0},
		{"kind of a merged value, checked where it is used", `
program p
globals 1
const f float 1.5
func eval args=1 locals=0
  arg 0
  pushi 0
  gt
  jz other
  pushi 1
  jmp use
other:
  const f
use:
  pushi 2
  addi
  ret
end`, Limits{}, []Value{IntVal(-1)}, Trap{"eval", 36, TrapType, "addi needs ints, got float and int"}, 7, 0},
		{"fuel runs out inside a loop body, between two effects", `
program p
globals 1
func eval args=0 locals=1
loop:
  gload 0
  pushi 1
  addi
  gstore 0
  load 0
  pushi 3
  muli
  pushi 1
  addi
  store 0
  jmp loop
end`, Limits{MaxFuel: 50}, nil, Trap{"eval", 26, TrapResource, "fuel exhausted"}, 50, 5},
		{"fuel runs out on the effect itself", `
program p
globals 1
func eval args=0 locals=1
loop:
  gload 0
  pushi 1
  addi
  gstore 0
  jmp loop
end`, Limits{MaxFuel: 8}, nil, Trap{"eval", 11, TrapResource, "fuel exhausted"}, 8, 1},
		{"bnew over MaxAlloc, second time round", `
program p
globals 1
func eval args=0 locals=0
loop:
  pushi 600
  bnew
  pop
  gload 0
  pushi 1
  addi
  gstore 0
  jmp loop
end`, Limits{MaxAlloc: 1000}, nil, Trap{"eval", 5, TrapResource, "allocation budget exhausted"}, 10, 1},
		{"bnew of a size that wraps the bytes allocated so far", `
program p
globals 1
const big int 9223372036854775807
func eval args=0 locals=0
  pushi 1
  bnew
  const big
  bnew
  ret
end`, Limits{}, nil, Trap{"eval", 11, TrapResource, "allocation budget exhausted"}, 4, 0},
		{"trap in a callee, after the caller's effect", `
program p
globals 1
func eval args=1 locals=0
  pushi 4
  gstore 0
  arg 0
  call half
  gstore 0
  pushi 0
  ret
end
func half args=1 locals=0
  pushi 100
  arg 0
  modi
  ret
end`, Limits{}, []Value{IntVal(0)}, Trap{"half", 10, TrapMath, "integer modulo by zero"}, 7, 4},
		{"store through a global into a read-only buffer", `
program p
globals 1
func eval args=1 locals=0
  arg 0
  gstore 0
  gload 0
  pushi 0
  pushi 9
  stu8
  pop
  pushi 1
  ret
end`, Limits{}, []Value{BytesVal([]byte{1})}, Trap{"eval", 25, TrapBounds, "store into read-only buffer"}, 6, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := parity(t, MustAssemble(c.src), 0, c.limits, c.args)
			tr, ok := got.err.(*Trap)
			if !ok || *tr != c.want {
				t.Errorf("trap = %+v, want %+v", got.err, c.want)
			}
			if got.instrs != c.instrs || got.globals[0].I != c.g0 {
				t.Errorf("instrs = %d, globals[0] = %v; want %d and %d", got.instrs, got.globals[0], c.instrs, c.g0)
			}
		})
	}

	// bcopy, every outcome. Each body runs after "bnew; gstore 0", so what
	// the destination holds afterwards shows in globals[0] whichever way
	// the run ends; src is eight (or, sized, that many) bytes 1, 2, 3, ….
	seq := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i + 1)
		}
		return b
	}
	moves := []struct {
		name   string
		size   int // of both buffers; 0 means 8
		body   string
		limits Limits
		want   Trap // the zero Trap: it returns
		instrs int64
		dst    []byte // globals[0] afterwards, and the value a returning row returns
	}{
		{"whole buffer, result kept", 0, "gload 0\npushi 0\narg 0\npushi 0\npushi 8\nbcopy\nret",
			Limits{}, Trap{}, 11, seq(8)},
		{"result popped", 0, "gload 0\npushi 2\narg 0\npushi 4\npushi 3\nbcopy\npop\ngload 0\nret",
			Limits{}, Trap{}, 12, []byte{0, 0, 5, 6, 7, 0, 0, 0}},
		{"proven operands, result kept on the stack across a statement", 0,
			"pushi 8\nbnew\npushi 1\narg 0\npushi 0\npushi 7\nbcopy\npushi 9\nstore 0\ngstore 0\ngload 0\nret",
			Limits{}, Trap{}, 15, []byte{0, 1, 2, 3, 4, 5, 6, 7}},
		{"nothing, at the very end of both", 0, "gload 0\npushi 8\narg 0\npushi 8\npushi 0\nbcopy\nret",
			Limits{}, Trap{}, 10, make([]byte, 8)},
		{"forward inside one buffer", 0, "gload 0\npushi 0\narg 0\npushi 0\npushi 8\nbcopy\npushi 2\ngload 0\npushi 0\npushi 6\nbcopy\nret",
			Limits{}, Trap{}, 16, []byte{1, 2, 1, 2, 3, 4, 5, 6}},
		{"backward inside one buffer", 0, "gload 0\npushi 0\narg 0\npushi 0\npushi 8\nbcopy\npushi 0\ngload 0\npushi 2\npushi 6\nbcopy\nret",
			Limits{}, Trap{}, 16, []byte{3, 4, 5, 6, 7, 8, 7, 8}},
		{"destination is not bytes", 0, "arg 1\npushi 0\narg 0\npushi 0\npushi 1\nbcopy\nret",
			Limits{}, Trap{"eval", 36, TrapType, "bcopy needs (bytes, int, bytes, int, int)"}, 9, make([]byte, 8)},
		{"source is not bytes", 0, "gload 0\npushi 0\narg 1\npushi 0\npushi 1\nbcopy\nret",
			Limits{}, Trap{"eval", 36, TrapType, "bcopy needs (bytes, int, bytes, int, int)"}, 9, make([]byte, 8)},
		{"length is not an int", 0, "gload 0\npushi 0\narg 0\npushi 0\narg 0\nbcopy\nret",
			Limits{}, Trap{"eval", 36, TrapType, "bcopy needs (bytes, int, bytes, int, int)"}, 9, make([]byte, 8)},
		{"read-only destination", 0, "arg 0\npushi 0\ngload 0\npushi 0\npushi 1\nbcopy\nret",
			Limits{}, Trap{"eval", 36, TrapBounds, "store into read-only buffer"}, 9, make([]byte, 8)},
		{"negative length", 0, "gload 0\npushi 0\narg 0\npushi 0\npushi -1\nbcopy\nret",
			Limits{}, Trap{"eval", 36, TrapBounds, "bcopy of -1 bytes from 0 (8) to 0 (8) out of bounds"}, 9, make([]byte, 8)},
		{"source short by one", 0, "gload 0\npushi 0\narg 0\npushi 5\npushi 4\nbcopy\nret",
			Limits{}, Trap{"eval", 36, TrapBounds, "bcopy of 4 bytes from 5 (8) to 0 (8) out of bounds"}, 9, make([]byte, 8)},
		{"destination short by one", 0, "gload 0\npushi 5\narg 0\npushi 0\npushi 4\nbcopy\nret",
			Limits{}, Trap{"eval", 36, TrapBounds, "bcopy of 4 bytes from 0 (8) to 5 (8) out of bounds"}, 9, make([]byte, 8)},
		{"offset and length overflow when added", 0, "gload 0\npushi 0\narg 0\nconst big\npushi 1\nbcopy\nret",
			Limits{}, Trap{"eval", 36, TrapBounds, "bcopy of 1 bytes from 9223372036854775807 (8) to 0 (8) out of bounds"}, 9, make([]byte, 8)},
		{"length alone past every buffer", 0, "gload 0\npushi 1\narg 0\npushi 1\nconst big\nbcopy\nret",
			Limits{}, Trap{"eval", 36, TrapBounds, "bcopy of 9223372036854775807 bytes from 1 (8) to 1 (8) out of bounds"}, 9, make([]byte, 8)},
		{"fuel for the instruction but not for its bytes", 64, "gload 0\npushi 0\narg 0\npushi 0\npushi 64\nbcopy\nret",
			Limits{MaxFuel: 9 + 7}, Trap{"eval", 36, TrapResource, "fuel exhausted"}, 9 + 7, make([]byte, 64)},
		{"fuel for the bytes and not one instruction more", 64, "gload 0\npushi 0\narg 0\npushi 0\npushi 64\nbcopy\nret",
			Limits{MaxFuel: 9 + 8}, Trap{"eval", 37, TrapResource, "fuel exhausted"}, 9 + 8, seq(64)},
		{"fuel to the end", 64, "gload 0\npushi 0\narg 0\npushi 0\npushi 64\nbcopy\nret",
			Limits{MaxFuel: 9 + 8 + 1}, Trap{}, 9 + 8 + 1, seq(64)},
	}
	for _, c := range moves {
		t.Run("bcopy/"+c.name, func(t *testing.T) {
			size := cmp.Or(c.size, 8)
			p := MustAssemble(fmt.Sprintf("program p\nglobals 1\nconst big int 9223372036854775807\n"+
				"func eval args=2 locals=1\npushi %d\nbnew\ngstore 0\n%s\nend", size, c.body))
			got := parity(t, p, 0, c.limits, []Value{BytesVal(seq(size)), IntVal(3)})
			if tr, _ := got.err.(*Trap); (tr == nil) != (c.want == Trap{}) || tr != nil && *tr != c.want {
				t.Errorf("ended with %+v, want %+v", got.err, c.want)
			}
			if got.err == nil && !bytes.Equal(got.val.B, c.dst) {
				t.Errorf("returned %v, want %v", got.val.B, c.dst)
			}
			if got.instrs != c.instrs || !bytes.Equal(got.globals[0].B, c.dst) {
				t.Errorf("instrs = %d, destination = %v; want %d and %v", got.instrs, got.globals[0].B, c.instrs, c.dst)
			}
		})
	}

	// The loads and the store that read their operands in place — a
	// register buffer at a scalar register's offset — at the last offset
	// inside, the first past either end and on something that is no
	// buffer; the store also under every fuel that runs dry before the end.
	at := func(off int64) []Value { return []Value{BytesVal(seq(16)), IntVal(off)} }
	for _, ld := range []struct {
		op string
		w  int64
	}{{"ldu8", 1}, {"ldi32", 4}, {"ldf32", 4}, {"ldf64", 8}} {
		p := MustAssemble("program p\nfunc eval args=2 locals=1\narg 1\npushi 0\naddi\nstore 0\narg 0\nload 0\n" + ld.op + "\nret\nend")
		for _, off := range []int64{-1, 16 - ld.w, 16 - ld.w + 1} {
			want := fmt.Sprintf("vm trap in eval at pc=26: byte load at %d width %d out of bounds (16)", off, ld.w)
			if got := parity(t, p, 0, Limits{}, at(off)); off == 16-ld.w && got.err != nil || off != 16-ld.w && (got.err == nil || got.err.Error() != want) {
				t.Errorf("%s at %d of 16: %v, %v", ld.op, off, got.val, got.err)
			}
		}
		if got := parity(t, p, 0, Limits{}, []Value{IntVal(5), IntVal(0)}); got.err == nil || got.err.Error() != "vm trap in eval at pc=26: byte load needs (bytes, int)" {
			t.Errorf("%s from an int: %v, %v", ld.op, got.val, got.err)
		}
	}
	st := MustAssemble("program p\nfunc eval args=2 locals=2\narg 1\npushi 0\naddi\nstore 0\npushi 16\nbnew\nstore 1\n" +
		"load 1\nload 0\npushi 7\nstu8\npop\nload 1\nret\nend")
	for _, off := range []int64{-1, 15, 16} {
		want := fmt.Sprintf("vm trap in eval at pc=42: byte store at %d out of bounds (16)", off)
		got := parity(t, st, 0, Limits{}, at(off))
		if off == 15 && (got.err != nil || got.val.B[15] != 7) || off != 15 && (got.err == nil || got.err.Error() != want) {
			t.Errorf("stu8 at %d of 16: %v, %v", off, got.val, got.err)
		}
		for fuel := int64(1); fuel < got.instrs; fuel++ {
			parity(t, st, 0, Limits{MaxFuel: fuel}, at(off))
		}
	}
	into := MustAssemble("program p\nfunc eval args=2 locals=1\narg 1\npushi 0\naddi\nstore 0\narg 0\nload 0\npushi 7\nstu8\npop\npushi 0\nret\nend")
	for _, c := range []struct {
		arg  Value
		want string
	}{{IntVal(5), "byte store needs (bytes, int, value)"}, {BytesVal([]byte{1, 2}), "store into read-only buffer"}} {
		if got := parity(t, into, 0, Limits{}, []Value{c.arg, IntVal(0)}); got.err == nil || got.err.Error() != "vm trap in eval at pc=31: "+c.want {
			t.Errorf("stu8 into %v: %v, want %s", c.arg, got.err, c.want)
		}
	}

	// A bool constant keeps the payload it was shipped with, true or not.
	odd := &Program{Name: "odd", Consts: []Value{{K: VBool, I: 7}}, Funcs: []Func{{Name: "eval", Code: []byte{
		byte(OpConst), 0, 0, 0, 0, byte(OpDup), byte(OpConst), 0, 0, 0, 0, byte(OpEq), byte(OpJz), 0, 0, 0, 18, byte(OpRet), byte(OpRet)}}}}
	if err := Verify(odd); err != nil {
		t.Fatal(err)
	}
	if got := parity(t, odd, 0, Limits{}, nil); got.err != nil || got.val.K != VBool || got.val.I != 7 {
		t.Errorf("bool constant round trip: %+v, %v", got.val, got.err)
	}

	// What the verifier refuses, the reference interpreter traps on and
	// the machine will not touch.
	bad := &Program{Name: "bad", Funcs: []Func{{Name: "eval", Code: []byte{byte(OpPop), byte(OpRet)}}}}
	if _, err := newRef(Limits{}).run(bad, 0, nil, nil); err == nil || err.(*Trap).Kind != TrapStack {
		t.Errorf("reference on an underflowing program: %v", err)
	}
	if _, err := New(Limits{}).Run(bad, 0, nil, nil); err == nil || Verify(bad) == nil {
		t.Errorf("machine ran an unverifiable program: %v", err)
	}
}
