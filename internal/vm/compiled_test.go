package vm

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	loops  bool // the program has a loop
}

const (
	genArgs    = 3  // int, bytes, float at run time
	genLocals  = 10 // 0,1: ints only; 2: loop counter; 3..5: anything; 6..9: counted's and floatReduction's
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
	switch g.pick(14) {
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
		g.loops = true
		h, e := g.label(), g.label()
		g.emit("pushi 0\nstore 2\n%s:\nload 2\npushi %d\nge\njnz %s", h, 1+g.pick(4), e)
		g.stmt()
		g.emit("load 2\npushi 1\naddi\nstore 2\njmp %s\n%s:", h, e)
	case 11, 12:
		g.counted(g.pick(2) == 0)
	case 13:
		g.floatReduction()
	default:
		g.dyn(akAny)
		g.emit("store %d", 3+g.pick(3))
	}
}

// counted writes a loop in a loop kernel's shape, rotated or tested at
// its bottom: a byte reduction into local 0, or a strided copy into a
// fresh buffer (local 9), into the source itself or into arg 1, which is
// read-only. The counter (local 6) starts near 0 and runs while below a
// register or an immediate, stepped by a register (local 7) or an
// immediate; the source is arg 1, local 9 — aliased with the copy's
// destination — or arg 0, no buffer at all. Offsets run off either end
// of the buffers now and then.
func (g *progGen) counted(copy bool) {
	g.loops = true
	h, e := g.label(), g.label()
	g.emit("pushi %d\nbnew\nstore 9\npushi %d\nstore 6\npushi %d\nstore 8\npushi %d\nstore 7",
		8+g.pick(9), g.pick(4)-1, g.pick(4)-1, 1+g.pick(3))
	src := []string{"arg 1", "arg 1", "load 9", "arg 0"}[g.pick(4)]
	limit := []string{"load 1", fmt.Sprintf("pushi %d", g.pick(14))}[g.pick(2)]
	off := func() string { return []string{"", fmt.Sprintf("pushi %d\naddi\n", g.pick(4)-1)}[g.pick(2)] }
	step := func() string { return []string{"load 7", fmt.Sprintf("pushi %d", 1+g.pick(2))}[g.pick(2)] }
	body := "load 0\n" + src + "\nload 6\n" + off() + "ldu8\naddi\nstore 0\n"
	if copy {
		dst := []string{"load 9", "load 9", "arg 1"}[g.pick(3)]
		ostep := []string{step(), "load 6"}[g.pick(2)] // by the counter itself: no kernel
		body = dst + "\nload 8\n" + off() + src + "\nload 6\n" + off() + "ldu8\nstu8\npop\nload 8\n" + ostep + "\naddi\nstore 8\n"
	}
	body += "load 6\n" + step() + "\naddi\nstore 6\n"
	if g.pick(2) == 0 {
		g.emit("%s:\nload 6\n%s\nlt\njz %s\n%sjmp %s\n%s:", h, limit, e, body, h, e)
	} else {
		g.emit("load 6\n%s\nge\njnz %s\n%s:\n%sload 6\n%s\nlt\njnz %s\n%s:", limit, e, h, body, limit, h, e)
	}
}

// floatReduction writes a loop in one of the float kernel's shapes,
// floatLoop's three, into local 3: the counter (local 6) runs from 0
// while below local 1 or an immediate; the ring's vertex offsets are in
// locals 7 and 8, the gather's edge ends too. The source is arg 1, read
// only; local 9, a fresh buffer of 4 to 43 bytes that may hold a NaN, an
// infinity or -0 — most are too short for every vertex; or arg 0, no
// buffer at all. Any read may be an ldf32 or an ldf64.
func (g *progGen) floatReduction() {
	g.loops = true
	h, e, size := g.label(), g.label(), 4+g.pick(40)
	g.emit("pushi %d\nbnew\nstore 9\npushi 0\ni2f\nstore 3\npushi 0\nstore 6\npushi %d\nstore 8", size, 4*g.pick(6))
	if g.pick(2) == 0 {
		special := []string{"pushi 0\ni2f\npushi 0\ni2f\ndivf", "pushi 1\ni2f\npushi 0\ni2f\ndivf", "pushi 0\ni2f\nnegf"}[g.pick(3)]
		g.emit("load 9\npushi %d\n%s\nstf32\npop", g.pick(size-3), special)
	}
	src := []string{"arg 1", "load 9", "load 9", "arg 0"}[g.pick(4)]
	limit := []string{"load 1", fmt.Sprintf("pushi %d", g.pick(8))}[g.pick(2)]
	ld := func(reg, off int) string {
		return fmt.Sprintf("%s\nload %d\npushi %d\naddi\n%s\n", src, reg, off, []string{"ldf32", "ldf32", "ldf64"}[g.pick(3)])
	}
	dist := func(a, b int) string {
		return ld(a, 0) + ld(b, 0) + "subf\ndup\nmulf\n" + ld(a, 4) + ld(b, 4) + "subf\ndup\nmulf\naddf\nhost sqrt\nload 3\naddf\nstore 3\n"
	}
	cur := "pushi 4\nload 6\npushi 8\nmuli\naddi\nstore 7\n"
	var body string
	switch g.pick(3) {
	case 0: // the shoelace
		body = cur + ld(8, 0) + ld(7, 4) + "mulf\n" + ld(7, 0) + ld(8, 4) + "mulf\nsubf\nload 3\naddf\nstore 3\nload 7\nstore 8\n"
	case 1: // the perimeter
		body = cur + dist(7, 8) + "load 7\nstore 8\n"
	default: // the gather
		for i := 0; i < 2; i++ {
			body += fmt.Sprintf("%s\nload 6\npushi 8\nmuli\npushi %d\naddi\nldi32\npushi 8\nmuli\npushi 4\naddi\nstore %d\n", src, 4*g.pick(3)+4*i, 7+i)
		}
		body += dist(7, 8)
	}
	g.emit("%s:\nload 6\n%s\nge\njnz %s\n%sload 6\npushi 1\naddi\nstore 6\njmp %s\n%s:", h, limit, e, body, h, e)
}

func (g *progGen) program() string {
	g.b.Reset()
	g.loops = false
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
// every fuel value that runs dry somewhere in its first instructions —
// 120 of them, 2000 in a program that loops — so exhaustion lands on
// every instruction of every fused expression and loop iteration.
func TestCompiledRandomPrograms(t *testing.T) {
	g := &progGen{r: rand.New(rand.NewSource(15))}
	accepted, kernels, floats, trapped := 0, 0, 0, map[TrapKind]int{}
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
		if shapes := fmt.Sprint(LoopShapes(p, "eval")); strings.Contains(shapes, "float kernel") {
			floats++
		} else if strings.Contains(shapes, "kernel") {
			kernels++
		}
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
			sweep := int64(120)
			if g.loops {
				sweep = 2000
			}
			for fuel := int64(1); fuel <= min(full.instrs, sweep); fuel++ {
				limits.MaxFuel = fuel
				parity(t, p, 0, limits, genArgValues())
			}
		}()
	}
	t.Logf("%d programs accepted, %d with a loop kernel, %d with a float kernel; traps by kind: %v", accepted, kernels, floats, trapped)
	if accepted < 500 || kernels < 100 || floats < 200 || trapped[TrapType] == 0 || trapped[TrapBounds] == 0 || trapped[TrapMath] == 0 {
		t.Errorf("generator lost its coverage: %d accepted, %d kernels, %d float kernels, traps %v", accepted, kernels, floats, trapped)
	}
}

// TestCompiledSharedAcrossMachines runs one compiled program from many
// goroutines at once, each on its own machine, the way every DAP
// session shares a cached class; scan's loop is a kernel, whose
// counters live in the Machine it runs on. Run under -race.
func TestCompiledSharedAcrossMachines(t *testing.T) {
	p := MustAssemble(`
program shared
func scan args=1 locals=3
  arg 0
  blen
  store 2
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
  ret
end
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
	if got := LoopShapes(p, "scan"); fmt.Sprint(got) != "[rotated kernel]" {
		t.Fatalf("scan's loop is %v, want a rotated kernel", got)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := New(Limits{})
			for i := 0; i < 50; i++ {
				buf := bytes.Repeat([]byte{byte(w + 1)}, 64+i)
				v, err := m.Run(p, p.FuncIndex("eval"), nil, []Value{BytesVal([]byte{1, 2, 3, 4})})
				s, serr := m.Run(p, p.FuncIndex("scan"), nil, []Value{BytesVal(buf)})
				if err != nil || v.I != 20 || serr != nil || s.I != int64((w+1)*(64+i)) {
					t.Errorf("shared run: %v %v, scan %v %v", v, err, s, serr)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// fusedLoop writes one of the loop shapes TestFusedLoopParity runs. A
// counter i (local 1) goes from arg 1 while test — lt when empty — holds
// of it and arg 2 (local 2), by arg 3 (local 5). Each iteration reads the byte at i+off of arg 0 — or,
// aliased, of arg 4 from its second byte on; the rotated and self-loop
// shapes and the reduction add it to local 0, the first two also storing
// that in a global, so no kernel runs them; the copy writes it to arg 4
// at o+off, o (local 3) starting at arg 1 and stepped by 2. writeLimit
// has the body lower the limit register as well.
func fusedLoop(shape, test string, off int64, alias, writeLimit bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program fused\nglobals 1\nconst off int %d\nfunc eval args=5 locals=6\n", off)
	b.WriteString("arg 1\npushi 0\naddi\nstore 1\narg 2\npushi 0\naddi\nstore 2\narg 3\npushi 0\naddi\nstore 5\nload 1\nstore 3\n")
	src := "arg 0"
	if alias {
		b.WriteString("arg 4\npushi 1\narg 4\nblen\nbslice\nstore 4\n")
		src = "load 4"
	}
	body := "load 0\n" + src + "\nload 1\nconst off\naddi\nldu8\naddi\nstore 0\n"
	switch shape {
	case "strided copy":
		body = "arg 4\nload 3\nconst off\naddi\n" + src + "\nload 1\nconst off\naddi\nldu8\nstu8\npop\nload 3\npushi 2\naddi\nstore 3\n"
	case "rotated", "self-loop":
		body += "load 0\ngstore 0\n"
	}
	if writeLimit {
		body += "load 2\npushi -1\naddi\nstore 2\n"
	}
	body += "load 1\nload 5\naddi\nstore 1\n"
	pre := "load 1\nload 2\nge\njnz done\n"
	if test = cmp.Or(test, "lt"); test != "lt" {
		pre = "load 1\nload 2\n" + test + "\njz done\n"
	}
	if shape == "rotated" || shape == "byte reduction" {
		b.WriteString("head:\nload 1\nload 2\n" + test + "\njz done\n" + body + "jmp head\n")
	} else {
		b.WriteString(pre + "body:\n" + body + "load 1\nload 2\n" + test + "\njnz body\n")
	}
	if shape == "strided copy" {
		b.WriteString("done:\narg 4\nret\nend")
	} else {
		b.WriteString("done:\nload 0\nret\nend")
	}
	return b.String()
}

// TestFusedLoopParity runs each way a loop runs in place — rotated, a
// self-loop, the two byte kernels and the float kernel's three shapes —
// against the reference, clean and at every edge of a kernel's run, at
// every fuel value from 1 to the run's whole count, so that a run ends
// on the fuel edge at every iteration: value (a float's bits), trap,
// globals and instructions agree. The run's edges are where the run
// rule's closed form and room could be off by one: zero, negative and
// wide strides, each test and its negation, counters and limits near
// ±2^62 and MaxInt64, where a step wraps.
func TestFusedLoopParity(t *testing.T) {
	seq := func(n int, w bool) Value {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i + 1)
		}
		return Value{K: VBytes, W: w, B: b}
	}
	type row struct {
		name               string
		start, limit, step int64 // step 0 is 1, unless still
		test               string
		src, dst           Value
		off, fuel          int64 // fuel: the whole run's, where it never ends
		alias, writeLimit  bool
		still              bool
	}
	rows := []row{
		{name: "clean", limit: 10},
		{name: "zero trips", start: 5, limit: 5},
		{name: "one trip", start: 5, limit: 6},
		{name: "bounds trap at the first iteration", start: 16, limit: 20},
		{name: "bounds trap in the middle", start: 10, limit: 20},
		{name: "bounds trap at the last iteration", limit: 17},
		{name: "read-only destination", limit: 10, dst: seq(32, false)},
		{name: "argument that is no buffer", limit: 10, src: IntVal(3)},
		{name: "source aliases the destination", limit: 12, alias: true},
		{name: "limit register written in the body", limit: 12, writeLimit: true},
		{name: "counter step wraps past MaxInt64", start: math.MaxInt64 - 1, limit: math.MaxInt64, step: 3, off: 3 - math.MaxInt64},
		{name: "a run of seven bytes", limit: 7},
		{name: "a run of fifteen bytes", limit: 15},
		{name: "bytes of 128 and up", limit: 16, src: Value{K: VBytes, B: bytes.Repeat([]byte{0xff, 0x80, 0xfe, 0x81}, 4)}},
		{name: "zero stride", limit: 10, still: true, fuel: 300},
		{name: "negative stride into a bounds trap", start: 10, limit: 20, step: -1},
		{name: "negative stride, gt test", start: 15, limit: 4, step: -2, test: "gt"},
		{name: "negative stride, ge test", start: 15, limit: 3, step: -3, test: "ge"},
		{name: "stride 3, bounds trap mid-run", limit: 40, step: 3},
		{name: "stride 5, run ends on the limit", start: 1, limit: 16, step: 5},
		{name: "le test", start: 2, limit: 9, test: "le"},
		{name: "le test, bounds trap at the limit", limit: 16, test: "le"},
		{name: "eq test", start: 4, limit: 4, test: "eq"},
		{name: "eq test, zero stride", start: 4, limit: 4, test: "eq", still: true, fuel: 300},
		{name: "ne test reaching the limit", start: 1, limit: 13, step: 3, test: "ne"},
		{name: "ne test stepping over the limit", start: 1, limit: 12, step: 3, test: "ne"},
		{name: "ne test counting down", start: 15, limit: 3, step: -4, test: "ne"},
		{name: "counter near 2^62", start: 1 << 62, limit: 1<<62 + 10, off: -1 << 62},
		{name: "counter near -2^62", start: -1 << 62, limit: -1<<62 + 13, step: 2, off: 1 << 62},
		{name: "stride 2^62", limit: math.MaxInt64, step: 1 << 62},
		{name: "limit MaxInt64, le test: the counter wraps", start: math.MaxInt64 - 6, limit: math.MaxInt64, test: "le", off: 7 - math.MaxInt64},
		{name: "limit MaxInt64, ne test: the counter wraps", start: math.MaxInt64 - 6, limit: math.MaxInt64, step: 2, test: "ne", off: 7 - math.MaxInt64},
		{name: "limit MinInt64, ge test: the counter wraps", start: math.MinInt64 + 5, limit: math.MinInt64, step: -1, test: "ge", off: math.MinInt64 + 10},
		{name: "limit MinInt64, gt test", start: math.MinInt64 + 9, limit: math.MinInt64 + 2, step: -2, test: "gt", off: math.MinInt64 + 6},
	}
	shapes := map[string]string{"rotated": "[rotated]", "self-loop": "[self]",
		"byte reduction": "[rotated kernel]", "strided copy": "[self kernel]"}
	for _, shape := range []string{"rotated", "self-loop", "byte reduction", "strided copy"} {
		for _, r := range rows {
			t.Run(shape+"/"+r.name, func(t *testing.T) {
				p := MustAssemble(fusedLoop(shape, r.test, r.off, r.alias, r.writeLimit))
				want := shapes[shape]
				if r.writeLimit { // the limit is no longer what a kernel may hold
					want = strings.ReplaceAll(want, " kernel", "")
				}
				if got := fmt.Sprint(LoopShapes(p, "eval")); got != want {
					t.Fatalf("loops %s, want %s", got, want)
				}
				if r.src.K == VInt && r.src.I == 0 {
					r.src = seq(16, false)
				}
				if r.dst.B == nil {
					r.dst = seq(32, true)
				}
				step := cmp.Or(r.step, 1)
				if r.still {
					step = 0
				}
				args := []Value{r.src, IntVal(r.start), IntVal(r.limit), IntVal(step), r.dst}
				full := parity(t, p, 0, Limits{MaxFuel: r.fuel}, args)
				for fuel := int64(1); fuel <= full.instrs; fuel++ {
					parity(t, p, 0, Limits{MaxFuel: fuel}, args)
				}
			})
		}
	}

	// A body that ends in a call or a bcopy spends fuel after the fuel for
	// the whole iteration was counted: it stays two blocks, at every fuel.
	for name, src := range map[string]string{
		"body ending in a call": "program p\nfunc eval args=0 locals=1\npushi 0\njmp h\nb:\npop\nload 0\npushi 1\naddi\nstore 0\n" +
			"load 0\ncall aux\nh:\nload 0\npushi 5\nlt\njnz b\nret\nend\nfunc aux args=1 locals=0\narg 0\npushi 2\nmuli\nret\nend",
		"body ending in a bcopy": "program p\nfunc eval args=0 locals=2\npushi 16\nbnew\nstore 1\nload 1\njmp h\nb:\npop\nload 0\npushi 1\naddi\nstore 0\n" +
			"load 1\nload 0\nload 1\npushi 0\npushi 8\nbcopy\nh:\nload 0\npushi 5\nlt\njnz b\nret\nend",
	} {
		t.Run(name, func(t *testing.T) {
			p := MustAssemble(src)
			if got := LoopShapes(p, "eval"); len(got) != 0 {
				t.Fatalf("loops %v, want none", got)
			}
			full := parity(t, p, 0, Limits{}, nil)
			for fuel := int64(1); fuel <= full.instrs; fuel++ {
				parity(t, p, 0, Limits{MaxFuel: fuel}, nil)
			}
		})
	}

	// The float kernel's shapes, at the same edges and at its own: special
	// values, reads of both widths, a gather at an index past the vertices
	// or past the edge list, a cross product whose multiply and subtract,
	// fused, would round once instead of twice, and rings of 0 to 3
	// vertices — short runs, and a first iteration that is all of one.
	one := 1 + math.Ldexp(1, -30)
	ringPts := func(n int) [][2]float64 {
		pts := make([][2]float64, n)
		for i := range pts {
			a := 2 * math.Pi * float64(i) / float64(n)
			pts[i] = [2]float64{100 * math.Cos(a), 100 * math.Sin(a)}
		}
		return pts
	}
	special := [][2]float64{{1, 2}, {math.NaN(), 3}, {4, math.Inf(1)}, {math.Inf(-1), 5}, {math.Copysign(0, -1), 6}, {7, 8}}
	type frow struct {
		name          string
		pts           [][2]float64
		n, start      int64 // trips; the ring's first previous vertex, or an edge's index
		edges         int   // the gather's edge list, when not n
		bad           int   // one past the gather's edge that names a vertex past the end; 0: none
		cut           int   // bytes cut from the end of the last vertex
		noBuffer      bool
		head          bool // the ring's first previous vertex is read at offset 0, over the count
		wide, testSum bool
		yFirst        bool
	}
	frows := []frow{
		{name: "clean", pts: ringPts(8), n: 8, start: 7},
		{name: "zero trips", pts: ringPts(8), n: 0, start: 7},
		{name: "one trip", pts: ringPts(8), n: 1, start: 0},
		{name: "bounds trap at the first iteration", pts: ringPts(8), n: 8, start: 20},
		{name: "bounds trap in the middle", pts: ringPts(4), n: 8, start: 0},
		{name: "bounds trap at the last iteration", pts: ringPts(7), n: 8, start: 0},
		{name: "bounds trap one byte short, first iteration", pts: ringPts(8), n: 8, start: 7, cut: 1},
		{name: "bounds trap one byte short, last iteration", pts: ringPts(8), n: 8, start: 0, cut: 1},
		{name: "bounds trap one byte short, ldf64 leaves", pts: ringPts(8), n: 8, start: 0, cut: 1, wide: true},
		{name: "bounds trap one byte short, first iteration, ldf64 leaves", pts: ringPts(8), n: 8, start: 7, cut: 1, wide: true},
		{name: "argument that is no buffer", pts: ringPts(8), n: 8, start: 7, noBuffer: true},
		{name: "NaN, infinities and negative zero", pts: special, n: 6, start: 5},
		{name: "reads of both widths", pts: ringPts(8), n: 8, start: 7, wide: true},
		{name: "test reads the sum", pts: ringPts(8), n: 8, start: 7, testSum: true},
		{name: "fused multiply-subtract would differ", pts: [][2]float64{{one, one}, {one, one}}, n: 2, start: 1, wide: true},
		{name: "no vertices", pts: ringPts(0)},
		{name: "one vertex", pts: ringPts(1), n: 1},
		{name: "two vertices", pts: ringPts(2), n: 2, start: 1},
		{name: "three vertices", pts: ringPts(3), n: 3, start: 2},
		{name: "one vertex, ldf64 leaves", pts: ringPts(1), n: 1, wide: true},
		{name: "three vertices, ldf64 leaves", pts: ringPts(3), n: 3, start: 2, wide: true},
		{name: "ldf64 leaves, bounds trap in the middle", pts: ringPts(5), n: 8, start: 4, wide: true},
	}
	// Rows where read 0 — the first leaf, at its register plus a constant —
	// is the farthest read of the iteration that traps, and the only one
	// out of range: no other read's check can stand in for its own. The
	// shoelace's read 0 is the previous vertex's x, the last vertex's here;
	// the segment's is the current vertex's x, the first iteration's.
	farthest := map[string][]frow{
		"shoelace": {
			{name: "read 0 farthest, one byte short", pts: ringPts(8), n: 8, start: 7, cut: 1, yFirst: true},
			{name: "read 0 farthest, one byte short, ldf64 leaves", pts: ringPts(8), n: 8, start: 7, cut: 1, yFirst: true, wide: true},
		},
		"perimeter": {
			{name: "read 0 farthest, one byte short", pts: ringPts(1), n: 1, head: true, cut: 1, yFirst: true},
			{name: "read 0 farthest, one byte short, ldf64 leaves", pts: ringPts(1), n: 1, head: true, cut: 1, yFirst: true, wide: true},
		},
	}
	for _, shape := range []string{"shoelace", "perimeter", "gather"} {
		gather := shape == "gather"
		rows := append(slices.Clone(frows), farthest[shape]...)
		if gather { // its bounds traps are its own
			rows = append(slices.DeleteFunc(slices.Clone(frows), func(r frow) bool { return strings.HasPrefix(r.name, "bounds") }),
				frow{name: "index past the vertices, first edge", pts: ringPts(8), n: 8, bad: 1},
				frow{name: "index past the vertices, middle edge", pts: ringPts(8), n: 8, bad: 5},
				frow{name: "index past the vertices, last edge", pts: ringPts(8), n: 8, bad: 8},
				frow{name: "edge list shorter than its count", pts: ringPts(8), n: 8, edges: 5})
		}
		for _, r := range rows {
			t.Run(shape+"/"+r.name, func(t *testing.T) {
				p := MustAssemble(floatLoop(shape, r.wide, r.yFirst, r.testSum))
				want := "[rotated float kernel]"
				if r.testSum {
					want = "[rotated]"
				}
				if got := fmt.Sprint(LoopShapes(p, "eval")); got != want {
					t.Fatalf("loops %s, want %s", got, want)
				}
				stride, buf := vertexBytes(shape, r.wide, r.yFirst, r.pts)
				buf = buf[:len(buf)-r.cut]
				arg2 := 4 + stride*r.start
				if r.head {
					arg2 = 0
				}
				if gather { // edges i -> i+1 around the ring, after the vertices and their count
					arg2 = int64(len(buf)) + 4
					buf = binary.BigEndian.AppendUint32(buf, uint32(r.n))
					nv := int64(len(r.pts))
					for i := int64(0); i < cmp.Or(int64(r.edges), r.n); i++ {
						a, b := i%nv, (i+1)%nv
						if int(i) == r.bad-1 {
							b = nv + 3
						}
						buf = binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(buf, uint32(a)), uint32(b))
					}
				}
				src := Value{K: VBytes, B: buf}
				if r.noBuffer {
					src = IntVal(3)
				}
				args := []Value{src, IntVal(r.n), IntVal(arg2)}
				full := floatParity(t, p, Limits{}, args)
				if r.name == "fused multiply-subtract would differ" && (full.err != nil || math.Float64bits(full.val.F) != 0) {
					t.Errorf("twice-rounded a*b - c*d of equal operands: %v, %v; want +0", full.val, full.err)
				}
				for fuel := int64(1); fuel <= full.instrs; fuel++ {
					floatParity(t, p, Limits{MaxFuel: fuel}, args)
				}
			})
		}
	}

	// The committed fuzz seeds for the kernels' edges, wrapped as the fuzz
	// targets wrap them, must still be kernels.
	t.Run("fuzz seeds are kernels", func(t *testing.T) {
		for _, src := range slices.Concat(fuseSeedSrcs, fuseRunSeedSrcs, floatSeedSrcs) {
			f := MustAssemble(src).Funcs[0]
			p := fuzzProgram(f.Code, uint8(f.NArgs), 0)
			if err := Verify(p); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(LoopShapes(p, "eval")); !strings.Contains(got, "kernel") {
				t.Errorf("loops %s, want a kernel:\n%s", got, src)
			}
		}
	})

	// A header entered from two predecessors: the loop's own body, rotated,
	// and a block that jumps past the pushi the cost pass reads the
	// counter's start from. The static budget must still cover the run.
	t.Run("header entered from two predecessors", func(t *testing.T) {
		p := MustAssemble(`program s
func eval args=0 locals=1
pushi 0
pushi 1
eq
jz alt
pushi 0
jmp S
alt:
pushi -100000
S:
store 0
h:
load 0
pushi 10
lt
jz done
load 0
pushi 1
addi
store 0
jmp h
done:
pushi 0
ret
end`)
		if got := fmt.Sprint(LoopShapes(p, "eval")); got != "[rotated]" {
			t.Fatalf("loops %s, want [rotated]", got)
		}
		got, fi := parity(t, p, 0, DefaultLimits, nil), p.verified.Funcs[0]
		if !fi.Bounded || got.instrs > fi.BudgetInstrs {
			t.Errorf("executed %d instructions, static budget %d (bounded=%v)", got.instrs, fi.BudgetInstrs, fi.Bounded)
		}
	})
}

// floatLoop writes one of the float kernel's loops over the buffer in
// arg 0 as TestFusedLoopParity runs them: "shoelace" sums the cross
// product of consecutive vertices, "perimeter" their distance — by dup
// and host sqrt — and "gather" the distance between the two vertices
// each edge names. The counter i (local 1) runs from 0 while below arg 1
// (local 0); a ring's previous vertex (local 3) starts at offset arg 2,
// a gather's edge list at arg 2. wide reads every coordinate of the
// shoelace with ldf64, and the x coordinates of the others; yFirst reads
// a vertex's y before its x, as vertexBytes lays it out; testSum has the
// loop's test read the sum instead of the counter.
func floatLoop(shape string, wide, yFirst, testSum bool) string {
	x, y, stride, xoff, yoff := "ldf32", "ldf32", 8, 0, 4
	switch {
	case wide && shape == "shoelace":
		x, y, stride, yoff = "ldf64", "ldf64", 16, 8
	case wide:
		x, stride, yoff = "ldf64", 12, 8
	}
	if yFirst {
		xoff, yoff = stride-yoff, 0
	}
	at := func(reg, off int) string { // arg 0's bytes at local reg plus off
		if off == 0 {
			return fmt.Sprintf("arg 0\nload %d\n", reg)
		}
		return fmt.Sprintf("arg 0\nload %d\npushi %d\naddi\n", reg, off)
	}
	dist := func(a, b int) string { // sqrt((a.x-b.x)^2 + (a.y-b.y)^2) + sum
		return at(a, xoff) + x + "\n" + at(b, xoff) + x + "\nsubf\ndup\nmulf\n" +
			at(a, yoff) + y + "\n" + at(b, yoff) + y + "\nsubf\ndup\nmulf\naddf\nhost sqrt\nload 2\naddf\nstore 2\n"
	}
	cur := fmt.Sprintf("pushi 4\nload 1\npushi %d\nmuli\naddi\nstore 4\n", stride)
	var body string
	switch shape {
	case "shoelace":
		body = cur + at(3, xoff) + x + "\n" + at(4, yoff) + y + "\nmulf\n" + at(4, xoff) + x + "\n" + at(3, yoff) + y +
			"\nmulf\nsubf\nload 2\naddf\nstore 2\nload 4\nstore 3\n"
	case "perimeter":
		body = cur + dist(4, 3) + "load 4\nstore 3\n"
	default: // an edge's ends: aoff = 4 + stride*idx (local 4), boff (local 5)
		for i, end := range []string{"", "pushi 4\naddi\n"} {
			body += fmt.Sprintf("arg 0\nload 3\nload 1\npushi 8\nmuli\naddi\n%sldi32\npushi %d\nmuli\npushi 4\naddi\nstore %d\n", end, stride, 4+i)
		}
		body += dist(4, 5)
	}
	test := "load 1\n"
	if testSum {
		test = "load 2\nf2i\n"
	}
	return "program fl\nconst zero float 0\nfunc eval args=3 locals=6\n" +
		"arg 1\npushi 0\naddi\nstore 0\narg 2\npushi 0\naddi\nstore 3\nconst zero\nstore 2\npushi 0\nstore 1\n" +
		"loop:\n" + test + "load 0\nge\njnz done\n" + body + "load 1\npushi 1\naddi\nstore 1\njmp loop\n" +
		"done:\nload 2\nret\nend"
}

// vertexBytes lays out pts as floatLoop's shape reads them: a count,
// then each vertex's x and y — y first, yFirst — as float32 or, wide,
// the x (and for the shoelace the y) as float64. It returns the stride
// and the bytes.
func vertexBytes(shape string, wide, yFirst bool, pts [][2]float64) (int64, []byte) {
	stride := int64(8)
	if wide {
		stride = 12
		if shape == "shoelace" {
			stride = 16
		}
	}
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(pts)))
	put := func(v float64, w8 bool) {
		if w8 {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
		} else {
			buf = binary.BigEndian.AppendUint32(buf, math.Float32bits(float32(v)))
		}
	}
	for _, p := range pts {
		if yFirst {
			put(p[1], wide && shape == "shoelace")
		}
		put(p[0], wide)
		if !yFirst {
			put(p[1], wide && shape == "shoelace")
		}
	}
	return stride, buf
}

// floatParity is parity with the float result compared bit for bit,
// NaN payloads included.
func floatParity(t *testing.T, p *Program, limits Limits, args []Value) outcome {
	t.Helper()
	ref := parity(t, p, 0, limits, args)
	got, err := New(limits).Run(p, 0, nil, cloneValues(args))
	if ref.err == nil && (err != nil || math.Float64bits(got.F) != math.Float64bits(ref.val.F)) {
		t.Fatalf("float result %x (%v), reference %x", math.Float64bits(got.F), err, math.Float64bits(ref.val.F))
	}
	return ref
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

	// The loads that read their operands in place — a register buffer at
	// a scalar register's offset — and the popped pixel store at the same
	// operands, at the last offset inside, the first past either end and
	// on something that is no buffer; the store also under every fuel
	// that runs dry before the end.
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
