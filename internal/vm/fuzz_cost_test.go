package vm

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// costSoundCheck is the bound-soundness oracle shared by FuzzCostSound
// and the committed-corpus sweep: any program the verifier accepts must
// never execute more instructions in one invocation than its static
// per-invocation budget claims, and the reference interpreter and the
// compiled engine must count (and otherwise behave) identically.
func costSoundCheck(t *testing.T, code []byte, nargs, nglobals uint8) {
	t.Helper()
	p := fuzzProgram(code, nargs, nglobals)
	if err := Verify(p); err != nil {
		return // rejection is always sound
	}
	info := p.verified
	budget := info.Funcs[0].BudgetInstrs

	limits := DefaultLimits
	limits.MaxFuel = 50000
	got := parity(t, p, 0, limits, fuzzArgs(p.Funcs[0].NArgs))
	if got.instrs > budget {
		t.Fatalf("bound unsound: executed %d instructions, static budget %d (bounded=%v)\ncode: %q",
			got.instrs, budget, info.Funcs[0].Bounded, code)
	}
}

// costSeedSrcs are the loop shapes the cost pass must price: they seed
// FuzzCostSound and are committed to its corpus so TestCostSoundCorpus
// pins them on every plain `go test` run.
var costSeedSrcs = []string{
	// canonical ascending bounded loop
	countingLoop(10),
	// zero-trip loop: guard false on entry
	"program s\nfunc eval args=0 locals=1\npushi 5\nstore 0\nloop:\nload 0\npushi 5\nlt\njz done\nload 0\npushi 1\naddi\nstore 0\njmp loop\ndone:\npushi 0\nret\nend",
	// descending bounded loop
	"program s\nfunc eval args=0 locals=1\npushi 8\nstore 0\nloop:\nload 0\npushi 0\ngt\njz done\nload 0\npushi 1\nsubi\nstore 0\njmp loop\ndone:\npushi 0\nret\nend",
	// nested bounded loops, inner re-initialized per outer trip
	"program s\nfunc eval args=0 locals=2\npushi 0\nstore 0\nouter:\nload 0\npushi 3\nlt\njz done\npushi 0\nstore 1\ninner:\nload 1\npushi 4\nlt\njz iout\nload 1\npushi 1\naddi\nstore 1\njmp inner\niout:\nload 0\npushi 1\naddi\nstore 0\njmp outer\ndone:\npushi 0\nret\nend",
	// input-dependent loop (bound read from an argument)
	"program s\nfunc eval args=1 locals=1\npushi 0\nstore 0\nloop:\nload 0\narg 0\nlt\njz done\nload 0\npushi 1\naddi\nstore 0\njmp loop\ndone:\npushi 0\nret\nend",
	// mutually-exclusive branches
	"program s\nfunc eval args=1 locals=0\narg 0\npushi 0\ngt\njz neg\npushi 1\nret\nneg:\npushi 2\nret\nend",
	// call with the callee budget inlined, plus a host intrinsic; the
	// const pool and aux helper mirror fuzzProgram's fixed wrapping
	"program s\nconst i int 42\nconst f float 2.5\nfunc eval args=0 locals=0\nconst f\nhost sqrt\ncall aux\nret\nend\nfunc aux args=1 locals=0\narg 0\nret\nend",
	// a cycle also entered in its middle: no header dominates it, so it is
	// no natural loop and has no bound
	"program s\nfunc eval args=0 locals=2\nload 1\npushi 3\nge\njnz mid\ntop:\nload 0\npushi 1\naddi\nstore 0\nmid:\nload 1\npushi 1\naddi\nstore 1\nload 1\npushi 3\nlt\njnz top\nload 0\nret\nend",
}

// moveSeedSrcs are the block moves and the allocation the verifier, the
// compiler and the cost pass must agree with the reference about: they
// seed both fuzz targets and are committed to both corpora.
var moveSeedSrcs = []string{
	// static length: bounded, a unit of budget per 8 bytes
	"program s\nfunc eval args=0 locals=0\npushi 64\nbnew\npushi 0\npushi 64\nbnew\npushi 0\npushi 64\nbcopy\nblen\nret\nend",
	// computed length: the function is unbounded
	"program s\nfunc eval args=1 locals=0\npushi 64\nbnew\npushi 3\npushi 64\nbnew\npushi 0\narg 0\nbcopy\npop\npushi 0\nret\nend",
	// static length under a bounded loop, overlapping inside one buffer
	"program s\nfunc eval args=0 locals=2\npushi 40\nbnew\nstore 1\npushi 0\nstore 0\nloop:\nload 0\npushi 4\nlt\njz done\nload 1\npushi 8\nload 1\npushi 0\npushi 32\nbcopy\npop\nload 0\npushi 1\naddi\nstore 0\njmp loop\ndone:\nload 1\nret\nend",
	// a static length reached by a jump as well: not static after all
	"program s\nfunc eval args=1 locals=0\npushi 64\nbnew\npushi 0\npushi 64\nbnew\npushi 0\narg 0\npushi 0\ngt\njz small\npushi 64\njmp move\nsmall:\npushi 8\nmove:\nbcopy\nblen\nret\nend",
	// bnew of a size that would wrap the bytes allocated so far; only the
	// code is kept, so the pool just puts big where fuzzProgram has it
	"program s\nconst i int 42\nconst f float 2.5\nconst s str \"mocha\"\nconst b str \"bytes\"\nconst big int 9223372036854775807\n" +
		"func eval args=0 locals=0\npushi 1\nbnew\nconst big\nbnew\nret\nend",
}

// fuseSeedSrcs are the loop kernels at their edges — a byte reduction
// and a strided copy, clean, past the end of a buffer, aliased, over a
// value that is no buffer, and out of fuel in the middle of the kernel —
// for both fuzz targets and both corpora. fuzzProgram gives every
// function four locals and no buffer among the arguments, so each makes
// its own with bnew.
var fuseSeedSrcs = []string{
	countedReduction(16, 16),
	countedReduction(16, 20),
	"program s\nfunc eval args=0 locals=4\npushi 40\nbnew\nstore 2\npushi 16\nbnew\nstore 3\nload 1\npushi 16\nge\njnz done\nbody:\n" +
		"load 2\nload 0\nload 3\nload 1\nldu8\nstu8\npop\nload 0\npushi 2\naddi\nstore 0\nload 1\npushi 1\naddi\nstore 1\nload 1\npushi 16\nlt\njnz body\ndone:\nload 2\nret\nend",
	"program s\nfunc eval args=0 locals=4\npushi 20\nbnew\nstore 2\nload 1\npushi 16\nge\njnz done\nbody:\n" +
		"load 2\nload 0\nload 2\nload 1\nldu8\nstu8\npop\nload 0\npushi 2\naddi\nstore 0\nload 1\npushi 1\naddi\nstore 1\nload 1\npushi 16\nlt\njnz body\ndone:\nload 2\nret\nend",
	"program s\nfunc eval args=1 locals=2\nloop:\nload 1\npushi 4\nlt\njz done\nload 0\narg 0\nload 1\nldu8\naddi\nstore 0\nload 1\npushi 1\naddi\nstore 1\njmp loop\ndone:\nload 0\nret\nend",
	countedReduction(8192, 8192),
}

// fuseRunSeedSrcs are the loop kernels at the edges of a run, where the
// run rule's closed form or an access's room could be one off: a
// negative stride into a bounds trap, a counter wrapping past MaxInt64
// under an le test that always goes round, a stride of 3 trapping mid-
// run, an ne test landing exactly on its limit and one stepping over
// it, a zero stride under an eq test until the fuel runs out, and float
// rings of 3 vertices with ldf64 reads, one reading past the end on its
// last iteration. The pool is fuzzProgram's, so const big is MaxInt64.
var fuseRunSeedSrcs = []string{
	byteRun("pushi 10\nstore 1\n", "pushi 20\nlt", "load 1", "pushi -1"),
	"program s\nconst i int 42\nconst f float 2.5\nconst s str \"mocha\"\nconst b str \"bytes\"\nconst big int 9223372036854775807\n" +
		"func eval args=0 locals=4\npushi 16\nbnew\nstore 2\nconst big\npushi -6\naddi\nstore 1\nloop:\nload 1\nconst big\nle\njz done\n" +
		"load 0\nload 2\nload 1\nconst big\nsubi\npushi 7\naddi\nldu8\naddi\nstore 0\nload 1\npushi 1\naddi\nstore 1\njmp loop\ndone:\nload 0\nret\nend",
	"program s\nfunc eval args=0 locals=4\npushi 40\nbnew\nstore 2\npushi 16\nbnew\nstore 3\nload 1\npushi 40\nge\njnz done\nbody:\n" +
		"load 2\nload 0\nload 3\nload 1\nldu8\nstu8\npop\nload 0\npushi 1\naddi\nstore 0\nload 1\npushi 3\naddi\nstore 1\nload 1\npushi 40\nlt\njnz body\ndone:\nload 2\nret\nend",
	byteRun("pushi 1\nstore 1\n", "pushi 13\nne", "load 1", "pushi 3"),
	byteRun("pushi 1\nstore 1\n", "pushi 12\nne", "load 1", "pushi 3"),
	byteRun("pushi 4\nstore 1\n", "pushi 4\neq", "load 1", "pushi 0"),
	strings.Replace(floatSeed("shoelace", "pushi 28\nbnew\nstore 0\npushi 20\nstore 2\n", 3), "ldf32", "ldf64", 2),
	strings.Replace(floatSeed("perimeter", "pushi 28\nbnew\nstore 0\npushi 20\nstore 2\n", 3), "ldf32", "ldf64", 1),
}

// byteRun sums the bytes of a fresh 16-byte buffer (local 2) at offset
// off of counter local 1, which init sets and step moves, while the
// counter and test — the limit's push, then the comparison — go round.
func byteRun(init, test, off, step string) string {
	return "program s\nfunc eval args=0 locals=4\npushi 16\nbnew\nstore 2\n" + init + "loop:\nload 1\n" + test + "\njz done\n" +
		"load 0\nload 2\n" + off + "\nldu8\naddi\nstore 0\nload 1\n" + step + "\naddi\nstore 1\njmp loop\ndone:\nload 0\nret\nend"
}

// floatSeedSrcs are the float kernel at its edges — clean, a read past
// the end in the middle of the kernel, over a value that is no buffer,
// out of fuel in the middle of the kernel, over a NaN, and a gather at
// an index past the end — for both fuzz targets and both corpora. With
// fuzzProgram's four locals (the buffer, the counter and two offsets)
// each keeps its sum on the operand stack.
var floatSeedSrcs = []string{
	floatSeed("shoelace", "pushi 68\nbnew\nstore 0\npushi 60\nstore 2\n", 8),
	floatSeed("perimeter", "pushi 36\nbnew\nstore 0\npushi 4\nstore 2\n", 8),
	floatSeed("perimeter", "arg 0\nstore 0\n", 8),
	floatSeed("shoelace", "pushi 40004\nbnew\nstore 0\npushi 4\nstore 2\n", 5000),
	floatSeed("perimeter", "pushi 68\nbnew\nstore 0\npushi 4\nstore 2\nload 0\npushi 20\npushi 0\ni2f\npushi 0\ni2f\ndivf\nstf32\npop\n", 8),
	floatSeed("gather", "pushi 132\nbnew\nstore 0\nload 0\npushi 104\npushi 1000\nsti32\npop\n", 8),
}

// floatSeed writes shape ("shoelace", "perimeter" or "gather", as
// floatLoop's) over the buffer setup leaves in local 0: n trips of
// counter local 1, the ring's offsets in locals 2 (previous, as setup
// leaves it) and 3, the gather's edge list at 68.
func floatSeed(shape, setup string, n int) string {
	at := func(reg, off int) string {
		return fmt.Sprintf("load 0\nload %d\npushi %d\naddi\nldf32\n", reg, off)
	}
	dist := func(a, b int) string {
		return at(a, 0) + at(b, 0) + "subf\ndup\nmulf\n" + at(a, 4) + at(b, 4) + "subf\ndup\nmulf\naddf\nhost sqrt\naddf\n"
	}
	cur := "pushi 4\nload 1\npushi 8\nmuli\naddi\nstore 3\n"
	var body string
	switch shape {
	case "shoelace":
		body = cur + at(2, 0) + at(3, 4) + "mulf\n" + at(3, 0) + at(2, 4) + "mulf\nsubf\naddf\nload 3\nstore 2\n"
	case "perimeter":
		body = cur + dist(3, 2) + "load 3\nstore 2\n"
	default:
		for i := 0; i < 2; i++ {
			body += fmt.Sprintf("load 0\nload 1\npushi 8\nmuli\npushi %d\naddi\nldi32\npushi 8\nmuli\npushi 4\naddi\nstore %d\n", 68+4*i, 2+i)
		}
		body += dist(2, 3)
	}
	return fmt.Sprintf("program s\nfunc eval args=1 locals=4\n%spushi 0\ni2f\nloop:\nload 1\npushi %d\nge\njnz done\n%s"+
		"load 1\npushi 1\naddi\nstore 1\njmp loop\ndone:\nret\nend", setup, n, body)
}

// countedReduction sums the bytes of a fresh buffer of size bytes at
// offsets below limit: the loop AvgEnergy is made of.
func countedReduction(size, limit int) string {
	return fmt.Sprintf("program s\nfunc eval args=0 locals=3\npushi %d\nbnew\nstore 2\nloop:\nload 1\npushi %d\nlt\njz done\n"+
		"load 0\nload 2\nload 1\nldu8\naddi\nstore 0\nload 1\npushi 1\naddi\nstore 1\njmp loop\ndone:\nload 0\nret\nend", size, limit)
}

// FuzzCostSound fuzzes the bound-soundness oracle: static per-invocation
// instruction budget >= the reference interpreter's executed count, with
// the compiled engine counting identically.
func FuzzCostSound(f *testing.F) {
	for _, src := range slices.Concat(costSeedSrcs, moveSeedSrcs, fuseSeedSrcs, fuseRunSeedSrcs, floatSeedSrcs) {
		p := MustAssemble(src)
		f.Add(p.Funcs[0].Code, uint8(p.Funcs[0].NArgs), uint8(p.NGlobals))
	}
	f.Add([]byte{byte(OpRet)}, uint8(0), uint8(0))
	f.Fuzz(costSoundCheck)
}

// parseFuzzCorpusFile decodes one committed `go test fuzz v1` file into
// the (code, nargs, nglobals) triple of the vm fuzz targets.
func parseFuzzCorpusFile(path string) (code []byte, bytes []uint8, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != "go test fuzz v1" {
		return nil, nil, fmt.Errorf("%s: not a go fuzz v1 corpus file", path)
	}
	for _, line := range lines[1:] {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "[]byte(") && strings.HasSuffix(line, ")"):
			s, uerr := strconv.Unquote(line[len("[]byte(") : len(line)-1])
			if uerr != nil {
				return nil, nil, fmt.Errorf("%s: %v", path, uerr)
			}
			code = []byte(s)
		case strings.HasPrefix(line, "byte(") && strings.HasSuffix(line, ")"):
			s, uerr := strconv.Unquote(line[len("byte(") : len(line)-1])
			if uerr != nil || len(s) == 0 {
				return nil, nil, fmt.Errorf("%s: bad byte literal %q", path, line)
			}
			bytes = append(bytes, s[0])
		case strings.HasPrefix(line, "uint8(") && strings.HasSuffix(line, ")"):
			n, uerr := strconv.ParseUint(line[len("uint8("):len(line)-1], 10, 8)
			if uerr != nil {
				return nil, nil, fmt.Errorf("%s: bad uint8 literal %q", path, line)
			}
			bytes = append(bytes, uint8(n))
		default:
			return nil, nil, fmt.Errorf("%s: unrecognized corpus line %q", path, line)
		}
	}
	return code, bytes, nil
}

// TestCostSoundCorpus replays every committed fuzz-corpus program —
// both the verifier-soundness corpus and the cost-soundness seeds —
// through the bound-soundness oracle on every plain test run, pinning
// the acceptance criterion "static budget >= executed count for every
// program in the committed corpus" without invoking the fuzzer.
func TestCostSoundCorpus(t *testing.T) {
	total := 0
	for _, dir := range []string{"FuzzVerifySound", "FuzzCostSound"} {
		entries, err := os.ReadDir(filepath.Join("testdata", "fuzz", dir))
		if err != nil {
			t.Fatalf("corpus dir %s: %v", dir, err)
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			path := filepath.Join("testdata", "fuzz", dir, e.Name())
			code, extra, err := parseFuzzCorpusFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(extra) != 2 {
				t.Fatalf("%s: want 2 scalar values, got %d", path, len(extra))
			}
			t.Run(dir+"/"+e.Name(), func(t *testing.T) {
				costSoundCheck(t, code, extra[0], extra[1])
			})
			total++
		}
	}
	if total < 15 {
		t.Fatalf("committed corpus suspiciously small: %d files", total)
	}
}

// TestWriteFuzzCorpusSeeds regenerates the committed corpus files for
// the hand-written seeds. Gated behind an env var: run
//
//	MOCHA_WRITE_FUZZ_CORPUS=1 go test ./internal/vm -run TestWriteFuzzCorpusSeeds
//
// after changing costSeedSrcs, moveSeedSrcs, fuseSeedSrcs,
// fuseRunSeedSrcs or floatSeedSrcs, and commit
// the result.
func TestWriteFuzzCorpusSeeds(t *testing.T) {
	if os.Getenv("MOCHA_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set MOCHA_WRITE_FUZZ_CORPUS=1 to regenerate corpus seeds")
	}
	for kind, srcs := range map[string][]string{"loop": costSeedSrcs, "move": moveSeedSrcs, "fuse": fuseSeedSrcs, "fuse-run": fuseRunSeedSrcs, "float": floatSeedSrcs} {
		for i, src := range srcs {
			p := MustAssemble(src)
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nbyte(%q)\nbyte(%q)\n",
				p.Funcs[0].Code, rune(p.Funcs[0].NArgs), rune(p.NGlobals))
			for _, dir := range []string{"FuzzVerifySound", "FuzzCostSound"} {
				full := filepath.Join("testdata", "fuzz", dir)
				if err := os.MkdirAll(full, 0o755); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("seed-%s-%02d", kind, i)
				if err := os.WriteFile(filepath.Join(full, name), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}
