package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a file map under a temp dir and returns its root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for path, content := range files {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const namesGo = `package obs

const (
	MFooTotal = "foo_total"
	MBarOpen  = "bar_open"
	MBazSuffix = "_baz"
)
`

func findingsWith(fs []Finding, frag string) int {
	n := 0
	for _, f := range fs {
		if strings.Contains(f.Msg, frag) {
			n++
		}
	}
	return n
}

func TestObsMetricsClean(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/obs/names.go": namesGo,
		"internal/app/app.go": `package app

func setup(r registry) {
	r.Counter(obs.MFooTotal)
	r.Gauge(obs.MBarOpen)
	r.Histogram(prefix + obs.MBazSuffix)
}
`,
	})
	fs, err := ObsMetrics(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Errorf("clean tree produced findings: %v", fs)
	}
}

func TestObsMetricsViolations(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/obs/names.go": namesGo,
		"internal/app/app.go": `package app

func setup(r registry) {
	r.Counter(obs.MFooTotal)
	r.Counter(obs.MFooTotal)          // duplicate registration
	r.Gauge("raw_literal_name")       // not in the inventory
	// obs.MBarOpen and obs.MBazSuffix never registered
}
`,
	})
	fs, err := ObsMetrics(root)
	if err != nil {
		t.Fatal(err)
	}
	if n := findingsWith(fs, "registered more than once"); n != 1 {
		t.Errorf("duplicate findings = %d, want 1: %v", n, fs)
	}
	if n := findingsWith(fs, "not declared in internal/obs/names.go"); n != 1 {
		t.Errorf("raw-literal findings = %d, want 1: %v", n, fs)
	}
	if n := findingsWith(fs, "never registered"); n != 2 {
		t.Errorf("never-registered findings = %d, want 2: %v", n, fs)
	}
}

func TestObsMetricsSkipsTestsAndObsPackage(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/obs/names.go": namesGo,
		"internal/app/app.go": `package app

func setup(r registry) {
	r.Counter(obs.MFooTotal)
	r.Gauge(obs.MBarOpen)
	r.Histogram(p + obs.MBazSuffix)
}
`,
		// A test file may register scratch metrics freely.
		"internal/app/app_test.go": `package app

func helper(r registry) { r.Counter("scratch") }
`,
		// The obs package itself (e.g. its own examples) is exempt.
		"internal/obs/extra.go": `package obs

func selfRegister(r *Registry) { r.Counter("internal_scratch") }
`,
	})
	fs, err := ObsMetrics(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Errorf("exempt files produced findings: %v", fs)
	}
}

const opNamesGo = `package obs

const SpanOpPrefix = "op:"

const (
	OpScan = "op:scan"
	OpEmit = "op:emit"
)

const (
	PhaseSetup    = "setup"
	PhaseDapStart = "dap:start"
)

var spanClass = map[string]Class{
	OpScan: ClassDB, OpEmit: ClassNet,
	PhaseSetup: ClassMisc, PhaseDapStart: ClassMisc,
}
`

func TestExecOpsClean(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/obs/names.go": opNamesGo,
		"internal/exec/exec.go": `package exec

func lower(tr *obs.Trace, began time.Time) {
	use(obs.OpScan)
	use(obs.OpEmit)
	tr.Begin(obs.PhaseSetup, "").End()
	tr.Add(tr.Interval(obs.PhaseDapStart, "s", began, time.Now()), obs.Span{Name: obs.OpScan})
	verb("setup") // an ordinary word elsewhere is nobody's span name
}
`,
	})
	fs, err := ExecOps(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Errorf("clean tree produced findings: %v", fs)
	}
}

// TestExecOpsPhaseViolations covers the phase-name half of the contract:
// a name with no class, a name nothing records, and the three ways a
// span gets named by a raw literal.
func TestExecOpsPhaseViolations(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/obs/names.go": `package obs

const OpScan = "op:scan"

const (
	PhaseSetup    = "setup"
	PhaseDapStart = "dap:start"
	PhaseOrphan   = "orphan"    // in no class table
	PhaseDead     = "dead"      // recorded by nothing
	PhaseTwin     = "dap:start" // a second name for one span
)

var spanClass = map[string]Class{
	OpScan: ClassDB, PhaseSetup: ClassMisc, PhaseDapStart: ClassMisc, PhaseDead: ClassNone, PhaseTwin: ClassMisc,
}
`,
		"internal/qpc/exec.go": `package qpc

func run(tr *obs.Trace, began time.Time) {
	use(obs.OpScan, obs.PhaseSetup, obs.PhaseDapStart, obs.PhaseOrphan, obs.PhaseTwin)
	tr.Begin("warmup", "")                             // 1: named at Begin
	tr.Add(tr.Interval("cooldown", "", began, began))  // 2: named at Interval
	tr.Add(obs.Span{Name: "marker"})                   // 3: named in a Span literal
	if sp.Name == "dap:start" {                        // 4: a declared namespaced name, spelled out
	}
}
`,
	})
	fs, err := ExecOps(root)
	if err != nil {
		t.Fatal(err)
	}
	for frag, want := range map[string]int{
		"obs.PhaseOrphan has no class":            1,
		"obs.PhaseDead is never used":             1,
		"declared more than once":                 1,
		"raw span name literal":                   4,
		`raw span name literal "dap:start"; use `: 1,
	} {
		if n := findingsWith(fs, frag); n != want {
			t.Errorf("%q findings = %d, want %d: %v", frag, n, want, fs)
		}
	}
	if len(fs) != 7 {
		t.Errorf("%d findings, want 7: %v", len(fs), fs)
	}
}

func TestExecOpsViolations(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/obs/names.go": `package obs

const (
	OpScan  = "op:scan"
	OpScan2 = "op:scan" // same span name twice
	OpBad   = "notop"   // missing the op: prefix
	OpDead  = "op:dead" // never referenced by any executor
)

var spanClass = map[string]Class{OpScan: ClassDB, OpScan2: ClassDB, OpBad: ClassCPU, OpDead: ClassCPU}
`,
		"internal/exec/exec.go": `package exec

func lower() {
	use(obs.OpScan)
	use(obs.OpScan2)
	use(obs.OpBad)
	trace("op:raw") // span name bypassing the inventory
}
`,
	})
	fs, err := ExecOps(root)
	if err != nil {
		t.Fatal(err)
	}
	if n := findingsWith(fs, "declared more than once"); n != 1 {
		t.Errorf("duplicate-value findings = %d, want 1: %v", n, fs)
	}
	if n := findingsWith(fs, "does not start with the op: span prefix"); n != 1 {
		t.Errorf("bad-prefix findings = %d, want 1: %v", n, fs)
	}
	if n := findingsWith(fs, "raw operator span literal"); n != 1 {
		t.Errorf("raw-literal findings = %d, want 1: %v", n, fs)
	}
	if n := findingsWith(fs, "is never used outside package obs"); n != 1 {
		t.Errorf("never-used findings = %d, want 1: %v", n, fs)
	}
}

func TestExecOpsSkipsTestsAndObsPackage(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/obs/names.go": opNamesGo,
		"internal/exec/exec.go": `package exec

func lower() {
	use(obs.OpScan, obs.PhaseSetup)
	use(obs.OpEmit, obs.PhaseDapStart)
}
`,
		// Test files may spell span names raw when asserting output.
		"internal/exec/exec_test.go": `package exec

func helper(tr *obs.Trace) { check("op:scan[0]"); tr.Begin("dap:start", "") }
`,
		// The obs package itself builds names from the prefix freely.
		"internal/obs/trace.go": `package obs

func phase(name string) bool { return len(name) > len("op:") }
`,
	})
	fs, err := ExecOps(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Errorf("exempt files produced findings: %v", fs)
	}
}

const wireOK = `package wire

type MsgType uint8

const (
	MsgHello MsgType = iota + 1
	MsgData
	MsgClose
)

var msgNames = map[MsgType]string{
	MsgHello: "HELLO", MsgData: "DATA", MsgClose: "CLOSE",
}
`

func TestWireCheckClean(t *testing.T) {
	root := writeTree(t, map[string]string{"internal/wire/wire.go": wireOK})
	fs, err := WireCheck(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Errorf("clean wire produced findings: %v", fs)
	}
}

func TestWireCheckMissingEntry(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/wire/wire.go": `package wire

type MsgType uint8

const (
	MsgHello MsgType = iota + 1
	MsgData
	MsgOrphan // new frame type, never added to the table
)

var msgNames = map[MsgType]string{
	MsgHello: "HELLO", MsgData: "DATA",
}
`,
	})
	fs, err := WireCheck(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "MsgOrphan") {
		t.Errorf("findings = %v, want one about MsgOrphan", fs)
	}
}

// TestRepositoryIsClean runs every check against this repository — the
// same gate CI applies via cmd/mocha-lint.
func TestRepositoryIsClean(t *testing.T) {
	root := "../.."
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skip("repo root not found")
	}
	fs, err := Run(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("%s", f)
	}
}
