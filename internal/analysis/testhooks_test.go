package analysis

import "testing"

func TestTestHooksViolations(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/exec/lanes.go": `package exec

func ForceLanes(w int) (restore func()) { return func() {} }

func HelperTokens() (size, free int) { return 0, 0 }

func pin() { defer ForceLanes(2)() }
`,
		"internal/dap/dap.go": `package dap

import "mocha/internal/exec"

func serve() {
	restore := exec.ForceLanes(4)
	defer restore()
	_, _ = exec.HelperTokens()
}
`,
	})
	fs, err := TestHooks(root)
	if err != nil {
		t.Fatal(err)
	}
	if got := findingsWith(fs, "ForceLanes is a test hook"); got != 2 {
		t.Errorf("ForceLanes findings = %d, want 2: %v", got, fs)
	}
	if got := findingsWith(fs, "HelperTokens is a test hook"); got != 1 {
		t.Errorf("HelperTokens findings = %d, want 1: %v", got, fs)
	}
	if len(fs) != 3 {
		t.Errorf("got %d findings, want 3: %v", len(fs), fs)
	}
}

func TestTestHooksSkipsTests(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/exec/lanes.go": `package exec

func ForceLanes(w int) (restore func()) { return func() {} }
`,
		"pkg/mocha/lanes_test.go": `package mocha

import "mocha/internal/exec"

func pin() { defer exec.ForceLanes(2)() }
`,
	})
	fs, err := TestHooks(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("test file or declaration flagged: %s", f)
	}
}
