package vm

import "testing"

// ParityFrom lets the external test package (builtins_test.go, which
// must import internal/ops and so cannot live in package vm) run the
// reference-versus-compiled oracle: see parityFrom.
func ParityFrom(t testing.TB, p *Program, fn int, limits Limits, globals, args []Value) (Value, []Value, error) {
	t.Helper()
	got := parityFrom(t, p, fn, limits, globals, args)
	return got.val, got.globals, got.err
}
