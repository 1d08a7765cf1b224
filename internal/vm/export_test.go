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

// LoopShapes lists, block by block, how function fn of a verified
// program runs its loops in place: "self" (a block whose own test sends
// it back) or "rotated" (a body that takes its header's test), followed
// by " kernel" when one call runs whole iterations — " float kernel"
// when its body is a float one.
func LoopShapes(p *Program, fn string) []string {
	var out []string
	for _, b := range p.verified.code(p).funcs[p.FuncIndex(fn)].blocks {
		if l := b.loop; l != nil {
			s := "self"
			if l.hn > 0 {
				s = "rotated"
			}
			if k := l.kernel; k != nil && k.body == fFloat {
				s += " float kernel"
			} else if k != nil {
				s += " kernel"
			}
			out = append(out, s)
		}
	}
	return out
}
