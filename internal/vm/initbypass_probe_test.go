package vm

import "testing"

// Probe: jump directly to the init store, bypassing the pushi the
// classifier reads the init value from.
func TestInitBypassProbe(t *testing.T) {
	src := `program s
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
end`
	p := MustAssemble(src)
	if err := Verify(p); err != nil {
		t.Fatalf("verify rejected: %v", err)
	}
	info := p.verified
	t.Logf("bounded=%v budget=%d", info.Funcs[0].Bounded, info.Funcs[0].BudgetInstrs)
	got := parity(t, p, 0, DefaultLimits, nil)
	t.Logf("executed=%d err=%v", got.instrs, got.err)
	if info.Funcs[0].Bounded && got.instrs > info.Funcs[0].BudgetInstrs {
		t.Fatalf("UNSOUND: executed %d > budget %d", got.instrs, info.Funcs[0].BudgetInstrs)
	}
}
