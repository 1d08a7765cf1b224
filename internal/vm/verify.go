package vm

import "fmt"

// Verification limits. Shipped code exceeding these is rejected before it
// ever executes, the static half of the MVM sandbox.
const (
	maxFuncs   = 256
	maxCodeLen = 1 << 20
	maxArgs    = 64
	maxLocals  = 256
	maxGlobals = 256
	maxConsts  = 1 << 16
)

// Verify statically checks a decoded program and, on success, stamps it
// with its VerifyInfo: what a Machine demands before it runs a program
// and what the compiler builds on. The ladder has two rungs: the structural pass (every instruction
// is a defined opcode with in-range operands and every jump lands on an
// instruction boundary) and the dataflow pass (stack-effect abstract
// interpretation proving no underflow, no fall-through, no call-arity
// violation, no recursion, no unreachable code and bounded stack use —
// see Analyze in dataflow.go). A DAP runs Verify on every program it
// receives before loading it into its execution engine; the QPC runs it
// again at catalog publish time so broken operators are never placeable.
func Verify(p *Program) error {
	info, err := Analyze(p)
	if err != nil {
		return err
	}
	p.verified = info
	return nil
}

// checkShape validates program-level limits before per-function passes.
func checkShape(p *Program) error {
	if len(p.Funcs) == 0 {
		return fmt.Errorf("vm: program %q has no functions", p.Name)
	}
	if len(p.Funcs) > maxFuncs {
		return fmt.Errorf("vm: program %q has %d functions (max %d)", p.Name, len(p.Funcs), maxFuncs)
	}
	if len(p.Consts) > maxConsts {
		return fmt.Errorf("vm: program %q has %d constants (max %d)", p.Name, len(p.Consts), maxConsts)
	}
	if p.NGlobals < 0 || p.NGlobals > maxGlobals {
		return fmt.Errorf("vm: program %q declares %d globals (max %d)", p.Name, p.NGlobals, maxGlobals)
	}
	seen := make(map[string]bool, len(p.Funcs))
	for i := range p.Funcs {
		f := &p.Funcs[i]
		if f.Name == "" {
			return fmt.Errorf("vm: function %d is unnamed", i)
		}
		if seen[f.Name] {
			return fmt.Errorf("vm: duplicate function %q", f.Name)
		}
		seen[f.Name] = true
	}
	return nil
}

// scanFunc is the structural pass over one function: it decodes the code
// into an instruction list, checking opcodes, operand ranges and jump
// boundaries. It returns the instructions and an offset→index map for
// the dataflow pass.
func scanFunc(p *Program, f *Func) ([]instr, map[int]int, error) {
	if f.NArgs < 0 || f.NArgs > maxArgs {
		return nil, nil, fmt.Errorf("declares %d args (max %d)", f.NArgs, maxArgs)
	}
	if f.NLocals < 0 || f.NLocals > maxLocals {
		return nil, nil, fmt.Errorf("declares %d locals (max %d)", f.NLocals, maxLocals)
	}
	if len(f.Code) == 0 {
		return nil, nil, fmt.Errorf("has no code")
	}
	if len(f.Code) > maxCodeLen {
		return nil, nil, fmt.Errorf("code is %d bytes (max %d)", len(f.Code), maxCodeLen)
	}

	// First pass: walk instruction boundaries, checking opcodes and
	// non-jump operand ranges.
	var ins []instr
	idx := make(map[int]int)
	type jump struct{ at, target int }
	var jumps []jump
	off := 0
	for off < len(f.Code) {
		op := Op(f.Code[off])
		if !op.Valid() {
			return nil, nil, fmt.Errorf("invalid opcode %d at offset %d", f.Code[off], off)
		}
		next := off + 1
		var operand int
		if op.HasOperand() {
			if off+5 > len(f.Code) {
				return nil, nil, fmt.Errorf("truncated operand for %v at offset %d", op, off)
			}
			operand = int(int32(uint32(f.Code[off+1])<<24 | uint32(f.Code[off+2])<<16 |
				uint32(f.Code[off+3])<<8 | uint32(f.Code[off+4])))
			next = off + 5
		}
		switch op {
		case OpConst:
			if operand < 0 || operand >= len(p.Consts) {
				return nil, nil, fmt.Errorf("const index %d out of range at offset %d", operand, off)
			}
		case OpArg:
			if operand < 0 || operand >= f.NArgs {
				return nil, nil, fmt.Errorf("arg index %d out of range at offset %d", operand, off)
			}
		case OpLoad, OpStore:
			if operand < 0 || operand >= f.NLocals {
				return nil, nil, fmt.Errorf("local index %d out of range at offset %d", operand, off)
			}
		case OpGLoad, OpGStore:
			if operand < 0 || operand >= p.NGlobals {
				return nil, nil, fmt.Errorf("global index %d out of range at offset %d", operand, off)
			}
		case OpCall:
			if operand < 0 || operand >= len(p.Funcs) {
				return nil, nil, fmt.Errorf("call target %d out of range at offset %d", operand, off)
			}
		case OpHost:
			if operand < 0 || operand >= NumHost {
				return nil, nil, fmt.Errorf("host intrinsic %d unknown at offset %d", operand, off)
			}
		case OpJmp, OpJz, OpJnz:
			jumps = append(jumps, jump{at: off, target: operand})
		}
		idx[off] = len(ins)
		ins = append(ins, instr{off: off, next: next, op: op, operand: operand})
		off = next
	}

	// Second pass: every jump target must be an instruction boundary.
	for _, j := range jumps {
		if _, ok := idx[j.target]; !ok {
			return nil, nil, fmt.Errorf("jump at offset %d targets %d, not an instruction boundary", j.at, j.target)
		}
	}
	return ins, idx, nil
}
