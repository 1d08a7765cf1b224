package vm

import "fmt"

// Op is an MVM opcode. Instructions are one opcode byte optionally
// followed by a 4-byte big-endian signed operand; HasOperand reports
// which. Jump operands are absolute byte offsets into the function's code.
type Op uint8

// The MVM instruction set. The machine is a typed stack machine: integer
// and float arithmetic are distinct; comparisons are polymorphic over
// (int, float, str, bool, bytes); byte-buffer instructions give shipped
// operators direct access to large-object wire payloads.
const (
	OpNop  Op = iota
	OpRet     // return top of stack (or void if stack empty at entry frame)
	OpPop     // discard top
	OpDup     // duplicate top
	OpSwap    // swap top two

	OpConst // <idx> push constants pool entry
	OpPushI // <imm> push small int immediate
	OpArg   // <n> push argument n
	OpLoad  // <n> push local n
	OpStore // <n> pop into local n
	OpGLoad // <n> push global n (aggregate state slot)
	OpGStore

	OpAddI
	OpSubI
	OpMulI
	OpDivI // traps on divide by zero
	OpModI
	OpNegI
	OpAddF
	OpSubF
	OpMulF
	OpDivF
	OpNegF
	OpI2F
	OpF2I

	OpEq // polymorphic comparisons: pop b, a; push bool
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	OpAnd
	OpOr
	OpNot

	OpJmp  // <abs> unconditional jump
	OpJz   // <abs> jump if top is false (pops)
	OpJnz  // <abs> jump if top is true (pops)
	OpCall // <fidx> call function in same program

	OpBLen   // pop bytes; push length
	OpLdU8   // pop off, buf; push buf[off] as int
	OpLdI32  // pop off, buf; push big-endian int32 at off
	OpLdF32  // pop off, buf; push big-endian float32 at off (as float)
	OpLdF64  // pop off, buf; push big-endian float64 at off
	OpBNew   // pop size; push new zeroed byte buffer (counts against alloc budget)
	OpStU8   // pop val, off, buf; store byte; push buf
	OpStI32  // pop val, off, buf; store int32; push buf
	OpStF32  // pop val, off, buf; store float32 (from float); push buf
	OpBSlice // pop end, start, buf; push buf[start:end] (no copy)

	OpSLen // pop str; push length

	OpHost // <id> call host intrinsic (fixed math table, see Host IDs)

	// Appended, not filed with the buffer instructions: an opcode's number
	// is bytecode, and every released class's digest depends on it.
	OpBCopy // pop n, soff, src, doff, dst; copy src[soff:soff+n] to dst[doff:]; push dst (n>>3 more fuel)

	numOps
)

// Host intrinsic identifiers for OpHost. The host table is a fixed part of
// the MVM specification — pure math only, so shipped code stays sandboxed.
const (
	HostSqrt = iota // pop float; push sqrt
	HostAbsF        // pop float; push |x|
	HostAbsI        // pop int; push |x|
	HostPow         // pop y, x; push x^y
	HostFloor
	HostCeil
	HostLog // natural log; traps on x <= 0
	HostExp

	NumHost
)

var opInfo = [numOps]struct {
	name    string
	operand bool
}{
	OpNop:    {"nop", false},
	OpRet:    {"ret", false},
	OpPop:    {"pop", false},
	OpDup:    {"dup", false},
	OpSwap:   {"swap", false},
	OpConst:  {"const", true},
	OpPushI:  {"pushi", true},
	OpArg:    {"arg", true},
	OpLoad:   {"load", true},
	OpStore:  {"store", true},
	OpGLoad:  {"gload", true},
	OpGStore: {"gstore", true},
	OpAddI:   {"addi", false},
	OpSubI:   {"subi", false},
	OpMulI:   {"muli", false},
	OpDivI:   {"divi", false},
	OpModI:   {"modi", false},
	OpNegI:   {"negi", false},
	OpAddF:   {"addf", false},
	OpSubF:   {"subf", false},
	OpMulF:   {"mulf", false},
	OpDivF:   {"divf", false},
	OpNegF:   {"negf", false},
	OpI2F:    {"i2f", false},
	OpF2I:    {"f2i", false},
	OpEq:     {"eq", false},
	OpNe:     {"ne", false},
	OpLt:     {"lt", false},
	OpLe:     {"le", false},
	OpGt:     {"gt", false},
	OpGe:     {"ge", false},
	OpAnd:    {"and", false},
	OpOr:     {"or", false},
	OpNot:    {"not", false},
	OpJmp:    {"jmp", true},
	OpJz:     {"jz", true},
	OpJnz:    {"jnz", true},
	OpCall:   {"call", true},
	OpBLen:   {"blen", false},
	OpLdU8:   {"ldu8", false},
	OpLdI32:  {"ldi32", false},
	OpLdF32:  {"ldf32", false},
	OpLdF64:  {"ldf64", false},
	OpBNew:   {"bnew", false},
	OpStU8:   {"stu8", false},
	OpStI32:  {"sti32", false},
	OpStF32:  {"stf32", false},
	OpBSlice: {"bslice", false},
	OpSLen:   {"slen", false},
	OpHost:   {"host", true},
	OpBCopy:  {"bcopy", false},
}

// Valid reports whether the opcode is defined.
func (o Op) Valid() bool { return o < numOps && opInfo[o].name != "" }

// HasOperand reports whether the instruction carries a 4-byte operand.
func (o Op) HasOperand() bool { return o.Valid() && opInfo[o].operand }

// String returns the assembly mnemonic.
func (o Op) String() string {
	if o.Valid() {
		return opInfo[o].name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// OpByName resolves an assembly mnemonic.
func OpByName(name string) (Op, bool) {
	for op := Op(0); op < numOps; op++ {
		if opInfo[op].name == name {
			return op, true
		}
	}
	return OpNop, false
}

var hostNames = [NumHost]string{
	HostSqrt: "sqrt", HostAbsF: "absf", HostAbsI: "absi", HostPow: "pow",
	HostFloor: "floor", HostCeil: "ceil", HostLog: "log", HostExp: "exp",
}

// HostName returns the mnemonic of a host intrinsic id, or "" if unknown.
func HostName(id int) string {
	if id >= 0 && id < NumHost {
		return hostNames[id]
	}
	return ""
}

// HostByName resolves a host intrinsic mnemonic.
func HostByName(name string) (int, bool) {
	for i, n := range hostNames {
		if n == name {
			return i, true
		}
	}
	return 0, false
}
