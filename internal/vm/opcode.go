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

// opInfo is everything the static passes know of an opcode, one row
// each: its mnemonic; whether a 4-byte operand follows it; its stack
// effect where that is fixed — the kinds it pops, top of stack first, and
// the kind it pushes — with nil pops where analyzeFunc models the op
// itself; and its weight for the cost pass, in abstract units where one
// unit is roughly one simple interpreted instruction. Weights are
// relative, not nanoseconds: division, buffer allocation and call
// dispatch cost more than register-style moves. A host call adds its
// intrinsic's hostInfo cost, a bcopy a unit per 8 bytes where its length
// is static. TestInstructionTable holds every opcode to a named, priced
// row.
var opInfo = [numOps]struct {
	name    string
	operand bool
	cost    int64
	pops    []absKind
	push    absKind
}{
	OpNop:    {"nop", false, 1, nil, 0},
	OpRet:    {"ret", false, 1, nil, 0},
	OpPop:    {"pop", false, 1, nil, 0},
	OpDup:    {"dup", false, 1, nil, 0},
	OpSwap:   {"swap", false, 1, nil, 0},
	OpConst:  {"const", true, 1, nil, 0},
	OpPushI:  {"pushi", true, 1, nil, 0},
	OpArg:    {"arg", true, 1, nil, 0},
	OpLoad:   {"load", true, 1, nil, 0},
	OpStore:  {"store", true, 1, nil, 0},
	OpGLoad:  {"gload", true, 2, nil, 0},
	OpGStore: {"gstore", true, 2, nil, 0},
	OpAddI:   {"addi", false, 1, popII, akInt},
	OpSubI:   {"subi", false, 1, popII, akInt},
	OpMulI:   {"muli", false, 2, popII, akInt},
	OpDivI:   {"divi", false, 12, popII, akInt},
	OpModI:   {"modi", false, 12, popII, akInt},
	OpNegI:   {"negi", false, 1, popI, akInt},
	OpAddF:   {"addf", false, 2, popFF, akFloat},
	OpSubF:   {"subf", false, 2, popFF, akFloat},
	OpMulF:   {"mulf", false, 2, popFF, akFloat},
	OpDivF:   {"divf", false, 8, popFF, akFloat},
	OpNegF:   {"negf", false, 1, popF, akFloat},
	OpI2F:    {"i2f", false, 1, popI, akFloat},
	OpF2I:    {"f2i", false, 2, popF, akInt},
	OpEq:     {"eq", false, 2, nil, 0},
	OpNe:     {"ne", false, 2, nil, 0},
	OpLt:     {"lt", false, 2, nil, 0},
	OpLe:     {"le", false, 2, nil, 0},
	OpGt:     {"gt", false, 2, nil, 0},
	OpGe:     {"ge", false, 2, nil, 0},
	OpAnd:    {"and", false, 1, popBB, akBool},
	OpOr:     {"or", false, 1, popBB, akBool},
	OpNot:    {"not", false, 1, []absKind{akBool}, akBool},
	OpJmp:    {"jmp", true, 1, nil, 0},
	OpJz:     {"jz", true, 1, nil, 0},
	OpJnz:    {"jnz", true, 1, nil, 0},
	OpCall:   {"call", true, 8, nil, 0},
	OpBLen:   {"blen", false, 1, []absKind{akBytes}, akInt},
	OpLdU8:   {"ldu8", false, 3, popIY, akInt},
	OpLdI32:  {"ldi32", false, 4, popIY, akInt},
	OpLdF32:  {"ldf32", false, 4, popIY, akFloat},
	OpLdF64:  {"ldf64", false, 4, popIY, akFloat},
	OpBNew:   {"bnew", false, 12, popI, akBytes},
	OpStU8:   {"stu8", false, 3, popIIY, akBytes},
	OpStI32:  {"sti32", false, 4, popIIY, akBytes},
	OpStF32:  {"stf32", false, 4, []absKind{akFloat, akInt, akBytes}, akBytes},
	OpBSlice: {"bslice", false, 8, popIIY, akBytes},
	OpSLen:   {"slen", false, 1, []absKind{akStr}, akInt},
	OpHost:   {"host", true, 4, nil, 0},
	OpBCopy:  {"bcopy", false, 8, []absKind{akInt, akInt, akBytes, akInt, akBytes}, akBytes},
}

var (
	popI   = []absKind{akInt}
	popF   = []absKind{akFloat}
	popII  = []absKind{akInt, akInt}
	popFF  = []absKind{akFloat, akFloat}
	popBB  = []absKind{akBool, akBool}
	popIY  = []absKind{akInt, akBytes}
	popIIY = []absKind{akInt, akInt, akBytes}
)

// Valid reports whether the opcode is defined.
func (o Op) Valid() bool { return o < numOps }

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

// hostInfo is opInfo's counterpart for the host intrinsics: mnemonic,
// the units one OpHost dispatch of it costs on top of OpHost's own, and
// its stack effect.
var hostInfo = [NumHost]struct {
	name string
	cost int64
	pops []absKind
	push absKind
}{
	HostSqrt:  {"sqrt", 30, popF, akFloat},
	HostAbsF:  {"absf", 6, popF, akFloat},
	HostAbsI:  {"absi", 4, popI, akInt},
	HostPow:   {"pow", 60, popFF, akFloat},
	HostFloor: {"floor", 8, popF, akFloat},
	HostCeil:  {"ceil", 8, popF, akFloat},
	HostLog:   {"log", 50, popF, akFloat},
	HostExp:   {"exp", 50, popF, akFloat},
}

// HostName returns the mnemonic of a host intrinsic id, or "" if unknown.
func HostName(id int) string {
	if id >= 0 && id < NumHost {
		return hostInfo[id].name
	}
	return ""
}

// HostByName resolves a host intrinsic mnemonic.
func HostByName(name string) (int, bool) {
	for i, h := range hostInfo {
		if h.name == name {
			return i, true
		}
	}
	return 0, false
}
