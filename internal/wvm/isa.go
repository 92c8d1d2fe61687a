package wvm

import "fmt"

// Opcode identifies one VM instruction. The ISA is a compact stack machine:
// expressions leave exactly one value, statements leave none, and the three
// fused loop opcodes (ForInit/ForIter/ForStep) keep counted loops off the
// operand stack entirely.
type Opcode uint8

// The instruction set. Cost-counter charges are listed per opcode; they
// replicate the wscript tree-walking interpreter exactly so both engines
// produce byte-identical profiles. Every executed instruction additionally
// burns one unit of fuel (builtins may add more).
const (
	// OpConst pushes Consts[A]. Literals are free, as in the tree-walker.
	OpConst Opcode = iota
	// OpUnit pushes the unit value.
	OpUnit
	// OpLoadC pushes Consts[A], charging Load 1 (a captured scalar read
	// through an identifier).
	OpLoadC
	// OpLoadT pushes this element's materialized copy of Templates[A],
	// charging Load 1 (a captured mutable value read through an
	// identifier). Copies are per work invocation: mutations do not
	// persist across elements or leak between operator instances.
	OpLoadT
	// OpLoadL pushes local slot A, charging Load 1.
	OpLoadL
	// OpLoadLN pushes local slot A with no charge (internal fetches the
	// tree-walker performs via uncharged env lookups).
	OpLoadLN
	// OpStoreL pops into local slot A, charging Store 1.
	OpStoreL
	// OpLoadS pushes state slot A, charging Load 1.
	OpLoadS
	// OpLoadSN pushes state slot A with no charge.
	OpLoadSN
	// OpStoreS pops into state slot A, charging Store 1.
	OpStoreS
	// OpStoreSN pops into state slot A with no charge (state initializers
	// define their slots for free).
	OpStoreSN
	// OpPop drops the top of stack.
	OpPop
	// OpJmp jumps to A.
	OpJmp
	// OpBranchF pops the condition, charges Branch 1, requires a bool
	// (B selects the error message context: 0 = if, 1 = while), and jumps
	// to A when false.
	OpBranchF
	// OpAnd pops the left operand of &&: requires a bool, charges
	// Branch 1; when false pushes false and jumps to A (short circuit),
	// otherwise falls through to the right operand.
	OpAnd
	// OpOr pops the left operand of ||: requires a bool, charges Branch 1;
	// when true pushes true and jumps to A.
	OpOr
	// OpCkBool type-checks the top of stack as the right operand of a
	// logical operator (B: 0 = &&, 1 = ||) without charging.
	OpCkBool
	// OpNot pops a bool, charges IntOp 1, pushes the negation.
	OpNot
	// OpNeg pops a number and pushes its negation: IntOp 1 for ints,
	// FloatAdd 1 for floats.
	OpNeg
	// OpArith pops r then l and applies binary operator B (see binopNames)
	// with numeric promotion and the tree-walker's per-type charges.
	OpArith
	// OpMkArray pops A elements into a fresh array, charging Store A.
	OpMkArray
	// OpIndex pops index then array, charging Load 1 + IntOp 1.
	OpIndex
	// OpIndexSet pops value, index, then array and stores the element,
	// charging Store 1 + IntOp 1. B names the assigned variable (a string
	// constant index) for error messages.
	OpIndexSet
	// OpEmit pops a value, charges Call 1, and emits it downstream.
	OpEmit
	// OpRet pops the return value and unwinds one frame; returning from
	// the bottom frame ends the invocation.
	OpRet
	// OpCall calls Funcs[A] with B arguments (popped; pushed as the
	// callee's first locals), charging Call 1 and enforcing the call-depth
	// limit.
	OpCall
	// OpCallB calls builtin A with B arguments, charging Call 1 plus the
	// builtin's own operation costs.
	OpCallB
	// OpWhileInit zeroes the frame's while-iteration counter A.
	OpWhileInit
	// OpWhileStep bumps while-counter A and traps after 10M iterations,
	// mirroring the tree-walker's runaway-loop guard.
	OpWhileStep
	// OpForInit pops hi then lo (both must be ints) into hidden locals
	// B and B+1.
	OpForInit
	// OpForIter jumps to A when the counter in local B has passed the
	// bound in B+1; otherwise it charges Branch 1 + IntOp 1 and copies the
	// counter into the visible loop variable at B+2.
	OpForIter
	// OpForStep increments local B (free, like the tree-walker's loop
	// bookkeeping) and jumps back to A.
	OpForStep
)

var opcodeNames = [...]string{
	OpConst: "const", OpUnit: "unit", OpLoadC: "loadc",
	OpLoadT: "loadt", OpLoadL: "loadl", OpLoadLN: "loadln",
	OpStoreL: "storel", OpLoadS: "loads",
	OpLoadSN: "loadsn", OpStoreS: "stores", OpStoreSN: "storesn",
	OpPop: "pop", OpJmp: "jmp", OpBranchF: "branchf", OpAnd: "and",
	OpOr: "or", OpCkBool: "ckbool", OpNot: "not", OpNeg: "neg",
	OpArith: "arith", OpMkArray: "mkarray", OpIndex: "index",
	OpIndexSet: "indexset", OpEmit: "emit", OpRet: "ret", OpCall: "call",
	OpCallB: "callb", OpWhileInit: "whileinit", OpWhileStep: "whilestep",
	OpForInit: "forinit", OpForIter: "foriter", OpForStep: "forstep",
}

// String returns the opcode mnemonic.
func (o Opcode) String() string {
	if int(o) < len(opcodeNames) && opcodeNames[o] != "" {
		return opcodeNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Binary operator indices for OpArith's B operand.
const (
	ArithAdd = iota
	ArithSub
	ArithMul
	ArithDiv
	ArithMod
	ArithEq
	ArithNe
	ArithLt
	ArithGt
	ArithLe
	ArithGe

	numArith
)

var binopNames = [...]string{
	ArithAdd: "+", ArithSub: "-", ArithMul: "*", ArithDiv: "/",
	ArithMod: "%", ArithEq: "==", ArithNe: "!=", ArithLt: "<",
	ArithGt: ">", ArithLe: "<=", ArithGe: ">=",
}

// ArithIndex maps an operator token to its OpArith operand, or -1.
func ArithIndex(op string) int {
	for i, n := range binopNames {
		if n == op {
			return i
		}
	}
	return -1
}

// Instr is one instruction. A is usually a jump target or pool index; B is
// a secondary operand (argument count, operator index, context code).
type Instr struct {
	Op   Opcode
	A, B int32
}

// String renders the instruction for disassembly and verifier errors.
func (i Instr) String() string { return fmt.Sprintf("%s %d %d", i.Op, i.A, i.B) }

// Func is one compiled function body.
type Func struct {
	// Name labels the function in errors and disassembly.
	Name string
	// NumParams values are popped by OpCall into the first locals.
	NumParams int
	// NumLocals is the frame's local slot count (params included).
	NumLocals int
	// NumWhiles is the frame's while-loop counter count.
	NumWhiles int
	// Code is the instruction sequence; every reachable path ends in
	// OpRet.
	Code []Instr
	// Lines maps each instruction to its wscript source line for error
	// messages; len(Lines) == len(Code).
	Lines []int32
}

// Program is a complete compiled operator body: an entry function invoked
// once per stream element, an optional state initializer, shared constant
// and template pools, and the function table.
type Program struct {
	// Name labels the program (the operator name).
	Name string
	// Funcs is the function table; Entry and Init index into it.
	Funcs []Func
	// Consts holds immutable scalar constants (int64, float64, bool,
	// string, Unit).
	Consts []Value
	// Templates holds captured mutable values (*Array, *Fifo); OpLoadT
	// deep-copies them once per work invocation.
	Templates []Value
	// NumState is the operator's state slot count.
	NumState int
	// Entry is the element function: one parameter, the arriving element.
	Entry int
	// Init initializes the state slots (no parameters); -1 when the
	// operator is stateless.
	Init int
}

// MaxCallDepth bounds the call stack, matching the tree-walker's limit.
const MaxCallDepth = 500

// maxWhileIters matches the tree-walker's runaway-while guard.
const maxWhileIters = 10_000_000
