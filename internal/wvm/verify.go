package wvm

import "fmt"

// Structural sanity caps for untrusted programs. Legitimate compiled
// wscript bodies sit far below all of them.
const (
	maxFuncs     = 1 << 16
	maxLocals    = 1 << 16
	maxWhiles    = 1 << 12
	maxCode      = 1 << 22
	maxStateVars = 1 << 20
)

// Verify statically checks the program so the interpreter can trust every
// operand: pool and slot indices in range, jump targets valid, argument
// counts matching callee arity, and a consistent operand-stack depth at
// every instruction (computed by worklist abstract interpretation). A malformed program — from a
// buggy compiler, or a fuzzed edit of a good one — is rejected here, before
// any execution.
func (p *Program) Verify() error {
	if len(p.Funcs) == 0 || len(p.Funcs) > maxFuncs {
		return fmt.Errorf("wvm: verify: function count %d out of range", len(p.Funcs))
	}
	if p.NumState < 0 || p.NumState > maxStateVars {
		return fmt.Errorf("wvm: verify: state slot count %d out of range", p.NumState)
	}
	if p.Entry < 0 || p.Entry >= len(p.Funcs) {
		return fmt.Errorf("wvm: verify: entry %d out of range", p.Entry)
	}
	if p.Funcs[p.Entry].NumParams != 1 {
		return fmt.Errorf("wvm: verify: entry function takes %d params, want 1", p.Funcs[p.Entry].NumParams)
	}
	if p.Init != -1 {
		if p.Init < 0 || p.Init >= len(p.Funcs) {
			return fmt.Errorf("wvm: verify: init %d out of range", p.Init)
		}
		if p.Funcs[p.Init].NumParams != 0 {
			return fmt.Errorf("wvm: verify: init function takes %d params, want 0", p.Funcs[p.Init].NumParams)
		}
	}
	for _, c := range p.Consts {
		switch c.(type) {
		case int64, float64, bool, string, Unit:
		default:
			// Mutable values belong in Templates, where OpLoadT copies
			// them per invocation; a shared mutable constant would alias
			// across invocations.
			return fmt.Errorf("wvm: verify: constant pool holds mutable %s", TypeName(c))
		}
	}
	for i := range p.Funcs {
		if err := p.verifyFunc(i); err != nil {
			return err
		}
	}
	return nil
}

func (p *Program) verifyFunc(fi int) error {
	f := &p.Funcs[fi]
	fail := func(pc int, format string, args ...any) error {
		return fmt.Errorf("wvm: verify: %s+%d: %s", f.Name, pc, fmt.Sprintf(format, args...))
	}
	if f.NumParams < 0 || f.NumLocals < 0 || f.NumLocals > maxLocals || f.NumParams > f.NumLocals {
		return fail(0, "bad frame shape (%d params, %d locals)", f.NumParams, f.NumLocals)
	}
	if f.NumWhiles < 0 || f.NumWhiles > maxWhiles {
		return fail(0, "while counter count %d out of range", f.NumWhiles)
	}
	if len(f.Code) == 0 || len(f.Code) > maxCode {
		return fail(0, "code length %d out of range", len(f.Code))
	}
	if len(f.Lines) != len(f.Code) {
		return fail(0, "line table length %d != code length %d", len(f.Lines), len(f.Code))
	}

	// Per-instruction operand checks (independent of reachability, so even
	// dead code is structurally sound).
	for pc, ins := range f.Code {
		switch ins.Op {
		case OpConst, OpLoadC:
			if ins.A < 0 || int(ins.A) >= len(p.Consts) {
				return fail(pc, "constant %d out of range", ins.A)
			}
		case OpLoadT:
			if ins.A < 0 || int(ins.A) >= len(p.Templates) {
				return fail(pc, "template %d out of range", ins.A)
			}
		case OpLoadL, OpLoadLN, OpStoreL:
			if ins.A < 0 || int(ins.A) >= f.NumLocals {
				return fail(pc, "local %d out of range", ins.A)
			}
		case OpLoadS, OpLoadSN, OpStoreS, OpStoreSN:
			if ins.A < 0 || int(ins.A) >= p.NumState {
				return fail(pc, "state slot %d out of range", ins.A)
			}
		case OpJmp, OpBranchF, OpAnd, OpOr:
			if ins.A < 0 || int(ins.A) >= len(f.Code) {
				return fail(pc, "jump target %d out of range", ins.A)
			}
			if (ins.Op == OpBranchF || ins.Op == OpCkBool) && ins.B != 0 && ins.B != 1 {
				return fail(pc, "bad context code %d", ins.B)
			}
		case OpCkBool:
			if ins.B != 0 && ins.B != 1 {
				return fail(pc, "bad context code %d", ins.B)
			}
		case OpArith:
			if ins.B < 0 || int(ins.B) >= numArith {
				return fail(pc, "arith operator %d out of range", ins.B)
			}
		case OpMkArray:
			if ins.A < 0 {
				return fail(pc, "negative array size %d", ins.A)
			}
		case OpIndexSet:
			if ins.B < 0 || int(ins.B) >= len(p.Consts) {
				return fail(pc, "name constant %d out of range", ins.B)
			}
			if _, ok := p.Consts[ins.B].(string); !ok {
				return fail(pc, "name constant %d is not a string", ins.B)
			}
		case OpCall:
			if ins.A < 0 || int(ins.A) >= len(p.Funcs) {
				return fail(pc, "function %d out of range", ins.A)
			}
			if int(ins.B) != p.Funcs[ins.A].NumParams {
				return fail(pc, "call passes %d args, %s takes %d", ins.B, p.Funcs[ins.A].Name, p.Funcs[ins.A].NumParams)
			}
		case OpCallB:
			if ins.A < 0 || int(ins.A) >= NumBuiltins() {
				return fail(pc, "builtin %d out of range", ins.A)
			}
			if ins.B < 0 {
				return fail(pc, "negative argument count %d", ins.B)
			}
		case OpWhileInit, OpWhileStep:
			if ins.A < 0 || int(ins.A) >= f.NumWhiles {
				return fail(pc, "while counter %d out of range", ins.A)
			}
		case OpForInit:
			if ins.B < 0 || int(ins.B)+1 >= f.NumLocals {
				return fail(pc, "for slots %d..%d out of range", ins.B, ins.B+1)
			}
		case OpForIter:
			if ins.A < 0 || int(ins.A) >= len(f.Code) {
				return fail(pc, "jump target %d out of range", ins.A)
			}
			if ins.B < 0 || int(ins.B)+2 >= f.NumLocals {
				return fail(pc, "for slots %d..%d out of range", ins.B, ins.B+2)
			}
		case OpForStep:
			if ins.A < 0 || int(ins.A) >= len(f.Code) {
				return fail(pc, "jump target %d out of range", ins.A)
			}
			if ins.B < 0 || int(ins.B) >= f.NumLocals {
				return fail(pc, "local %d out of range", ins.B)
			}
		case OpUnit, OpPop, OpNot, OpNeg, OpIndex, OpEmit, OpRet:
		default:
			return fail(pc, "illegal opcode %d", ins.Op)
		}
	}

	// Worklist abstract interpretation of operand-stack depth. Every
	// reachable instruction must see one consistent depth, stacks never
	// underflow, and every reachable path ends at OpRet with exactly the
	// return value on the stack.
	depths := make([]int, len(f.Code))
	for i := range depths {
		depths[i] = -1
	}
	work := []int{0}
	depths[0] = 0
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		d := depths[pc]
		ins := f.Code[pc]

		need, after := stackEffect(ins)
		if d < need {
			return fail(pc, "stack underflow (%d < %d)", d, need)
		}
		dAfter := d + after

		var succs [2]int
		n := 0
		push := func(target, depth int) error {
			if target >= len(f.Code) {
				return fail(pc, "execution falls off the end")
			}
			if depths[target] == -1 {
				depths[target] = depth
				succs[n] = target
				n++
			} else if depths[target] != depth {
				return fail(target, "inconsistent stack depth (%d vs %d)", depths[target], depth)
			}
			return nil
		}

		var err error
		switch ins.Op {
		case OpRet:
			if d != 1 {
				return fail(pc, "return with stack depth %d, want 1", d)
			}
		case OpJmp, OpForStep:
			err = push(int(ins.A), dAfter)
		case OpBranchF:
			if err = push(pc+1, dAfter); err == nil {
				err = push(int(ins.A), dAfter)
			}
		case OpAnd, OpOr:
			// Fallthrough evaluates the right operand (left popped);
			// the jump pushes the short-circuit result.
			if err = push(pc+1, d-1); err == nil {
				err = push(int(ins.A), d)
			}
		case OpForIter:
			if err = push(pc+1, dAfter); err == nil {
				err = push(int(ins.A), dAfter)
			}
		default:
			err = push(pc+1, dAfter)
		}
		if err != nil {
			return err
		}
		work = append(work, succs[:n]...)
	}

	return nil
}

// stackEffect returns the operand-stack depth an instruction consumes and
// its net depth change. Control-flow splits are handled by the caller.
func stackEffect(ins Instr) (need, delta int) {
	switch ins.Op {
	case OpConst, OpUnit, OpLoadC, OpLoadT, OpLoadL, OpLoadLN, OpLoadS, OpLoadSN:
		return 0, 1
	case OpStoreL, OpStoreS, OpStoreSN, OpPop, OpEmit, OpBranchF:
		return 1, -1
	case OpAnd, OpOr:
		return 1, -1 // fallthrough path; jump path handled by caller
	case OpCkBool, OpNot, OpNeg:
		return 1, 0
	case OpArith, OpIndex:
		return 2, -1
	case OpIndexSet:
		return 3, -3
	case OpMkArray:
		return int(ins.A), -int(ins.A) + 1
	case OpCall, OpCallB:
		return int(ins.B), -int(ins.B) + 1
	case OpForInit:
		return 2, -2
	case OpRet:
		return 1, -1
	default: // OpJmp, OpWhileInit, OpWhileStep, OpForIter, OpForStep
		return 0, 0
	}
}
