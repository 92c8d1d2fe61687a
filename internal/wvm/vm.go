package wvm

import (
	"fmt"
	"math"

	"wishbone/internal/cost"
)

// Env is the execution environment for one work invocation.
type Env struct {
	// Counter receives cost-class charges (nil outside profiling; charges
	// are then dropped, exactly like the tree-walker's nil counter).
	Counter *cost.Counter
	// Emit delivers values the program emits downstream. May be nil, in
	// which case executing an emit is a runtime error (matching the
	// tree-walker outside an iterate body).
	Emit func(Value)
	// Limits is the tenant's per-invocation fuel and memory budget.
	Limits Limits
	// Meter accumulates fuel telemetry across instances (may be nil).
	Meter *Meter
	// State is the operator instance's state (nil for stateless
	// operators).
	State *State
	// Thread is the invocation's execution context, owned by the caller
	// and reused across its invocations (a dataflow operator's Workspace);
	// nil runs on a fresh one.
	Thread *Thread
}

// Thread is the reusable execution context of one invocation: its caller
// owns it and hands it to each invocation in turn (Env.Thread), never to
// two at once. All persistent results live in Env.State, never in the
// Thread.
type Thread struct {
	prog    *Program
	stack   []Value
	sp      int
	frames  []frame
	tmpl    []Value
	counter *cost.Counter
	emit    func(Value)
	meter   *Meter

	fuel    uint64
	fuelMax uint64
	memMax  int64
	alloc   int64 // transient allocation estimate this invocation
	retain  int64 // retained state estimate at invocation start
	state   []Value
}

type frame struct {
	fn     int32
	pc     int32
	base   int32 // stack index of local slot 0
	whiles []int32
}

// RunEntry executes the program's entry function on one stream element.
func (p *Program) RunEntry(arg Value, env Env) error {
	return p.run(p.Entry, []Value{arg}, env)
}

// RunInit executes the state initializer, filling env.State.Slots. It is a
// no-op for stateless programs.
func (p *Program) RunInit(env Env) error {
	if p.Init < 0 {
		return nil
	}
	return p.run(p.Init, nil, env)
}

func (p *Program) run(fn int, args []Value, env Env) error {
	t := env.Thread
	if t == nil {
		t = &Thread{}
	}
	defer t.reset()
	t.prog = p
	t.counter = env.Counter
	t.emit = env.Emit
	t.meter = env.Meter
	t.fuelMax = env.Limits.Fuel
	if t.fuelMax == 0 {
		t.fuelMax = math.MaxUint64
	}
	t.memMax = env.Limits.MemBytes
	if p.NumState > 0 && env.State == nil {
		return fmt.Errorf("wvm: stateful program %q run without state", p.Name)
	}
	if env.State != nil {
		if len(env.State.Slots) < p.NumState {
			// A fresh state (before RunInit) arrives with empty slots.
			env.State.Slots = append(env.State.Slots, make([]Value, p.NumState-len(env.State.Slots))...)
		}
		t.state = env.State.Slots
		if t.memMax > 0 {
			if env.State.memBytes < 0 {
				env.State.memBytes = retainedBytes(t.state)
			}
			t.retain = env.State.memBytes
		}
	}

	err := t.exec(int32(fn), args)

	env.Meter.AddFuel(t.fuel)
	env.Meter.AddCall()
	if env.State != nil {
		env.State.FuelUsed += t.fuel
		if err == nil && t.memMax > 0 {
			env.State.memBytes = retainedBytes(t.state)
		}
	}
	return err
}

func retainedBytes(slots []Value) int64 {
	var n int64
	for _, v := range slots {
		n += 16 + SizeOf(v)
	}
	return n
}

func (t *Thread) reset() {
	for i := range t.stack[:t.sp] {
		t.stack[i] = nil
	}
	for i := range t.tmpl {
		t.tmpl[i] = nil
	}
	t.sp = 0
	t.frames = t.frames[:0]
	t.counter, t.emit, t.meter, t.state = nil, nil, nil, nil
	t.fuel, t.alloc, t.retain = 0, 0, 0
	t.prog = nil
}

func (t *Thread) count(op cost.Op, n int) { t.counter.Add(op, n) }

// burn charges extra fuel beyond the per-opcode unit (allocation-sized
// builtin work).
func (t *Thread) burn(n uint64, line int32) error {
	t.fuel += n
	if t.fuel > t.fuelMax {
		t.meter.TripFuel()
		return fmt.Errorf("wscript:%d: %w (budget %d)", line, ErrFuelExhausted, t.fuelMax)
	}
	return nil
}

// chargeMem records an allocation estimate and enforces the memory cap.
func (t *Thread) chargeMem(n int64, line int32) error {
	if t.memMax <= 0 {
		return nil
	}
	t.alloc += n
	if t.alloc+t.retain > t.memMax {
		t.meter.TripMem()
		return fmt.Errorf("wscript:%d: %w (cap %d bytes)", line, ErrMemLimit, t.memMax)
	}
	return nil
}

func (t *Thread) push(v Value) {
	if t.sp == len(t.stack) {
		t.stack = append(t.stack, v)
	} else {
		t.stack[t.sp] = v
	}
	t.sp++
}

func (t *Thread) pop() Value {
	t.sp--
	v := t.stack[t.sp]
	t.stack[t.sp] = nil
	return v
}

func errAt(line int32, format string, args ...any) error {
	return fmt.Errorf("wscript:%d: %s", line, fmt.Sprintf(format, args...))
}

// pushFrame reserves a frame whose first len == f.NumParams locals are
// already on the stack (OpCall leaves arguments in place as the callee's
// params; exec pushes them explicitly for the outermost frame).
func (t *Thread) pushFrame(fn int32, nargs int) {
	f := &t.prog.Funcs[fn]
	base := int32(t.sp - nargs)
	for i := nargs; i < f.NumLocals; i++ {
		t.push(Unit{})
	}
	var whiles []int32
	if f.NumWhiles > 0 {
		whiles = make([]int32, f.NumWhiles)
	}
	t.frames = append(t.frames, frame{fn: fn, base: base, whiles: whiles})
}

// exec is the interpreter loop. The verifier has already bounds-checked
// every pool index, slot, and jump target, so the loop trusts operands.
func (t *Thread) exec(fn int32, args []Value) error {
	for _, a := range args {
		t.push(a)
	}
	t.pushFrame(fn, len(args))

	fr := &t.frames[len(t.frames)-1]
	f := &t.prog.Funcs[fr.fn]
	code, lines := f.Code, f.Lines

	for {
		ins := code[fr.pc]
		line := lines[fr.pc]
		fr.pc++
		t.fuel++
		if t.fuel > t.fuelMax {
			t.meter.TripFuel()
			return fmt.Errorf("wscript:%d: %w (budget %d)", line, ErrFuelExhausted, t.fuelMax)
		}

		switch ins.Op {
		case OpConst:
			t.push(t.prog.Consts[ins.A])

		case OpUnit:
			t.push(Unit{})

		case OpLoadC:
			t.count(cost.Load, 1)
			t.push(t.prog.Consts[ins.A])

		case OpLoadT:
			t.count(cost.Load, 1)
			if t.tmpl == nil {
				t.tmpl = make([]Value, len(t.prog.Templates))
			}
			if t.tmpl[ins.A] == nil {
				c := Copy(t.prog.Templates[ins.A])
				if err := t.chargeMem(SizeOf(c), line); err != nil {
					return err
				}
				t.tmpl[ins.A] = c
			}
			t.push(t.tmpl[ins.A])

		case OpLoadL:
			t.count(cost.Load, 1)
			t.push(t.stack[fr.base+ins.A])

		case OpLoadLN:
			t.push(t.stack[fr.base+ins.A])

		case OpStoreL:
			t.count(cost.Store, 1)
			t.stack[fr.base+ins.A] = t.pop()

		case OpLoadS:
			t.count(cost.Load, 1)
			t.push(t.state[ins.A])

		case OpLoadSN:
			t.push(t.state[ins.A])

		case OpStoreS:
			t.count(cost.Store, 1)
			t.state[ins.A] = t.pop()

		case OpStoreSN:
			t.state[ins.A] = t.pop()

		case OpPop:
			t.pop()

		case OpJmp:
			fr.pc = ins.A

		case OpBranchF:
			c := t.pop()
			t.count(cost.Branch, 1)
			b, ok := c.(bool)
			if !ok {
				if ins.B == 1 {
					return errAt(line, "while condition is %s, not bool", TypeName(c))
				}
				return errAt(line, "if condition is %s, not bool", TypeName(c))
			}
			if !b {
				fr.pc = ins.A
			}

		case OpAnd:
			l := t.pop()
			lb, ok := l.(bool)
			if !ok {
				return errAt(line, "%q of %s", "&&", TypeName(l))
			}
			t.count(cost.Branch, 1)
			if !lb {
				t.push(false)
				fr.pc = ins.A
			}

		case OpOr:
			l := t.pop()
			lb, ok := l.(bool)
			if !ok {
				return errAt(line, "%q of %s", "||", TypeName(l))
			}
			t.count(cost.Branch, 1)
			if lb {
				t.push(true)
				fr.pc = ins.A
			}

		case OpCkBool:
			v := t.stack[t.sp-1]
			if _, ok := v.(bool); !ok {
				op := "&&"
				if ins.B == 1 {
					op = "||"
				}
				return errAt(line, "%q of %s", op, TypeName(v))
			}

		case OpNot:
			v := t.pop()
			b, ok := v.(bool)
			if !ok {
				return errAt(line, "! of %s", TypeName(v))
			}
			t.count(cost.IntOp, 1)
			t.push(!b)

		case OpNeg:
			switch n := t.pop().(type) {
			case int64:
				t.count(cost.IntOp, 1)
				t.push(-n)
			case float64:
				t.count(cost.FloatAdd, 1)
				t.push(-n)
			default:
				return errAt(line, "negating %s", TypeName(n))
			}

		case OpArith:
			r := t.pop()
			l := t.pop()
			v, err := t.arith(int(ins.B), l, r, line)
			if err != nil {
				return err
			}
			t.push(v)

		case OpMkArray:
			n := int(ins.A)
			arr := &Array{Elems: make([]Value, n)}
			for i := n - 1; i >= 0; i-- {
				arr.Elems[i] = t.pop()
			}
			t.count(cost.Store, n)
			if err := t.chargeMem(24+16*int64(n), line); err != nil {
				return err
			}
			t.push(arr)

		case OpIndex:
			idxV := t.pop()
			av := t.pop()
			arr, ok := av.(*Array)
			if !ok {
				return errAt(line, "indexing %s, not array", TypeName(av))
			}
			idx, ok := idxV.(int64)
			if !ok {
				return errAt(line, "array index must be int")
			}
			if idx < 0 || int(idx) >= len(arr.Elems) {
				return errAt(line, "index %d out of bounds (len %d)", idx, len(arr.Elems))
			}
			t.count(cost.Load, 1)
			t.count(cost.IntOp, 1)
			t.push(arr.Elems[idx])

		case OpIndexSet:
			v := t.pop()
			idxV := t.pop()
			av := t.pop()
			arr, ok := av.(*Array)
			if !ok {
				name, _ := t.prog.Consts[ins.B].(string)
				return errAt(line, "%q is %s, not array", name, TypeName(av))
			}
			idx, ok := idxV.(int64)
			if !ok {
				return errAt(line, "array index must be int, got %s", TypeName(idxV))
			}
			if idx < 0 || int(idx) >= len(arr.Elems) {
				return errAt(line, "index %d out of bounds (len %d)", idx, len(arr.Elems))
			}
			arr.Elems[idx] = v
			t.count(cost.Store, 1)
			t.count(cost.IntOp, 1)

		case OpEmit:
			v := t.pop()
			if t.emit == nil {
				return errAt(line, "emit outside an iterate body")
			}
			t.count(cost.Call, 1)
			t.emit(v)

		case OpRet:
			ret := t.pop()
			// Unwind: locals (and any junk) below the return value vanish.
			for i := int(fr.base); i < t.sp; i++ {
				t.stack[i] = nil
			}
			t.sp = int(fr.base)
			t.frames = t.frames[:len(t.frames)-1]
			if len(t.frames) == 0 {
				return nil
			}
			t.push(ret)
			fr = &t.frames[len(t.frames)-1]
			f = &t.prog.Funcs[fr.fn]
			code, lines = f.Code, f.Lines

		case OpCall:
			if len(t.frames) > MaxCallDepth {
				return errAt(line, "call depth exceeded (%d)", MaxCallDepth)
			}
			t.count(cost.Call, 1)
			t.pushFrame(ins.A, int(ins.B))
			fr = &t.frames[len(t.frames)-1]
			f = &t.prog.Funcs[fr.fn]
			code, lines = f.Code, f.Lines

		case OpCallB:
			t.count(cost.Call, 1)
			nargs := int(ins.B)
			args := t.stack[t.sp-nargs : t.sp]
			v, err := builtinTable[ins.A].fn(t, line, args)
			for i := range args {
				args[i] = nil
			}
			t.sp -= nargs
			if err != nil {
				return err
			}
			t.push(v)

		case OpWhileInit:
			fr.whiles[ins.A] = 0

		case OpWhileStep:
			fr.whiles[ins.A]++
			if fr.whiles[ins.A] > maxWhileIters+1 {
				return errAt(line, "while loop exceeded 10M iterations")
			}

		case OpForInit:
			hiV := t.pop()
			loV := t.pop()
			lo, ok1 := loV.(int64)
			hi, ok2 := hiV.(int64)
			if !ok1 || !ok2 {
				return errAt(line, "for bounds must be ints")
			}
			t.stack[fr.base+ins.B] = lo
			t.stack[fr.base+ins.B+1] = hi

		case OpForIter:
			i, ok1 := t.stack[fr.base+ins.B].(int64)
			hi, ok2 := t.stack[fr.base+ins.B+1].(int64)
			if !ok1 || !ok2 {
				// Unreachable in compiled code (OpForInit always runs
				// first); keeps hand-crafted bytecode panic-free.
				return errAt(line, "for bounds must be ints")
			}
			if i > hi {
				fr.pc = ins.A
			} else {
				t.count(cost.Branch, 1)
				t.count(cost.IntOp, 1)
				t.stack[fr.base+ins.B+2] = i
			}

		case OpForStep:
			i, ok := t.stack[fr.base+ins.B].(int64)
			if !ok {
				return errAt(line, "for bounds must be ints")
			}
			t.stack[fr.base+ins.B] = i + 1
			fr.pc = ins.A

		default:
			return errAt(line, "wvm: illegal opcode %d", ins.Op)
		}
	}
}

// arith applies binary operator idx with numeric promotion, charging the
// tree-walker's per-type cost classes.
func (t *Thread) arith(idx int, l, r Value, line int32) (Value, error) {
	op := binopNames[idx]
	// Numeric promotion: int op float → float.
	if _, ok := l.(float64); ok {
		if ri, ok := r.(int64); ok {
			r = float64(ri)
		}
	} else if li, ok := l.(int64); ok {
		if _, ok := r.(float64); ok {
			l = float64(li)
		}
	}

	switch lv := l.(type) {
	case int64:
		rv, ok := r.(int64)
		if !ok {
			return nil, errAt(line, "int %s %s", op, TypeName(r))
		}
		switch idx {
		case ArithAdd:
			t.count(cost.IntOp, 1)
			return lv + rv, nil
		case ArithSub:
			t.count(cost.IntOp, 1)
			return lv - rv, nil
		case ArithMul:
			t.count(cost.IntMul, 1)
			return lv * rv, nil
		case ArithDiv:
			if rv == 0 {
				return nil, errAt(line, "integer division by zero")
			}
			t.count(cost.IntDiv, 1)
			return lv / rv, nil
		case ArithMod:
			if rv == 0 {
				return nil, errAt(line, "modulo by zero")
			}
			t.count(cost.IntDiv, 1)
			return lv % rv, nil
		default:
			t.count(cost.IntOp, 1)
			return compareInt(idx, lv, rv), nil
		}

	case float64:
		rv, ok := r.(float64)
		if !ok {
			return nil, errAt(line, "float %s %s", op, TypeName(r))
		}
		switch idx {
		case ArithAdd:
			t.count(cost.FloatAdd, 1)
			return lv + rv, nil
		case ArithSub:
			t.count(cost.FloatAdd, 1)
			return lv - rv, nil
		case ArithMul:
			t.count(cost.FloatMul, 1)
			return lv * rv, nil
		case ArithDiv:
			t.count(cost.FloatDiv, 1)
			return lv / rv, nil
		case ArithMod:
			// No float modulo, matching the tree-walker.
		default:
			t.count(cost.FloatAdd, 1)
			return compareFloat(idx, lv, rv), nil
		}

	case bool:
		rv, ok := r.(bool)
		if ok && (idx == ArithEq || idx == ArithNe) {
			t.count(cost.IntOp, 1)
			return (lv == rv) == (idx == ArithEq), nil
		}

	case string:
		rv, ok := r.(string)
		if ok {
			switch idx {
			case ArithAdd:
				s := lv + rv
				if err := t.chargeMem(16+int64(len(s)), line); err != nil {
					return nil, err
				}
				return s, nil
			case ArithEq, ArithNe:
				return (lv == rv) == (idx == ArithEq), nil
			}
		}
	}
	return nil, errAt(line, "cannot apply %q to %s and %s", op, TypeName(l), TypeName(r))
}

func compareInt(idx int, a, b int64) bool {
	switch idx {
	case ArithEq:
		return a == b
	case ArithNe:
		return a != b
	case ArithLt:
		return a < b
	case ArithGt:
		return a > b
	case ArithLe:
		return a <= b
	default:
		return a >= b
	}
}

func compareFloat(idx int, a, b float64) bool {
	switch idx {
	case ArithEq:
		return a == b
	case ArithNe:
		return a != b
	case ArithLt:
		return a < b
	case ArithGt:
		return a > b
	case ArithLe:
		return a <= b
	default:
		return a >= b
	}
}
