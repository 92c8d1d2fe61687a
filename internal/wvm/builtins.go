package wvm

import (
	"math"

	"wishbone/internal/cost"
)

// builtinImpl is one native function. Implementations must never panic on
// any argument list (the verifier only guarantees the count pushed, not the
// count a builtin expects) and must charge the same cost classes, in the
// same check-then-charge order, as the tree-walker's builtins.
type builtinImpl struct {
	name string
	fn   func(t *Thread, line int32, args []Value) (Value, error)
}

// BuiltinIndex returns the table index for a builtin name, or -1. Indices
// are stable: they are part of the encoded program format.
func BuiltinIndex(name string) int {
	for i := range builtinTable {
		if builtinTable[i].name == name {
			return i
		}
	}
	return -1
}

// NumBuiltins is the table size, used by the verifier to bound OpCallB.
func NumBuiltins() int { return len(builtinTable) }

// argOr returns args[i], or Unit if the list is short. It keeps builtins
// total on malformed argument lists where the tree-walker would panic.
func argOr(args []Value, i int) Value {
	if i < len(args) {
		return args[i]
	}
	return Unit{}
}

var builtinTable = []builtinImpl{
	{"Array.make", func(t *Thread, line int32, args []Value) (Value, error) {
		if len(args) != 2 {
			return nil, errAt(line, "Array.make(n, init)")
		}
		n, ok := args[0].(int64)
		if !ok || n < 0 {
			return nil, errAt(line, "Array.make size must be a non-negative int")
		}
		if err := t.burn(uint64(n), line); err != nil {
			return nil, err
		}
		if err := t.chargeMem(24+16*n, line); err != nil {
			return nil, err
		}
		arr := &Array{Elems: make([]Value, n)}
		for i := range arr.Elems {
			arr.Elems[i] = args[1]
		}
		t.count(cost.Store, int(n))
		return arr, nil
	}},
	{"Array.length", func(t *Thread, line int32, args []Value) (Value, error) {
		arr, ok := argOr(args, 0).(*Array)
		if !ok {
			return nil, errAt(line, "Array.length of %s", TypeName(argOr(args, 0)))
		}
		t.count(cost.Load, 1)
		return int64(len(arr.Elems)), nil
	}},
	{"Array.append", func(t *Thread, line int32, args []Value) (Value, error) {
		arr, ok := argOr(args, 0).(*Array)
		if !ok || len(args) < 2 {
			return nil, errAt(line, "Array.append to %s", TypeName(argOr(args, 0)))
		}
		if err := t.chargeMem(16+SizeOf(args[1]), line); err != nil {
			return nil, err
		}
		arr.Elems = append(arr.Elems, args[1])
		t.count(cost.Store, 1)
		return arr, nil
	}},
	{"Math.sqrt", math1("Math.sqrt", cost.Sqrt, math.Sqrt)},
	{"Math.sin", math1("Math.sin", cost.Trig, math.Sin)},
	{"Math.cos", math1("Math.cos", cost.Trig, math.Cos)},
	{"Math.log", math1("Math.log", cost.Log, math.Log)},
	{"Math.exp", math1("Math.exp", cost.Log, math.Exp)},
	{"Math.abs", math1("Math.abs", cost.FloatAdd, math.Abs)},
	{"Math.floor", math1("Math.floor", cost.FloatAdd, math.Floor)},
	{"intToFloat", func(t *Thread, line int32, args []Value) (Value, error) {
		n, ok := argOr(args, 0).(int64)
		if !ok {
			return nil, errAt(line, "intToFloat of %s", TypeName(argOr(args, 0)))
		}
		t.count(cost.IntOp, 1)
		return float64(n), nil
	}},
	{"floatToInt", func(t *Thread, line int32, args []Value) (Value, error) {
		f, ok := argOr(args, 0).(float64)
		if !ok {
			return nil, errAt(line, "floatToInt of %s", TypeName(argOr(args, 0)))
		}
		t.count(cost.FloatAdd, 1)
		return int64(f), nil
	}},
	{"Fifo.make", func(t *Thread, line int32, args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, errAt(line, "Fifo.make(capacityHint)")
		}
		n, ok := args[0].(int64)
		if !ok || n < 0 {
			return nil, errAt(line, "Fifo.make hint must be a non-negative int")
		}
		if err := t.chargeMem(24+16*n, line); err != nil {
			return nil, err
		}
		return &Fifo{Elems: make([]Value, 0, n)}, nil
	}},
	{"Fifo.enqueue", func(t *Thread, line int32, args []Value) (Value, error) {
		f, ok := argOr(args, 0).(*Fifo)
		if !ok || len(args) != 2 {
			return nil, errAt(line, "Fifo.enqueue(fifo, x)")
		}
		if err := t.chargeMem(16+SizeOf(args[1]), line); err != nil {
			return nil, err
		}
		f.Elems = append(f.Elems, args[1])
		t.count(cost.Store, 1)
		return Unit{}, nil
	}},
	{"Fifo.dequeue", func(t *Thread, line int32, args []Value) (Value, error) {
		f, ok := argOr(args, 0).(*Fifo)
		if !ok {
			return nil, errAt(line, "Fifo.dequeue(fifo)")
		}
		if len(f.Elems) == 0 {
			return nil, errAt(line, "Fifo.dequeue of empty fifo")
		}
		head := f.Elems[0]
		f.Elems = f.Elems[1:]
		t.count(cost.Load, 1)
		return head, nil
	}},
	{"Fifo.peek", func(t *Thread, line int32, args []Value) (Value, error) {
		f, ok := argOr(args, 0).(*Fifo)
		if !ok || len(args) != 2 {
			return nil, errAt(line, "Fifo.peek(fifo, i)")
		}
		i, ok := args[1].(int64)
		if !ok || i < 0 || int(i) >= len(f.Elems) {
			return nil, errAt(line, "Fifo.peek index out of range")
		}
		t.count(cost.Load, 1)
		t.count(cost.IntOp, 1)
		return f.Elems[i], nil
	}},
	{"Fifo.length", func(t *Thread, line int32, args []Value) (Value, error) {
		f, ok := argOr(args, 0).(*Fifo)
		if !ok {
			return nil, errAt(line, "Fifo.length(fifo)")
		}
		t.count(cost.Load, 1)
		return int64(len(f.Elems)), nil
	}},
}

func math1(name string, class cost.Op, f func(float64) float64) func(*Thread, int32, []Value) (Value, error) {
	return func(t *Thread, line int32, args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, errAt(line, "%s takes one argument", name)
		}
		var x float64
		switch v := args[0].(type) {
		case float64:
			x = v
		case int64:
			x = float64(v)
		default:
			return nil, errAt(line, "%s of %s", name, TypeName(args[0]))
		}
		t.count(class, 1)
		return f(x), nil
	}
}
