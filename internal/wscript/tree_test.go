package wscript

import (
	"fmt"

	"wishbone/internal/cost"
	"wishbone/internal/dataflow"
	"wishbone/internal/profile"
)

// The tree-walking oracle: iterate bodies interpreted by the same interp
// that partially evaluates programs at elaboration time, zip as a plain
// queue merge. It has no metering and no snapshot support; the parity
// suite holds the VM's outputs, abort messages, cost counters and edge
// statistics to it. Options.reference switches it in.

// treeOptions returns opts with the oracle's work functions selected.
func treeOptions(opts Options) Options {
	opts.reference = func(op *dataflow.Operator, ex Expr, defEnv *env) error {
		switch ex := ex.(type) {
		case *IterateExpr:
			return buildTreeIterate(op, ex, defEnv)
		case *ZipExpr:
			buildTreeZip(op, len(ex.Streams))
			return nil
		}
		return fmt.Errorf("wscript: no reference work function for %T", ex)
	}
	return opts
}

// treeInputs is Compiled.Inputs for a program compiled with treeOptions:
// elements are converted to the interpreter's values, not the VM's.
func treeInputs(c *Compiled, events int, gen func(source string, i int) any) []profile.Input {
	var inputs []profile.Input
	for name, src := range c.Sources {
		evs := make([]dataflow.Value, events)
		for i := range evs {
			evs[i] = fromDataflow(gen(name, i))
		}
		inputs = append(inputs, profile.Input{Source: src.Op, Events: evs, Rate: src.Rate})
	}
	return inputs
}

// toGo converts an interpreter value into plain Go data, as wvm.ToGo does
// for the VM's.
func toGo(v value) any {
	switch x := v.(type) {
	case *arrayVal:
		out := make([]any, len(x.elems))
		for i, e := range x.elems {
			out[i] = toGo(e)
		}
		return out
	case *fifoVal:
		out := make([]any, len(x.elems))
		for i, e := range x.elems {
			out[i] = toGo(e)
		}
		return out
	default:
		return x
	}
}

// iterState is the per-instance private state of a tree-engine iterate
// operator: its state-variable environment frame.
type iterState struct {
	vars map[string]value
}

// buildTreeIterate installs the reference tree-walking work function
// (unmetered, not snapshotable).
func buildTreeIterate(op *dataflow.Operator, ex *IterateExpr, defEnv *env) error {
	stateDecls := ex.State
	body := ex.Body
	varName := ex.Var

	if len(stateDecls) > 0 {
		op.NewState = func() any {
			// State initializers run per instance at compile-rate costs
			// (they execute once at operator construction, §2).
			sip := &interp{}
			frame := newEnv(defEnv)
			for _, d := range stateDecls {
				v, err := sip.evalExpr(d.Expr, frame)
				if err != nil {
					// Initializers were type-checked during elaboration
					// below; failures here are programming errors.
					panic(fmt.Sprintf("wscript: state init: %v", err))
				}
				frame.define(d.Name, v)
			}
			return &iterState{vars: frame.vars}
		}
		// Validate initializers once at compile time so runtime panics
		// cannot happen for well-typed programs.
		probe := &interp{}
		frame := newEnv(defEnv)
		for _, d := range stateDecls {
			if _, err := probe.evalExpr(d.Expr, frame); err != nil {
				return err
			}
		}
	}

	op.Work = func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
		wip := &interp{counter: ctx.Counter}
		frame := newEnv(defEnv)
		if st, ok := ctx.State.(*iterState); ok && st != nil {
			// Splice the persistent state frame between the defining
			// environment and the per-element frame.
			stEnv := &env{vars: st.vars, parent: defEnv}
			frame = newEnv(stEnv)
		}
		frame.define(varName, fromDataflow(v))
		wip.emit = func(out value) { emit(out) }
		if _, err := wip.evalBlock(body, frame); err != nil {
			panic(runtimeError{err})
		}
	}
	return nil
}

// zipState buffers pending elements per input port (tree engine).
type zipState struct {
	queues [][]value
}

// buildTreeZip installs the reference zip work function.
func buildTreeZip(op *dataflow.Operator, n int) {
	op.NewState = func() any { return &zipState{queues: make([][]value, n)} }
	op.Work = func(ctx *dataflow.Ctx, port int, v dataflow.Value, emit dataflow.Emit) {
		st := ctx.State.(*zipState)
		st.queues[port] = append(st.queues[port], fromDataflow(v))
		ctx.Counter.Add(cost.Store, 1)
		for {
			for _, q := range st.queues {
				if len(q) == 0 {
					return
				}
			}
			row := &arrayVal{elems: make([]value, n)}
			for i := range st.queues {
				row.elems[i] = st.queues[i][0]
				st.queues[i] = st.queues[i][1:]
			}
			ctx.Counter.Add(cost.Load, n)
			ctx.Counter.Add(cost.Store, n)
			emit(row)
		}
	}
}

// fromDataflow converts a host-injected element into a wscript value.
// Values produced by wscript operators pass through unchanged.
func fromDataflow(v dataflow.Value) value {
	switch x := v.(type) {
	case *arrayVal:
		return x
	case int64, float64, bool, string, unitVal:
		return x
	case int:
		return int64(x)
	case int16:
		return int64(x)
	case int32:
		return int64(x)
	case float32:
		return float64(x)
	case []float64:
		arr := &arrayVal{elems: make([]value, len(x))}
		for i, f := range x {
			arr.elems[i] = f
		}
		return arr
	case []int16:
		arr := &arrayVal{elems: make([]value, len(x))}
		for i, s := range x {
			arr.elems[i] = int64(s)
		}
		return arr
	case []int64:
		arr := &arrayVal{elems: make([]value, len(x))}
		for i, s := range x {
			arr.elems[i] = s
		}
		return arr
	default:
		panic(fmt.Sprintf("wscript: cannot convert %T into a wscript value", v))
	}
}
