package dataflow

import (
	"fmt"

	"wishbone/internal/cost"
)

// Executor runs a graph (or a subgraph) synchronously on one logical node,
// using the depth-first traversal the paper's C backend generates: each
// emit is a direct call into the downstream operator's work function (§5.1).
//
// Executor is the reference tree-walking engine. Production execution goes
// through Compile/Program/Instance, which lowers the same semantics into a
// flat scheduled form; the Executor is retained as the independent
// implementation that parity tests compare the compiled engine against
// (nothing outside _test.go files constructs one), and as the simplest
// executable definition of the dataflow semantics. It always runs
// element at a time through Operator.Work — an operator's BatchWork is a
// compiled-engine optimization whose contract is defined as equivalence to
// what this engine computes, so Executor output is also the reference for
// the batched scheduler's parity suite.
//
// The profiler's test oracle uses an Executor with per-operator counters to
// price every operator; the runtime's uses one per simulated node with an
// Include predicate restricting execution to the node partition, and a
// Boundary hook that captures elements crossing the cut.
type Executor struct {
	g      *Graph
	states map[int]any
	nodeID int

	// Include restricts execution to operators for which it returns true.
	// Elements flowing to excluded operators are passed to Boundary
	// instead. A nil Include executes everything.
	Include func(op *Operator) bool

	// Boundary receives elements that leave the included subgraph (cut
	// edges). A nil Boundary drops them.
	Boundary func(e *Edge, v Value)

	// OnEdge observes every element traversing any edge inside the
	// included subgraph (the profiler measures edge bandwidth with it).
	OnEdge func(e *Edge, v Value)

	// CounterFor supplies the cost counter for an operator's work
	// function; nil disables counting.
	CounterFor func(op *Operator) *cost.Counter
}

// NewExecutor returns an executor for g acting as the given node ID, with
// fresh state instances for every stateful operator.
func NewExecutor(g *Graph, nodeID int) *Executor {
	ex := &Executor{
		g:      g,
		states: make(map[int]any),
		nodeID: nodeID,
	}
	for _, op := range g.Operators() {
		if op.Stateful && op.NewState != nil {
			ex.states[op.ID()] = op.NewState()
		}
	}
	return ex
}

// NodeID returns the node identity this executor runs as.
func (ex *Executor) NodeID() int { return ex.nodeID }

// State returns the state instance for op (nil for stateless operators).
func (ex *Executor) State(op *Operator) any { return ex.states[op.ID()] }

// SetState replaces the state instance for op. The runtime's server side
// uses this to swap in per-origin-node state when emulating relocated
// stateful operators (§2.1.1).
func (ex *Executor) SetState(op *Operator, state any) { ex.states[op.ID()] = state }

// Push delivers element v to input port of op and runs the depth-first
// traversal it triggers. If op has no work function (a source), v is
// forwarded directly to its output edges. Pushing to an operator excluded
// by Include returns an error (a bad partition map fails the caller's
// simulation instead of crashing the process).
func (ex *Executor) Push(op *Operator, port int, v Value) error {
	if ex.Include != nil && !ex.Include(op) {
		return fmt.Errorf("dataflow: Push to excluded operator %s", op)
	}
	ex.push(op, port, v)
	return nil
}

// push runs the depth-first traversal for an operator already known to be
// included.
func (ex *Executor) push(op *Operator, port int, v Value) {
	if op.Work == nil {
		ex.fanOut(op, v)
		return
	}
	ctx := &Ctx{NodeID: ex.nodeID, State: ex.states[op.ID()]}
	if ex.CounterFor != nil {
		ctx.Counter = ex.CounterFor(op)
	}
	op.Work(ctx, port, v, func(out Value) { ex.fanOut(op, out) })
}

// Inject delivers element v as if produced by source op: v is fanned out on
// op's output edges without invoking op's work function.
func (ex *Executor) Inject(op *Operator, v Value) { ex.fanOut(op, v) }

func (ex *Executor) fanOut(from *Operator, v Value) {
	for _, e := range ex.g.Out(from) {
		if ex.Include != nil && !ex.Include(e.To) {
			if ex.Boundary != nil {
				ex.Boundary(e, v)
			}
			continue
		}
		if ex.OnEdge != nil {
			ex.OnEdge(e, v)
		}
		ex.push(e.To, e.ToPort, v)
	}
}
