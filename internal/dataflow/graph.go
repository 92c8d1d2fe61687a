// Package dataflow models stream programs as directed acyclic graphs of
// operators, mirroring the graphs the WaveScript front end elaborates
// (paper §2).
//
// Each operator has a work function that consumes one element from an input
// stream, may update private state, and emits elements downstream. Operators
// carry the annotations the partitioner needs: which logical namespace they
// were written in (Node{} or server, §2.1), whether they are stateful, and
// whether they have side effects (sensor reads, LED blinks, file output) —
// the three properties that decide whether an operator is pinned or movable
// (§2.1.1).
package dataflow

import (
	"fmt"
	"sort"

	"wishbone/internal/cost"
)

// Namespace says which logical partition an operator was declared in. Node
// operators are replicated once per embedded node; server operators are
// instantiated exactly once (§2.1).
type Namespace int

const (
	// NSNode marks operators declared inside the Node{} namespace.
	NSNode Namespace = iota
	// NSServer marks operators declared at the top level (server side).
	NSServer
)

// String returns "node" or "server".
func (n Namespace) String() string {
	if n == NSNode {
		return "node"
	}
	return "server"
}

// Value is one element on a stream. Applications use concrete types
// ([]int16 sample windows, []float64 spectra, feature vectors); the wire
// size of a value is computed by WireSize.
type Value any

// Emit sends one element on the operator's output stream.
type Emit func(v Value)

// Ctx is the execution context passed to a work function. Counter (which
// may be nil outside of profiling) accumulates the abstract operation
// counts the profiler converts into per-platform CPU time. NodeID
// identifies which physical node's replica is executing (§2.1: stateful
// node operators have one state instance per node). State is the
// operator's private state instance for that replica.
type Ctx struct {
	Counter *cost.Counter
	// NodeID is informational. The deployment simulator (internal/runtime)
	// simulates one replica and replays its message stream for every node
	// whenever all nodes are offered the very same event slices, so a work
	// function's emits must not depend on NodeID, and a server-side work
	// function must not mutate a delivered value in place (replayed
	// messages alias one value across replicas). A caller whose operators
	// need either gives each node its own copy of the events, which runs
	// every replica.
	NodeID int
	State  any

	// epoch and slab back Frame: epoch points at the owning Instance's
	// run counter when the compiled Program recycles this operator's
	// output (nil otherwise), and slab is the operator's *frameSlab.
	// ws backs Workspace.
	epoch *uint64
	slab  any
	ws    any
}

// WorkFunc processes one input element. port identifies which input stream
// the element arrived on (0 for single-input operators). The function may
// call emit zero or more times.
//
// The memory contract both engines rely on: values are immutable once
// emitted, so the function never writes to v and does not keep it beyond
// the call except by queueing it in operator state or passing it along;
// every value it emits is its to give away — never backed by a buffer the
// function, or a pool it draws from, will write again, with one exception:
// a frame from Frame, which the engine hands out from a slab it reuses only
// once the dispatch run that emitted the frame is over, and only for an
// operator whose every consumer Borrows its input (nothing can then hold
// the frame past that run). Reusable scratch is the context's Workspace,
// used only within the call and done with before emit, because emit may
// run the downstream work function to completion before it returns (the
// depth-first Executor does); other goroutines running this same operator
// for other nodes do so under contexts of their own.
// A dispatch should allocate the values it emits and nothing else
// (internal/apps/kernel derives conforming functions from one kernel).
type WorkFunc func(ctx *Ctx, port int, v Value, emit Emit)

// EmitBatch sends a run of elements downstream, in order, as one batch.
// Ownership of vs transfers to the engine at the call: the caller must not
// modify, reuse, or retain the slice (or its backing array) afterwards —
// downstream operators and boundary hooks may hold references to it until
// the scheduling pass completes.
type EmitBatch func(vs []Value)

// BatchWorkFunc is the slice-at-a-time variant of WorkFunc: it processes a
// run of elements that arrived consecutively on one input port. It must be
// observationally identical to folding Work over vs in order — the same
// emitted elements in the same order, the same per-element state updates,
// and the same cost-counter charges — so batched and per-element execution
// produce byte-identical results. The function must not retain vs beyond
// the call (the engine reuses the backing array), and every slice it passes
// to emit must be freshly produced, never its input. WorkFunc's memory
// contract holds element by element: inputs are never written, emitted
// values are never backed by reused scratch (several may share one slab
// allocated for the batch, or one frame from Frame, as disjoint cap-limited
// pieces), and scratch is done with before emit.
type BatchWorkFunc func(ctx *Ctx, port int, vs []Value, emit EmitBatch)

// Operator is one vertex of the dataflow graph.
type Operator struct {
	id int

	// Name is a human-readable label ("FFT", "filtbank", "cepstrals").
	Name string

	// NS is the namespace the operator was declared in.
	NS Namespace

	// Stateful marks operators that keep mutable state between invocations
	// (FIR filter FIFOs, windowing buffers). Stateless operators are
	// insensitive to upstream message loss; stateful ones may not be
	// (§2.1.1).
	Stateful bool

	// SideEffect marks operators with externally visible effects — sampling
	// hardware, actuating, printing. Side-effecting operators are pinned to
	// the partition they were declared in.
	SideEffect bool

	// NewState constructs a fresh private state instance. It must be
	// non-nil when Stateful is true; each node replica (and the server's
	// per-node emulation table) gets its own instance.
	NewState func() any

	// Work is the operator's work function. Sources may leave it nil: the
	// runtime injects their elements directly.
	Work WorkFunc

	// BatchWork is an optional slice-at-a-time variant of Work, dispatched
	// by every deployment Program for runs of same-port input (see
	// BatchWorkFunc for the equivalence contract). Operators without one
	// always run element at a time.
	BatchWork BatchWorkFunc

	// Borrows declares that Work and BatchWork read their input only
	// during the dispatch: they neither keep it (in state or anywhere else)
	// nor emit it. It is what lets a compiled Program recycle a producer's
	// output frames (see Frame): a producer recycles iff it has no cut
	// out-edge and every consumer inside its partition Borrows.
	Borrows bool

	// BatchStateSafe opts a stateful operator into batched dispatch: the
	// operator asserts its BatchWork applies state updates in per-element
	// order, so a batch is indistinguishable from the same elements one at
	// a time. Stateless operators need no opt-in; stateful ones without it
	// are never batched. The flag alone decides (BatchCapable): a stateful
	// Node-namespace operator that opts in batches on either side of the
	// cut, whatever relocation mode Classify ran under.
	BatchStateSafe bool

	// Reduce marks a tree-aggregation operator (the paper's §9 extension):
	// when placed in the node partition, its per-node outputs are combined
	// pairwise with Combine inside the collection tree, so the link at the
	// root carries one aggregate per round instead of one per node. When
	// placed on the server, every node's data flows up unaggregated. The
	// partitioning algorithm is unchanged.
	Reduce bool

	// Combine merges two aggregates; required when Reduce is set. It must
	// be associative and commutative (aggregation-tree order is not
	// deterministic).
	Combine func(a, b Value) Value

	// SaveState and LoadState serialize one private state instance — the
	// snapshot analogue of the marshal/unmarshal code the paper's compiler
	// generates for cut edges (§3), applied to operator state instead of
	// stream elements. Both are optional; a stateful operator without them
	// simply cannot be captured by a session snapshot (Snapshot reports
	// which operator blocked it). LoadState must return a state that makes
	// the operator's future output byte-identical to continuing with the
	// saved instance.
	SaveState func(st any) ([]byte, error)
	LoadState func(data []byte) (any, error)
}

// ID returns the operator's graph-assigned identifier.
func (o *Operator) ID() int { return o.id }

// String returns "name#id".
func (o *Operator) String() string { return fmt.Sprintf("%s#%d", o.Name, o.id) }

// Edge is one stream connecting the output of From to input port ToPort of
// To.
type Edge struct {
	From   *Operator
	To     *Operator
	ToPort int
}

// String renders the edge as "a#1->b#2.0".
func (e *Edge) String() string {
	return fmt.Sprintf("%s->%s.%d", e.From, e.To, e.ToPort)
}

// Graph is a directed acyclic graph of operators. The zero value is not
// usable; call New.
type Graph struct {
	ops   []*Operator
	edges []*Edge
	out   map[int][]*Edge
	in    map[int][]*Edge
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		out: make(map[int][]*Edge),
		in:  make(map[int][]*Edge),
	}
}

// Add inserts op into the graph, assigns its ID, and returns it (for
// chaining with Connect).
func (g *Graph) Add(op *Operator) *Operator {
	op.id = len(g.ops)
	g.ops = append(g.ops, op)
	return op
}

// Connect adds a stream from the output of from to input port toPort of to.
func (g *Graph) Connect(from, to *Operator, toPort int) *Edge {
	e := &Edge{From: from, To: to, ToPort: toPort}
	g.edges = append(g.edges, e)
	g.out[from.id] = append(g.out[from.id], e)
	g.in[to.id] = append(g.in[to.id], e)
	return e
}

// Chain connects ops[0]→ops[1]→…→ops[n-1] on port 0 and returns the last
// operator. Operators must already have been added.
func (g *Graph) Chain(ops ...*Operator) *Operator {
	for i := 1; i < len(ops); i++ {
		g.Connect(ops[i-1], ops[i], 0)
	}
	return ops[len(ops)-1]
}

// Operators returns all operators in insertion (ID) order. The caller must
// not modify the slice.
func (g *Graph) Operators() []*Operator { return g.ops }

// Edges returns all edges in insertion order. The caller must not modify
// the slice.
func (g *Graph) Edges() []*Edge { return g.edges }

// NumOperators returns the number of operators.
func (g *Graph) NumOperators() int { return len(g.ops) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Out returns the edges leaving op.
func (g *Graph) Out(op *Operator) []*Edge { return g.out[op.id] }

// In returns the edges entering op.
func (g *Graph) In(op *Operator) []*Edge { return g.in[op.id] }

// ByID returns the operator with the given ID, or nil.
func (g *Graph) ByID(id int) *Operator {
	if id < 0 || id >= len(g.ops) {
		return nil
	}
	return g.ops[id]
}

// ByName returns the first operator with the given name, or nil.
func (g *Graph) ByName(name string) *Operator {
	for _, op := range g.ops {
		if op.Name == name {
			return op
		}
	}
	return nil
}

// Sources returns operators with no incoming edges, in ID order. In a valid
// program these are the sensor-sampling operators pinned to the node
// partition (§4.2.1: "all the sources must remain on the embedded node").
func (g *Graph) Sources() []*Operator {
	var s []*Operator
	for _, op := range g.ops {
		if len(g.in[op.id]) == 0 {
			s = append(s, op)
		}
	}
	return s
}

// Sinks returns operators with no outgoing edges, in ID order. In a valid
// program these deliver results on the server.
func (g *Graph) Sinks() []*Operator {
	var s []*Operator
	for _, op := range g.ops {
		if len(g.out[op.id]) == 0 {
			s = append(s, op)
		}
	}
	return s
}

// TopoSort returns the operators in a topological order, or an error if the
// graph contains a cycle. The order is deterministic: among ready vertices,
// lower IDs come first.
func (g *Graph) TopoSort() ([]*Operator, error) {
	indeg := make([]int, len(g.ops))
	for _, e := range g.edges {
		indeg[e.To.id]++
	}
	var ready []int
	for id, d := range indeg {
		if d == 0 {
			ready = append(ready, id)
		}
	}
	sort.Ints(ready)
	order := make([]*Operator, 0, len(g.ops))
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		order = append(order, g.ops[id])
		var newly []int
		for _, e := range g.out[id] {
			indeg[e.To.id]--
			if indeg[e.To.id] == 0 {
				newly = append(newly, e.To.id)
			}
		}
		if len(newly) > 0 {
			sort.Ints(newly)
			ready = mergeSorted(ready, newly)
		}
	}
	if len(order) != len(g.ops) {
		return nil, fmt.Errorf("dataflow: graph contains a cycle (%d of %d operators ordered)",
			len(order), len(g.ops))
	}
	return order, nil
}

func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Validate checks structural invariants: acyclicity, stateful operators
// having state constructors, source operators living in the Node namespace,
// and every edge referring to operators that belong to this graph.
func (g *Graph) Validate() error {
	if _, err := g.TopoSort(); err != nil {
		return err
	}
	for _, op := range g.ops {
		if op.Stateful && op.NewState == nil {
			return fmt.Errorf("dataflow: stateful operator %s has no NewState", op)
		}
		if op.Reduce && op.Combine == nil {
			return fmt.Errorf("dataflow: reduce operator %s has no Combine", op)
		}
		if g.ByID(op.id) != op {
			return fmt.Errorf("dataflow: operator %s not registered with this graph", op)
		}
	}
	for _, src := range g.Sources() {
		if src.NS != NSNode {
			return fmt.Errorf("dataflow: source %s must be in the Node namespace", src)
		}
	}
	for _, e := range g.edges {
		if g.ByID(e.From.id) != e.From || g.ByID(e.To.id) != e.To {
			return fmt.Errorf("dataflow: edge %s refers to foreign operators", e)
		}
	}
	return nil
}

// Ancestors returns the set of operators (by ID) from which op is
// reachable, excluding op itself.
func (g *Graph) Ancestors(op *Operator) map[int]bool {
	seen := make(map[int]bool)
	var visit func(id int)
	visit = func(id int) {
		for _, e := range g.in[id] {
			if !seen[e.From.id] {
				seen[e.From.id] = true
				visit(e.From.id)
			}
		}
	}
	visit(op.id)
	return seen
}

// Descendants returns the set of operators (by ID) reachable from op,
// excluding op itself.
func (g *Graph) Descendants(op *Operator) map[int]bool {
	seen := make(map[int]bool)
	var visit func(id int)
	visit = func(id int) {
		for _, e := range g.out[id] {
			if !seen[e.To.id] {
				seen[e.To.id] = true
				visit(e.To.id)
			}
		}
	}
	visit(op.id)
	return seen
}
