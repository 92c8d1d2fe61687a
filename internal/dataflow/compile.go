package dataflow

import (
	"fmt"
	"sync/atomic"

	"wishbone/internal/freelist"
)

// CompileOptions selects what Compile bakes into a Program. Everything here
// is resolved once, at compile time, instead of once per element at run
// time — which is the point of the compiled engine.
type CompileOptions struct {
	// Include restricts the program to the operators for which it returns
	// true. Unlike Executor.Include, the predicate is evaluated exactly once
	// per operator during compilation; execution then follows precomputed
	// fan-out tables with no per-element partition checks. A nil Include
	// compiles the whole graph.
	Include func(op *Operator) bool

	// CountOps allocates one dense cost counter and invocation counter per
	// operator in every Instance, accumulated per injected event (the
	// profiler's measurement mode). When false, instances either run
	// uncounted or share a single counter set with Instance.SetCounter.
	CountOps bool

	// MeasureEdges accumulates per-edge element and byte totals (and
	// per-event peaks) in every Instance, replacing the profiler's OnEdge
	// callback with dense in-engine accounting.
	MeasureEdges bool

	// Batch enables the coalescing scheduler: operators that are
	// BatchCapable have runs of same-port queued input dispatched through
	// their BatchWork in one invocation, and batches forwarded whole along
	// internal edges. Results, cost counters, and invocation counts are
	// bit-identical to per-element dispatch (the BatchWorkFunc contract);
	// single-element runs always take the per-element Work path.
	Batch bool
}

// fanout is one precomputed output edge of an operator: where the element
// goes, which input port it lands on, the dense edge index for accounting,
// and the target's schedule position (-1 for cut edges).
type fanout struct {
	op   int32 // target operator ID
	port int32 // target input port
	edge int32 // dense edge index (position in Graph.Edges())
	pos  int32 // target schedule position; -1 if the target is excluded
}

// Program is an immutable compiled form of a Graph (restricted to the
// included partition): a flat, topologically ordered operator table with
// dense integer indexing, fan-out resolved into internal-edge and cut-edge
// instruction streams, and preallocated layout information for per-instance
// state slots. A Program is safe for concurrent use by any number of
// Instances — compile the node partition once, execute one Instance per
// simulated node.
type Program struct {
	g    *Graph
	opts CompileOptions

	// Dense per-operator tables, indexed by operator ID.
	included []bool
	work     []WorkFunc
	batch    []BatchWorkFunc // non-nil only when opts.Batch; per-op nil = not batch-capable
	newState []func() any

	// recycle marks operators whose output frames may come from a slab
	// reused across dispatch runs (see Frame): included, with no cut
	// out-edge, and every internal consumer Borrows.
	recycle []bool

	// Batch-hit accounting, indexed by operator ID (allocated only when
	// opts.Batch): how many elements each operator processed in total and
	// how many of those arrived through a BatchWork dispatch. Instances
	// accumulate locally and fold in with atomics at Reset, so the totals
	// aggregate across shards and recycled instances; read via BatchStats.
	statBatched []int64
	statTotal   []int64
	pos         []int32    // operator ID → schedule position, -1 if excluded
	outInt      [][]fanout // fan-out to included operators, in edge order
	outCut      [][]fanout // fan-out to excluded operators, in edge order

	// schedule lists included operator IDs in topological order (the
	// deterministic order of Graph.TopoSort).
	schedule []int32

	// statefulIDs lists included stateful operators (those that get a state
	// slot in every Instance), in ID order.
	statefulIDs []int32

	// edges is the dense edge table: edges[i] is Graph.Edges()[i].
	edges []*Edge

	// insts is the free list AcquireInstance draws from; it never affects
	// the Program's compiled tables. It dies with the Program, which a
	// cache eviction drops.
	insts freelist.List[*Instance]
}

// MaxListedInstances is the most released Instances a Program keeps warm
// (their dense tables, state and frame slabs grown) for AcquireInstance.
// It is what the engine runs at once on a small host — a node shard or a
// delivery shard per worker, a streaming session's few origins — and not
// what a request asks for: a session over thousands of origins holds one
// Instance each while it runs, and all but this many go to the GC when it
// closes.
const MaxListedInstances = 8

// Compile lowers g into an immutable Program. It validates the graph, fixes
// the topological schedule, evaluates opts.Include once per operator, and
// splits every operator's fan-out into internal edges (delivered to the
// scheduler) and cut edges (delivered to Instance.Boundary).
//
// Ordering semantics: within one emission, cut edges fire in the graph's
// edge insertion order, before internal deliveries are enqueued; across
// operators, deliveries follow the topological schedule rather than the
// Executor's depth-first recursion. The two orders coincide — per-operator
// input sequences and boundary capture streams are identical — when fan-out
// edge order matches operator ID order, which holds for every graph wired
// in construction order (Chain, or Add followed by Connect, as all of this
// repo's applications are); the parity tests pin that equivalence
// byte-for-byte on the EEG and speech apps. Graphs that connect operators
// against ID order may observe different (but still topologically valid)
// interleavings than the Executor produces.
func Compile(g *Graph, opts CompileOptions) (*Program, error) {
	if g == nil {
		return nil, fmt.Errorf("dataflow: Compile on nil graph")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	n := g.NumOperators()
	p := &Program{
		g:        g,
		opts:     opts,
		included: make([]bool, n),
		work:     make([]WorkFunc, n),
		newState: make([]func() any, n),
		pos:      make([]int32, n),
		outInt:   make([][]fanout, n),
		outCut:   make([][]fanout, n),
		edges:    g.Edges(),
		insts:    freelist.List[*Instance]{Max: MaxListedInstances},
	}
	for _, op := range g.Operators() {
		id := op.ID()
		p.included[id] = opts.Include == nil || opts.Include(op)
		p.work[id] = op.Work
		if op.Stateful && op.NewState != nil {
			p.newState[id] = op.NewState
		}
		p.pos[id] = -1
	}
	for _, op := range order {
		id := int32(op.ID())
		if !p.included[id] {
			continue
		}
		p.pos[id] = int32(len(p.schedule))
		p.schedule = append(p.schedule, id)
	}
	for ei, e := range p.edges {
		from := e.From.ID()
		f := fanout{
			op:   int32(e.To.ID()),
			port: int32(e.ToPort),
			edge: int32(ei),
			pos:  p.pos[e.To.ID()],
		}
		if p.included[f.op] {
			p.outInt[from] = append(p.outInt[from], f)
		} else {
			p.outCut[from] = append(p.outCut[from], f)
		}
	}
	p.recycle = make([]bool, n)
	for _, op := range g.Operators() {
		id := op.ID()
		if p.included[id] && p.newState[id] != nil {
			p.statefulIDs = append(p.statefulIDs, int32(id))
		}
		p.recycle[id] = p.included[id] && p.work[id] != nil && len(p.outCut[id]) == 0
		for _, f := range p.outInt[id] {
			p.recycle[id] = p.recycle[id] && g.ops[f.op].Borrows
		}
	}
	if opts.Batch {
		p.batch = make([]BatchWorkFunc, n)
		p.statBatched = make([]int64, n)
		p.statTotal = make([]int64, n)
		for _, op := range g.Operators() {
			if p.included[op.ID()] && BatchCapable(op) {
				p.batch[op.ID()] = op.BatchWork
			}
		}
	}
	return p, nil
}

// BorrowsInjected reports whether nothing can keep an element injected at
// g's sources, or emit it again, once the dispatch that received it is
// over: every operator that can receive the element itself Borrows it.
// The element travels as itself through the sources and every operator
// without Work (both forward what they receive) and across cut edges (in
// process a cut edge hands the value itself to the far partition), so the
// answer reads only the graph and holds under every cut. It is the
// recycle rule of Compile applied to the sources' input and extended
// across the cut: what lets a streaming session reuse an arrival's
// storage once its window is delivered.
func BorrowsInjected(g *Graph) bool {
	carries := InjectedEdges(g)
	for i, e := range g.Edges() {
		if carries[i] && e.To.Work != nil && !e.To.Borrows {
			return false
		}
	}
	return true
}

// InjectedEdges marks, by position in g.Edges(), the edges an element
// injected at g's sources can travel as itself: the out-edges of the
// sources and of the operators without Work those reach.
func InjectedEdges(g *Graph) []bool {
	forwards := make([]bool, g.NumOperators())
	stack := g.Sources()
	for len(stack) > 0 {
		op := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if forwards[op.ID()] {
			continue
		}
		forwards[op.ID()] = true
		for _, e := range g.Out(op) {
			if e.To.Work == nil {
				stack = append(stack, e.To)
			}
		}
	}
	carries := make([]bool, g.NumEdges())
	for i, e := range g.Edges() {
		carries[i] = forwards[e.From.ID()]
	}
	return carries
}

// BatchStat is one operator's batch-hit accounting: how many elements it
// processed in total and how many of those arrived through a BatchWork
// dispatch (runs of length >= 2; single-element runs take the per-element
// path and count only toward Total).
type BatchStat struct {
	Op      *Operator
	Batched int64
	Total   int64
}

// BatchStats snapshots the program's accumulated batch-hit counters, in
// operator ID order, skipping operators that processed nothing. Instances
// fold their local counters in when Reset (which ReleaseInstance and
// Recycle both do), so a snapshot taken after a run's instances are
// released covers the whole run.
func (p *Program) BatchStats() []BatchStat {
	if p.statTotal == nil {
		return nil
	}
	var out []BatchStat
	for id := range p.statTotal {
		total := atomic.LoadInt64(&p.statTotal[id])
		if total == 0 {
			continue
		}
		out = append(out, BatchStat{
			Op:      p.g.ByID(id),
			Batched: atomic.LoadInt64(&p.statBatched[id]),
			Total:   total,
		})
	}
	return out
}

// Graph returns the graph this program was compiled from.
func (p *Program) Graph() *Graph { return p.g }

// Options returns the compile options the program was built with.
func (p *Program) Options() CompileOptions { return p.opts }

// Included reports whether op is part of the compiled partition.
func (p *Program) Included(op *Operator) bool { return p.included[op.ID()] }

// NumScheduled returns the number of operators in the compiled schedule.
func (p *Program) NumScheduled() int { return len(p.schedule) }

// StatefulOps returns the IDs of included stateful operators, in ID order.
// The runtime uses this to precompute its per-origin-node state tables
// instead of scanning every operator per delivered message.
func (p *Program) StatefulOps() []int {
	out := make([]int, len(p.statefulIDs))
	for i, id := range p.statefulIDs {
		out[i] = int(id)
	}
	return out
}
