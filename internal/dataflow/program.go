package dataflow

import (
	"fmt"
	"sync/atomic"

	"wishbone/internal/cost"
)

// queued is one entry waiting on an operator's input: the port it arrived
// on and either a single value (vs nil) or a whole batch forwarded from an
// upstream batched emission (vs non-nil; v unused). Batch entries keep a
// forwarded run intact across a pipeline of batch-capable operators without
// re-boxing each element.
type queued struct {
	port int32
	v    Value
	vs   []Value
}

// Instance executes batches of injected events against a compiled Program.
// Where the reference Executor re-resolves fan-out maps, state maps, and
// include predicates per element, an Instance walks precomputed dense
// tables: per-operator input queues drained in schedule order, preallocated
// contexts and emit closures, and state in flat slots indexed by operator
// ID. Queue capacity is retained between events, so steady-state execution
// allocates nothing in the engine itself.
//
// An Instance is not safe for concurrent use; run one Instance per
// goroutine (they can share one Program).
type Instance struct {
	p      *Program
	nodeID int

	states []any
	ctxs   []Ctx
	emits  []Emit
	bemits []EmitBatch // batch emit closures (Batch programs only)

	queues  [][]queued
	inHeap  []bool  // operator ID → queued for scheduling
	heap    []int32 // min-heap of schedule positions with pending input
	running bool

	// epoch counts top-level dispatch runs. Nothing a run emits outlives
	// it except through a cut edge, operator state or an operator that
	// re-emits its input, which the Program's recycle table rules out, so
	// a recycling operator's Frame slab restarts whenever epoch moves (a
	// Reset needs no tick of its own: every Frame call is inside a run).
	epoch uint64

	// scratch gathers a multi-entry run into one contiguous slice for a
	// BatchWork dispatch. Drains never nest (re-entrant run calls return
	// immediately) and a BatchWork may not retain its input, so one scratch
	// per instance suffices.
	scratch []Value

	// Batch-hit accounting (Batch programs only), folded into the
	// Program's shared counters at Reset.
	batchElems []int64
	totalElems []int64

	// Boundary receives elements leaving the compiled partition on cut
	// edges, in the graph's edge order per emission. A nil Boundary drops
	// them (matching Executor).
	Boundary func(e *Edge, v Value)

	// traversals counts internal edge deliveries (the Executor.OnEdge call
	// count); the runtime's server side reads it via Traversals.
	traversals int64

	// CountOps mode (per-event, folded by EndEvent).
	opEvent     []cost.Counter
	opTotal     []cost.Counter
	opPeak      []cost.Counter
	invocations []int
	opTouched   []int32
	opInEvent   []bool

	// MeasureEdges mode.
	edgeBytes   []int64
	edgeElems   []int64
	edgePeak    []int64
	eventBytes  []int64
	edgeSeen    []bool // ever traversed
	edgeTouched []int32
}

// NewInstance returns a fresh execution instance of p acting as the given
// node ID, with new state instances in every included stateful operator's
// slot.
func (p *Program) NewInstance(nodeID int) *Instance {
	n := len(p.included)
	in := &Instance{
		p:      p,
		nodeID: nodeID,
		states: make([]any, n),
		ctxs:   make([]Ctx, n),
		emits:  make([]Emit, n),
		queues: make([][]queued, n),
		inHeap: make([]bool, n),
	}
	for _, id := range p.statefulIDs {
		in.states[id] = p.newState[id]()
	}
	for i := range in.ctxs {
		in.ctxs[i].NodeID = nodeID
		in.ctxs[i].State = in.states[i]
		if p.recycle[i] {
			in.ctxs[i].epoch = &in.epoch
		}
	}
	for i := range in.emits {
		id := int32(i)
		in.emits[i] = func(v Value) { in.fanOut(id, v) }
	}
	if p.batch != nil {
		in.bemits = make([]EmitBatch, n)
		for i := range in.bemits {
			id := int32(i)
			in.bemits[i] = func(vs []Value) { in.fanOutBatch(id, vs) }
		}
		in.batchElems = make([]int64, n)
		in.totalElems = make([]int64, n)
	}
	if p.opts.CountOps {
		in.opEvent = make([]cost.Counter, n)
		in.opTotal = make([]cost.Counter, n)
		in.opPeak = make([]cost.Counter, n)
		in.invocations = make([]int, n)
		in.opInEvent = make([]bool, n)
		for i := range in.ctxs {
			in.ctxs[i].Counter = &in.opEvent[i]
		}
	}
	if p.opts.MeasureEdges {
		ne := len(p.edges)
		in.edgeBytes = make([]int64, ne)
		in.edgeElems = make([]int64, ne)
		in.edgePeak = make([]int64, ne)
		in.eventBytes = make([]int64, ne)
		in.edgeSeen = make([]bool, ne)
	}
	return in
}

// AcquireInstance returns an Instance of p acting as nodeID, recycling a
// previously Released one when available (Reset to pristine state) and
// allocating otherwise. For programs with large operator tables — the
// 1.2k-operator EEG app compiles to per-Instance slices of that length —
// recycling avoids reallocating every dense table (and regrowing every
// recycled frame slab) per simulated node, per delivery shard, per
// request. The caller must stop using the Instance once it Releases it.
func (p *Program) AcquireInstance(nodeID int) *Instance {
	in, ok := p.insts.Get()
	if !ok {
		return p.NewInstance(nodeID)
	}
	in.rebind(nodeID)
	return in
}

// ReleaseInstance returns an Instance obtained from AcquireInstance (or
// NewInstance) to p's free list, which keeps at most MaxListedInstances.
// It Resets the instance immediately — a listed instance must not pin the
// released run's Boundary closure, queued values, or state (potentially a
// whole simulation's message stream) while it waits.
func (p *Program) ReleaseInstance(in *Instance) {
	if in == nil || in.p != p {
		return
	}
	in.Reset(in.nodeID)
	p.insts.Put(in)
}

// ListedInstances reports how many released Instances p keeps for
// AcquireInstance: at most MaxListedInstances.
func (p *Program) ListedInstances() int { return p.insts.Len() }

// Recycle re-prepares the instance for a fresh run as nodeID without a
// free-list round-trip: Release/Acquire semantics (pristine state, empty
// queues, detached Boundary) minus the Program's shared list — except that a
// shared cost counter installed with SetCounter stays installed, saving
// the O(operators) re-attach pass per run. Shard-affine callers — the
// runtime's origin-sharded node phase pins one instance per shard and
// recycles it across that shard's nodes — keep the instance's dense
// tables (and counter wiring) with one goroutine instead of migrating
// them through the free list on every node.
func (in *Instance) Recycle(nodeID int) {
	var c *cost.Counter
	if !in.p.opts.CountOps && len(in.ctxs) > 0 {
		c = in.ctxs[0].Counter
	}
	in.Reset(nodeID)
	if c != nil {
		in.SetCounter(c)
	}
}

// rebind points a pristine listed instance (Reset at release time) at a
// new node identity without re-creating its freshly-reset state.
func (in *Instance) rebind(nodeID int) {
	if in.nodeID == nodeID {
		return
	}
	in.nodeID = nodeID
	for i := range in.ctxs {
		in.ctxs[i].NodeID = nodeID
	}
}

// Reset restores the instance to the state NewInstance would produce for
// nodeID: fresh state in every stateful slot, empty queues, zeroed
// traversal and measurement counters, and no Boundary hook. Shared cost
// counters installed with SetCounter are detached (CountOps instances keep
// their per-operator counters, zeroed).
func (in *Instance) Reset(nodeID int) {
	p := in.p
	in.nodeID = nodeID
	for i := range in.queues {
		// Zero before truncating: a panic mid-event can leave queued
		// Values behind, and a listed instance must not keep them
		// reachable through the backing arrays.
		q := in.queues[i]
		for j := range q {
			q[j] = queued{}
		}
		in.queues[i] = q[:0]
		in.inHeap[i] = false
		in.states[i] = nil
	}
	for _, id := range p.statefulIDs {
		in.states[id] = p.newState[id]()
	}
	for i := range in.ctxs {
		in.ctxs[i].NodeID = nodeID
		in.ctxs[i].State = in.states[i]
		if !p.opts.CountOps {
			in.ctxs[i].Counter = nil
		}
	}
	in.heap = in.heap[:0]
	in.running = false
	in.Boundary = nil
	in.traversals = 0
	for i := range in.scratch {
		in.scratch[i] = nil
	}
	in.scratch = in.scratch[:0]
	if in.totalElems != nil {
		for i := range in.totalElems {
			if in.totalElems[i] != 0 {
				atomic.AddInt64(&p.statTotal[i], in.totalElems[i])
				atomic.AddInt64(&p.statBatched[i], in.batchElems[i])
				in.totalElems[i] = 0
				in.batchElems[i] = 0
			}
		}
	}
	if p.opts.CountOps {
		for i := range in.opEvent {
			in.opEvent[i] = cost.Counter{}
			in.opTotal[i] = cost.Counter{}
			in.opPeak[i] = cost.Counter{}
			in.invocations[i] = 0
			in.opInEvent[i] = false
		}
		in.opTouched = in.opTouched[:0]
	}
	if p.opts.MeasureEdges {
		for i := range in.edgeBytes {
			in.edgeBytes[i] = 0
			in.edgeElems[i] = 0
			in.edgePeak[i] = 0
			in.eventBytes[i] = 0
			in.edgeSeen[i] = false
		}
		in.edgeTouched = in.edgeTouched[:0]
	}
}

// NodeID returns the node identity this instance runs as.
func (in *Instance) NodeID() int { return in.nodeID }

// State returns the state slot for op (nil for stateless or excluded
// operators).
func (in *Instance) State(op *Operator) any { return in.states[op.ID()] }

// SetState replaces the state slot for op. The runtime's server side uses
// this to swap in per-origin-node state when emulating relocated stateful
// operators (§2.1.1).
func (in *Instance) SetState(op *Operator, state any) {
	in.states[op.ID()] = state
	in.ctxs[op.ID()].State = state
}

// SetCounter points every operator's context at one shared cost counter
// (the runtime's per-event CPU accounting). It may not be combined with a
// CountOps program.
func (in *Instance) SetCounter(c *cost.Counter) {
	if in.p.opts.CountOps {
		panic("dataflow: SetCounter on a CountOps program")
	}
	for i := range in.ctxs {
		in.ctxs[i].Counter = c
	}
}

// Traversals returns the number of internal edge deliveries so far (what
// the Executor would have reported through OnEdge calls).
func (in *Instance) Traversals() int64 { return in.traversals }

// Inject delivers element v as if produced by source op: v is fanned out on
// op's output edges without invoking op's work function, and the triggered
// dataflow is executed to quiescence.
func (in *Instance) Inject(op *Operator, v Value) {
	in.fanOut(int32(op.ID()), v)
	in.run()
}

// Push delivers element v to the given input port of op and executes the
// triggered dataflow to quiescence. Pushing to an operator outside the
// compiled partition is an error (the reference Executor's contract, with
// an error instead of a panic).
func (in *Instance) Push(op *Operator, port int, v Value) error {
	id := op.ID()
	if !in.p.included[id] {
		return fmt.Errorf("dataflow: Push to excluded operator %s", op)
	}
	if in.p.work[id] == nil {
		in.Inject(op, v)
		return nil
	}
	in.enqueue(int32(id), int32(port), v)
	in.run()
	return nil
}

// InjectBatch delivers a whole slice of source events in one scheduling
// pass: the batch is fanned out whole, then each operator drains its
// accumulated inputs once, in schedule order. For pipelines this produces
// the same per-operator input sequences as element-at-a-time injection
// while touching each operator once per batch instead of once per element.
// The engine does not retain events past the call (unless called
// re-entrantly from a work function, in which case the slice is held until
// the outer run completes).
func (in *Instance) InjectBatch(op *Operator, events []Value) {
	in.fanOutBatch(int32(op.ID()), events)
	in.run()
}

// PushBatch delivers a run of elements to the given input port of op and
// executes the triggered dataflow to quiescence. It is equivalent to
// calling Push once per element, in order, but touches the scheduler once;
// on Batch programs the run reaches a batch-capable op's BatchWork in one
// invocation. Like InjectBatch, vs is not retained past a non-re-entrant
// call.
func (in *Instance) PushBatch(op *Operator, port int, vs []Value) error {
	id := op.ID()
	if !in.p.included[id] {
		return fmt.Errorf("dataflow: Push to excluded operator %s", op)
	}
	if len(vs) == 0 {
		return nil
	}
	if in.p.work[id] == nil {
		in.InjectBatch(op, vs)
		return nil
	}
	in.enqueueBatch(int32(id), int32(port), vs)
	in.run()
	return nil
}

// enqueue appends an element to an included operator's input queue and
// registers the operator with the scheduler.
func (in *Instance) enqueue(id, port int32, v Value) {
	in.queues[id] = append(in.queues[id], queued{port: port, v: v})
	if !in.inHeap[id] {
		in.inHeap[id] = true
		in.heapPush(in.p.pos[id])
	}
}

// enqueueBatch appends a whole forwarded batch as one queue entry.
func (in *Instance) enqueueBatch(id, port int32, vs []Value) {
	in.queues[id] = append(in.queues[id], queued{port: port, vs: vs})
	if !in.inHeap[id] {
		in.inHeap[id] = true
		in.heapPush(in.p.pos[id])
	}
}

// fanOut delivers one emitted element: cut edges to the Boundary hook,
// internal edges to downstream input queues.
func (in *Instance) fanOut(from int32, v Value) {
	p := in.p
	for i := range p.outCut[from] {
		if in.Boundary != nil {
			in.Boundary(p.edges[p.outCut[from][i].edge], v)
		}
	}
	for i := range p.outInt[from] {
		f := &p.outInt[from][i]
		in.traversals++
		if in.edgeBytes != nil {
			n := int64(WireSize(v))
			e := f.edge
			in.edgeBytes[e] += n
			in.edgeElems[e]++
			if !in.edgeSeen[e] {
				in.edgeSeen[e] = true
			}
			if in.eventBytes[e] == 0 {
				in.edgeTouched = append(in.edgeTouched, e)
			}
			in.eventBytes[e] += n
		}
		in.enqueue(f.op, f.port, v)
	}
}

// fanOutBatch delivers a whole emitted batch: cut edges see the elements
// one at a time in per-element order (element-outer, edge-inner — the
// Boundary capture stream is byte-identical to len(vs) fanOut calls), while
// internal edges receive the batch as a single queue entry. Traversal and
// edge-measurement accounting matches per-element delivery exactly.
func (in *Instance) fanOutBatch(from int32, vs []Value) {
	switch len(vs) {
	case 0:
		return
	case 1:
		in.fanOut(from, vs[0])
		return
	}
	p := in.p
	if len(p.outCut[from]) > 0 && in.Boundary != nil {
		for _, v := range vs {
			for i := range p.outCut[from] {
				in.Boundary(p.edges[p.outCut[from][i].edge], v)
			}
		}
	}
	for i := range p.outInt[from] {
		f := &p.outInt[from][i]
		in.traversals += int64(len(vs))
		if in.edgeBytes != nil {
			e := f.edge
			for _, v := range vs {
				n := int64(WireSize(v))
				in.edgeBytes[e] += n
				in.edgeElems[e]++
				if !in.edgeSeen[e] {
					in.edgeSeen[e] = true
				}
				if in.eventBytes[e] == 0 {
					in.edgeTouched = append(in.edgeTouched, e)
				}
				in.eventBytes[e] += n
			}
		}
		in.enqueueBatch(f.op, f.port, vs)
	}
}

// run drains pending input queues in topological schedule order until the
// instance is quiescent. Because every internal edge points forward in the
// schedule, each operator is visited at most once per run and sees its
// whole input batch for this pass.
func (in *Instance) run() {
	if in.running {
		// Re-entrant call from a work function's emit path: the outer run
		// loop will drain whatever was enqueued.
		return
	}
	in.running = true
	in.epoch++
	p := in.p
	for len(in.heap) > 0 {
		pos := in.heapPop()
		id := p.schedule[pos]
		in.inHeap[id] = false
		items := in.queues[id]
		// Detach the queue while draining: a work function that re-enters
		// the scheduler (Inject from inside an emit path) and reaches this
		// operator again must append to a fresh slice, not alias items —
		// the post-drain zeroing below would otherwise destroy the
		// re-entrantly enqueued values.
		in.queues[id] = nil
		work := p.work[id]
		switch {
		case work == nil:
			for k := range items {
				if items[k].vs != nil {
					in.fanOutBatch(id, items[k].vs)
				} else {
					in.fanOut(id, items[k].v)
				}
			}
		case p.batch != nil && p.batch[id] != nil:
			in.drainBatched(id, items, work, p.batch[id])
		default:
			in.drainElems(id, items, work)
		}
		for k := range items {
			items[k] = queued{}
		}
		if in.queues[id] == nil {
			in.queues[id] = items[:0]
		}
	}
	in.running = false
}

// countInvocations records n work-function elements for op id (CountOps
// mode): Invocations counts elements, not dispatches, so batched and
// per-element execution report identical numbers.
func (in *Instance) countInvocations(id int32, n int) {
	in.invocations[id] += n
	if !in.opInEvent[id] {
		in.opInEvent[id] = true
		in.opTouched = append(in.opTouched, id)
	}
}

// drainElems runs op id's per-element Work over every queued entry,
// unpacking forwarded batch entries in order.
func (in *Instance) drainElems(id int32, items []queued, work WorkFunc) {
	ctx := &in.ctxs[id]
	emit := in.emits[id]
	count := in.invocations != nil
	for k := range items {
		it := &items[k]
		if it.vs != nil {
			for _, v := range it.vs {
				if count {
					in.countInvocations(id, 1)
				}
				work(ctx, int(it.port), v, emit)
			}
			if in.totalElems != nil {
				in.totalElems[id] += int64(len(it.vs))
			}
		} else {
			if count {
				in.countInvocations(id, 1)
			}
			work(ctx, int(it.port), it.v, emit)
			if in.totalElems != nil {
				in.totalElems[id]++
			}
		}
	}
}

// drainBatched coalesces runs of consecutive same-port entries and
// dispatches each run through bw in one invocation. Single-element runs
// take the per-element Work path (the reference semantics; batch dispatch
// only ever amortizes real runs). A run that is exactly one forwarded
// batch entry is dispatched without copying; multi-entry runs are gathered
// into the instance's scratch slice.
func (in *Instance) drainBatched(id int32, items []queued, work WorkFunc, bw BatchWorkFunc) {
	ctx := &in.ctxs[id]
	count := in.invocations != nil
	k := 0
	for k < len(items) {
		port := items[k].port
		j := k
		n := 0
		for j < len(items) && items[j].port == port {
			if items[j].vs != nil {
				n += len(items[j].vs)
			} else {
				n++
			}
			j++
		}
		switch {
		case n == 0:
			// A run of empty forwarded batches: nothing to do.
		case n == 1:
			v := items[k].v
			if items[k].vs != nil {
				v = items[k].vs[0]
			}
			if count {
				in.countInvocations(id, 1)
			}
			work(ctx, int(port), v, in.emits[id])
			in.totalElems[id]++
		case j == k+1:
			// The run is exactly one forwarded batch: dispatch in place.
			if count {
				in.countInvocations(id, n)
			}
			bw(ctx, int(port), items[k].vs, in.bemits[id])
			in.totalElems[id] += int64(n)
			in.batchElems[id] += int64(n)
		default:
			vs := in.scratch[:0]
			for i := k; i < j; i++ {
				if items[i].vs != nil {
					vs = append(vs, items[i].vs...)
				} else {
					vs = append(vs, items[i].v)
				}
			}
			if count {
				in.countInvocations(id, n)
			}
			bw(ctx, int(port), vs, in.bemits[id])
			for i := range vs {
				vs[i] = nil
			}
			in.scratch = vs[:0]
			in.totalElems[id] += int64(n)
			in.batchElems[id] += int64(n)
		}
		k = j
	}
}

// EndEvent folds this event's measurements into running totals and peaks:
// per-operator event counters into OpTotal/OpPeak (CountOps mode) and
// per-event edge bytes into EdgePeak (MeasureEdges mode). The profiler
// calls it after every injected event; uncounted instances need not call
// it.
func (in *Instance) EndEvent() {
	if in.opEvent != nil {
		for _, id := range in.opTouched {
			c := &in.opEvent[id]
			in.opTotal[id].AddCounter(c)
			if c.Total() > in.opPeak[id].Total() {
				in.opPeak[id] = cost.Counter{}
				in.opPeak[id].AddCounter(c)
			}
			c.Reset()
			in.opInEvent[id] = false
		}
		in.opTouched = in.opTouched[:0]
	}
	if in.eventBytes != nil {
		for _, e := range in.edgeTouched {
			if in.eventBytes[e] > in.edgePeak[e] {
				in.edgePeak[e] = in.eventBytes[e]
			}
			in.eventBytes[e] = 0
		}
		in.edgeTouched = in.edgeTouched[:0]
	}
}

// OpTotal returns operator id's accumulated cost counter (CountOps mode;
// nil otherwise). The returned counter is live — callers must not modify
// it.
func (in *Instance) OpTotal(id int) *cost.Counter {
	if in.opTotal == nil {
		return nil
	}
	return &in.opTotal[id]
}

// OpPeak returns operator id's costliest single-event counter (CountOps
// mode; nil otherwise).
func (in *Instance) OpPeak(id int) *cost.Counter {
	if in.opPeak == nil {
		return nil
	}
	return &in.opPeak[id]
}

// Invocations returns how many times operator id's work function ran
// (CountOps mode; 0 otherwise).
func (in *Instance) Invocations(id int) int {
	if in.invocations == nil {
		return 0
	}
	return in.invocations[id]
}

// EdgeStats returns dense edge index e's accumulated traffic (MeasureEdges
// mode): total bytes, total elements, peak bytes in one event, and whether
// the edge was ever traversed.
func (in *Instance) EdgeStats(e int) (bytes, elems, peak int64, seen bool) {
	if in.edgeBytes == nil {
		return 0, 0, 0, false
	}
	return in.edgeBytes[e], in.edgeElems[e], in.edgePeak[e], in.edgeSeen[e]
}

// heapPush and heapPop maintain the pending-position min-heap. The heap
// holds schedule positions, so the scheduler always advances to the
// earliest operator with pending input.
func (in *Instance) heapPush(pos int32) {
	h := append(in.heap, pos)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	in.heap = h
}

func (in *Instance) heapPop() int32 {
	h := in.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l] < h[small] {
			small = l
		}
		if r < len(h) && h[r] < h[small] {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	in.heap = h
	return top
}
