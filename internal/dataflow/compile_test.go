package dataflow

import (
	"fmt"
	"strings"
	"testing"

	"wishbone/internal/cost"
)

// diamondGraph builds src → (a, b) → join → tail → sink with a stateful
// join that pairs its ports, exercising fan-out order, multi-port delivery
// and downstream continuation.
func diamondGraph() (*Graph, *Operator) {
	g := New()
	src := g.Add(&Operator{Name: "src", NS: NSNode, SideEffect: true})
	mk := func(name string, f func(int) int) *Operator {
		return g.Add(&Operator{Name: name, NS: NSNode,
			Work: func(ctx *Ctx, _ int, v Value, emit Emit) {
				ctx.Counter.Add(cost.IntOp, 1)
				emit(f(v.(int)))
			}})
	}
	a := mk("a", func(x int) int { return x * 2 })
	b := mk("b", func(x int) int { return x + 100 })
	join := g.Add(&Operator{Name: "join", NS: NSNode, Stateful: true,
		NewState: func() any { return &[2][]int{} },
		Work: func(ctx *Ctx, port int, v Value, emit Emit) {
			q := ctx.State.(*[2][]int)
			q[port] = append(q[port], v.(int))
			for len(q[0]) > 0 && len(q[1]) > 0 {
				emit(pair{q[0][0], q[1][0]})
				q[0], q[1] = q[0][1:], q[1][1:]
			}
		}})
	tail := g.Add(&Operator{Name: "tail", NS: NSNode,
		Work: func(ctx *Ctx, _ int, v Value, emit Emit) {
			p := v.(pair)
			emit(p[0] + p[1])
		}})
	sink := g.Add(&Operator{Name: "sink", NS: NSServer, SideEffect: true,
		Work: func(ctx *Ctx, _ int, v Value, emit Emit) {}})
	g.Connect(src, a, 0)
	g.Connect(src, b, 0)
	g.Connect(a, join, 0)
	g.Connect(b, join, 1)
	g.Connect(tail, sink, 0)
	g.Connect(join, tail, 0)
	return g, src
}

// pair is the diamond's joined element; a profiling Program measures it
// on join → tail.
type pair [2]int

func (pair) WireSize() int { return 16 }

func TestCompiledStatePerInstance(t *testing.T) {
	g := New()
	src := g.Add(&Operator{Name: "src", NS: NSNode, SideEffect: true})
	counter := g.Add(&Operator{Name: "count", NS: NSNode, Stateful: true,
		NewState: func() any { return new(int) },
		Work: func(ctx *Ctx, _ int, v Value, emit Emit) {
			n := ctx.State.(*int)
			*n++
			emit(*n)
		}})
	g.Connect(src, counter, 0)
	prog, err := Compile(g, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in1 := prog.NewInstance(1)
	in2 := prog.NewInstance(2)
	in1.Inject(src, 0)
	in1.Inject(src, 0)
	in2.Inject(src, 0)
	if *(in1.State(counter).(*int)) != 2 || *(in2.State(counter).(*int)) != 1 {
		t.Fatal("instance state must be per-instance")
	}
}

func TestCompiledPushExcludedReturnsError(t *testing.T) {
	g, src := diamondGraph()
	sink := g.ByName("sink")
	prog, err := Compile(g, CompileOptions{
		Include: func(op *Operator) bool { return op.NS == NSNode },
	})
	if err != nil {
		t.Fatal(err)
	}
	inst := prog.NewInstance(0)
	if err := inst.PushBatch(sink, 0, []Value{1}); err == nil {
		t.Fatal("Push to excluded operator must error")
	}
	if err := inst.PushBatch(g.ByName("a"), 0, []Value{1}); err != nil {
		t.Fatalf("Push to included operator errored: %v", err)
	}
	_ = src
}

func TestInjectBatchMatchesSequentialInjection(t *testing.T) {
	build := func() (*Graph, *Operator) { return diamondGraph() }

	g1, src1 := build()
	var seqOut []Value
	// Capture final pipeline output by replacing the sink's work. A Program
	// snapshots work functions, so the swap must happen before Compile.
	g1.ByName("sink").Work = func(ctx *Ctx, _ int, v Value, emit Emit) { seqOut = append(seqOut, v) }
	prog1, err := Compile(g1, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seq := prog1.NewInstance(0)
	events := []Value{1, 2, 3, 4}
	for _, v := range events {
		seq.Inject(src1, v)
	}

	g2, src2 := build()
	var batchOut []Value
	g2.ByName("sink").Work = func(ctx *Ctx, _ int, v Value, emit Emit) { batchOut = append(batchOut, v) }
	prog2, err := Compile(g2, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prog2.NewInstance(0).InjectBatch(src2, events)

	if fmt.Sprint(seqOut) != fmt.Sprint(batchOut) {
		t.Fatalf("batch injection diverged: seq %v batch %v", seqOut, batchOut)
	}
	if len(seqOut) != len(events) {
		t.Fatalf("expected %d outputs, got %d", len(events), len(seqOut))
	}
}

func TestCompileRejectsCyclicGraph(t *testing.T) {
	g := New()
	a := g.Add(&Operator{Name: "a", NS: NSNode})
	b := g.Add(&Operator{Name: "b", NS: NSNode})
	g.Connect(a, b, 0)
	g.Connect(b, a, 0)
	if _, err := Compile(g, CompileOptions{}); err == nil {
		t.Fatal("Compile must reject cyclic graphs")
	}
}

func TestCompiledInjectOnExcludedSourceCrossesBoundary(t *testing.T) {
	// Cutpoint 1 of the paper's sweeps: only the source is on the node, so
	// raw events cross immediately.
	g := New()
	src := g.Add(&Operator{Name: "src", NS: NSNode, SideEffect: true})
	work := g.Add(&Operator{Name: "work", NS: NSNode,
		Work: func(ctx *Ctx, _ int, v Value, emit Emit) { emit(v) }})
	g.Connect(src, work, 0)
	prog, err := Compile(g, CompileOptions{
		Include: func(op *Operator) bool { return op.Name == "src" },
	})
	if err != nil {
		t.Fatal(err)
	}
	inst := prog.NewInstance(0)
	var crossed []Value
	inst.Boundary = func(e *Edge, v Value) { crossed = append(crossed, v) }
	inst.Inject(src, 41)
	if len(crossed) != 1 || crossed[0] != 41 {
		t.Fatalf("boundary saw %v, want [41]", crossed)
	}
}

// TestInstanceReset pins what every node stage relies on when it releases
// one node's Instance and acquires one for the next: the acquired instance
// has pristine per-node state and identity and no shared cost counter,
// and SetCounter attaches one again.
func TestInstanceReset(t *testing.T) {
	g, src := diamondGraph()
	prog, err := Compile(g, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref := prog.NewInstance(7)
	refCounter := &cost.Counter{}
	ref.SetCounter(refCounter)
	ref.Inject(src, 1)
	wantTrav := ref.Traversals()
	wantCost := refCounter.Total()

	in := prog.NewInstance(3)
	counter := &cost.Counter{}
	in.SetCounter(counter)
	in.Inject(src, 5)
	in.Inject(src, 9) // dirty the stateful join across two events

	prog.ReleaseInstance(in)
	if got := prog.AcquireInstance(7); got != in {
		t.Fatal("AcquireInstance did not take the listed instance")
	}
	if in.NodeID() != 7 {
		t.Fatalf("NodeID %d after AcquireInstance(7)", in.NodeID())
	}
	if in.Traversals() != 0 {
		t.Fatalf("Traversals %d after release, want 0", in.Traversals())
	}
	counter.Reset()
	in.Inject(src, 1)
	if counter.Total() != 0 {
		t.Fatalf("acquired instance charged %v to the counter of its previous run", counter.Total())
	}

	prog.ReleaseInstance(in)
	in = prog.AcquireInstance(7)
	in.SetCounter(counter)
	in.Inject(src, 1)
	if in.Traversals() != wantTrav {
		t.Fatalf("acquired instance traversed %d, fresh %d — stale state survived", in.Traversals(), wantTrav)
	}
	if counter.Total() != wantCost {
		t.Fatalf("acquired instance charged %v, fresh %v", counter.Total(), wantCost)
	}
}

// TestReleaseBuildsNoState pins the Instance lifecycle: operator state is
// built once per take (NewInstance or AcquireInstance), never when an
// Instance is released, and an Instance acquired after a release is as
// pristine as a fresh one, for both kinds of Program.
func TestReleaseBuildsNoState(t *testing.T) {
	g, src := diamondGraph()
	var join, tail *Operator
	builds := 0
	for _, op := range g.Operators() {
		switch op.Name {
		case "join":
			join = op
			newState := op.NewState
			op.NewState = func() any { builds++; return newState() }
		case "tail":
			tail = op
		}
	}
	// dirty leaves behind everything a run can: state, a shared counter,
	// a Boundary hook, counted traversals and elements, measurements and
	// a queued value (as a panic mid-event would).
	dirty := func(in *Instance) {
		if !in.p.opts.Profile {
			in.SetCounter(&cost.Counter{})
		}
		in.Boundary = func(*Edge, Value) {}
		in.Inject(src, 5)
		in.EndEvent()
		in.Inject(src, 9)
		q := in.State(join).(*[2][]int)
		q[0] = append(q[0], 42)
		in.enqueue(int32(tail.ID()), 0, pair{1, 2})
	}
	for _, opts := range []CompileOptions{{}, {Profile: true}} {
		prog, err := Compile(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := pristine(prog.NewInstance(5))

		builds = 0
		in := prog.NewInstance(3)
		dirty(in)
		prog.ReleaseInstance(in)
		again := prog.AcquireInstance(5)
		if again != in {
			t.Fatalf("profile %v: AcquireInstance did not take the listed instance", opts.Profile)
		}
		if got := pristine(again); got != want {
			t.Errorf("profile %v: acquired after release:\n%s\nfresh:\n%s", opts.Profile, got, want)
		}
		dirty(again)
		prog.ReleaseInstance(again)
		if builds != 2 {
			t.Errorf("profile %v: New → Release → Acquire → Release built state %d times, want 2 (one per take)", opts.Profile, builds)
		}
	}
}

// pristine renders what an Instance's next run can observe of it: its
// identity, state, pending work, hooks and counters — not the capacity of
// its queues, frame slabs or workspaces, which a listed Instance keeps warm.
func pristine(in *Instance) string {
	var b strings.Builder
	fmt.Fprintf(&b, "node %d running %v boundary %v traversals %d heap %d scratch %d\n",
		in.nodeID, in.running, in.Boundary != nil, in.traversals, len(in.heap), len(in.scratch))
	for i := range in.ctxs {
		c := &in.ctxs[i]
		shared := c.Counter != nil && (in.opEvent == nil || c.Counter != &in.opEvent[i])
		fmt.Fprintf(&b, "op %d: state %#v ctx %d %#v shared counter %v queued %d scheduled %v\n",
			i, in.states[i], c.NodeID, c.State, shared, len(in.queues[i]), in.inHeap[i])
	}
	fmt.Fprintln(&b, in.batchElems, in.totalElems, in.opEvent, in.opTotal, in.opPeak, in.invocations,
		in.opInEvent, len(in.opTouched), in.edgeBytes, in.edgeElems, in.edgePeak, in.eventBytes,
		in.edgeSeen, len(in.edgeTouched))
	return b.String()
}
