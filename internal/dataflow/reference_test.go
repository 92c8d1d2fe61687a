package dataflow_test

import (
	"fmt"
	"testing"

	"wishbone/internal/cost"
	"wishbone/internal/dataflow"
	"wishbone/internal/dataflow/reference"
)

func TestExecutorDepthFirstAndBoundary(t *testing.T) {
	g := dataflow.New()
	src := g.Add(&dataflow.Operator{Name: "src", NS: dataflow.NSNode, SideEffect: true})
	double := g.Add(&dataflow.Operator{Name: "double", NS: dataflow.NSNode,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) { emit(v.(int) * 2) }})
	server := g.Add(&dataflow.Operator{Name: "server", NS: dataflow.NSServer, SideEffect: true,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {}})
	g.Chain(src, double, server)

	ex := reference.NewExecutor(g, 0)
	ex.Include = func(op *dataflow.Operator) bool { return op.NS == dataflow.NSNode }
	var crossed []dataflow.Value
	ex.Boundary = func(e *dataflow.Edge, v dataflow.Value) { crossed = append(crossed, v) }
	ex.Inject(src, 21)
	if len(crossed) != 1 || crossed[0] != 42 {
		t.Fatalf("boundary saw %v, want [42]", crossed)
	}
}

func TestExecutorStatePerInstance(t *testing.T) {
	g := dataflow.New()
	src := g.Add(&dataflow.Operator{Name: "src", NS: dataflow.NSNode, SideEffect: true})
	counter := g.Add(&dataflow.Operator{Name: "count", NS: dataflow.NSNode, Stateful: true,
		NewState: func() any { return new(int) },
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			n := ctx.State.(*int)
			*n++
			emit(*n)
		}})
	g.Connect(src, counter, 0)
	ex1 := reference.NewExecutor(g, 1)
	ex2 := reference.NewExecutor(g, 2)
	var got []dataflow.Value
	ex1.OnEdge = func(e *dataflow.Edge, v dataflow.Value) {}
	_ = got
	ex1.Inject(src, 0)
	ex1.Inject(src, 0)
	ex2.Inject(src, 0)
	if *(ex1.State(counter).(*int)) != 2 || *(ex2.State(counter).(*int)) != 1 {
		t.Fatal("executor state must be per-instance")
	}
}

func TestExecutorCounterWiring(t *testing.T) {
	g := dataflow.New()
	src := g.Add(&dataflow.Operator{Name: "src", NS: dataflow.NSNode, SideEffect: true})
	work := g.Add(&dataflow.Operator{Name: "w", NS: dataflow.NSNode,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			ctx.Counter.Add(cost.Sqrt, 7)
		}})
	g.Connect(src, work, 0)
	ex := reference.NewExecutor(g, 0)
	var c cost.Counter
	ex.CounterFor = func(op *dataflow.Operator) *cost.Counter { return &c }
	ex.Inject(src, nil)
	if c.Counts()[cost.Sqrt] != 7 {
		t.Fatalf("counter saw %v", c.String())
	}
}

// trace records every delivery an engine makes, for order-sensitive parity.
type trace struct {
	onEdge   []string
	boundary []string
}

func runLegacyTrace(g *dataflow.Graph, src *dataflow.Operator, include func(*dataflow.Operator) bool, events []dataflow.Value) *trace {
	tr := &trace{}
	ex := reference.NewExecutor(g, 0)
	ex.Include = include
	ex.OnEdge = func(e *dataflow.Edge, v dataflow.Value) { tr.onEdge = append(tr.onEdge, fmt.Sprintf("%s=%v", e, v)) }
	ex.Boundary = func(e *dataflow.Edge, v dataflow.Value) {
		tr.boundary = append(tr.boundary, fmt.Sprintf("%s=%v", e, v))
	}
	for _, v := range events {
		ex.Inject(src, v)
	}
	return tr
}

func runCompiledBoundaryTrace(t *testing.T, g *dataflow.Graph, src *dataflow.Operator, include func(*dataflow.Operator) bool, events []dataflow.Value) *trace {
	t.Helper()
	prog, err := dataflow.Compile(g, dataflow.CompileOptions{Include: include})
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace{}
	inst := prog.NewInstance(0)
	inst.Boundary = func(e *dataflow.Edge, v dataflow.Value) {
		tr.boundary = append(tr.boundary, fmt.Sprintf("%s=%v", e, v))
	}
	for _, v := range events {
		inst.Inject(src, v)
	}
	return tr
}

func TestCompiledMatchesExecutorOnDiamond(t *testing.T) {
	g, src := dataflow.DiamondGraph()
	events := []dataflow.Value{1, 2, 3, 4, 5}
	include := func(op *dataflow.Operator) bool { return op.NS == dataflow.NSNode }

	legacy := runLegacyTrace(g, src, include, events)
	compiled := runCompiledBoundaryTrace(t, g, src, include, events)
	if fmt.Sprint(legacy.boundary) != fmt.Sprint(compiled.boundary) {
		t.Fatalf("boundary streams diverge:\nlegacy:   %v\ncompiled: %v",
			legacy.boundary, compiled.boundary)
	}
	if len(legacy.boundary) != len(events) {
		t.Fatalf("expected %d boundary crossings, got %d", len(events), len(legacy.boundary))
	}
}

func TestCompiledTraversalsMatchOnEdgeCount(t *testing.T) {
	g, src := dataflow.DiamondGraph()
	events := []dataflow.Value{7, 8, 9}
	legacy := runLegacyTrace(g, src, nil, events)

	prog, err := dataflow.Compile(g, dataflow.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inst := prog.NewInstance(0)
	for _, v := range events {
		inst.Inject(src, v)
	}
	if int(inst.Traversals()) != len(legacy.onEdge) {
		t.Fatalf("compiled traversals %d, legacy OnEdge calls %d",
			inst.Traversals(), len(legacy.onEdge))
	}
}

func TestCompiledCountOpsMatchesExecutorCounters(t *testing.T) {
	g, src := dataflow.DiamondGraph()
	events := []dataflow.Value{1, 2, 3}

	// Legacy per-op totals via CounterFor.
	counters := make(map[int]*cost.Counter)
	invocations := make(map[int]int)
	ex := reference.NewExecutor(g, 0)
	ex.CounterFor = func(op *dataflow.Operator) *cost.Counter {
		c, ok := counters[op.ID()]
		if !ok {
			c = &cost.Counter{}
			counters[op.ID()] = c
		}
		invocations[op.ID()]++
		return c
	}
	for _, v := range events {
		ex.Inject(src, v)
	}

	prog, err := dataflow.Compile(g, dataflow.CompileOptions{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	inst := prog.NewInstance(0)
	for _, v := range events {
		inst.Inject(src, v)
		inst.EndEvent()
	}
	for _, op := range g.Operators() {
		id := op.ID()
		want := counters[id]
		got := inst.OpTotal(id)
		if want == nil {
			if got.Total() != 0 {
				t.Fatalf("%s: compiled counted %v, legacy never invoked", op, got)
			}
			continue
		}
		if *got != *want {
			t.Fatalf("%s: compiled %v, legacy %v", op, got, want)
		}
		if inst.Invocations(id) != invocations[id] {
			t.Fatalf("%s: compiled invocations %d, legacy %d", op, inst.Invocations(id), invocations[id])
		}
	}
}

func TestExecutorPushExcludedReturnsError(t *testing.T) {
	g, _ := dataflow.DiamondGraph()
	ex := reference.NewExecutor(g, 0)
	ex.Include = func(op *dataflow.Operator) bool { return op.NS == dataflow.NSNode }
	if err := ex.Push(g.ByName("sink"), 0, 1); err == nil {
		t.Fatal("Push to excluded operator must error")
	}
	if err := ex.Push(g.ByName("a"), 0, 5); err != nil {
		t.Fatalf("Push to included operator errored: %v", err)
	}
}

// batchedGraph builds src → double → accum → tail → sink, where double is
// stateless with a BatchWork, accum is stateful with a BatchStateSafe
// BatchWork (a running sum, order-sensitive), and tail has no BatchWork
// (forcing batch entries to unpack through the per-element path). The sink
// is the server side, so compiling the node partition leaves tail → sink a
// cut edge for boundary capture.
func batchedGraph() (*dataflow.Graph, *dataflow.Operator) {
	g := dataflow.New()
	src := g.Add(&dataflow.Operator{Name: "src", NS: dataflow.NSNode, SideEffect: true})
	double := g.Add(&dataflow.Operator{Name: "double", NS: dataflow.NSNode,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			ctx.Counter.Add(cost.IntOp, 1)
			emit(v.(int) * 2)
		},
		BatchWork: func(ctx *dataflow.Ctx, _ int, vs []dataflow.Value, emit dataflow.EmitBatch) {
			ctx.Counter.Add(cost.IntOp, len(vs))
			out := make([]dataflow.Value, len(vs))
			for i, v := range vs {
				out[i] = v.(int) * 2
			}
			emit(out)
		}})
	accum := g.Add(&dataflow.Operator{Name: "accum", NS: dataflow.NSNode, Stateful: true,
		BatchStateSafe: true,
		NewState:       func() any { return new(int) },
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			ctx.Counter.Add(cost.IntOp, 1)
			s := ctx.State.(*int)
			*s += v.(int)
			emit(*s)
		},
		BatchWork: func(ctx *dataflow.Ctx, _ int, vs []dataflow.Value, emit dataflow.EmitBatch) {
			ctx.Counter.Add(cost.IntOp, len(vs))
			s := ctx.State.(*int)
			out := make([]dataflow.Value, len(vs))
			for i, v := range vs {
				*s += v.(int)
				out[i] = *s
			}
			emit(out)
		}})
	tail := g.Add(&dataflow.Operator{Name: "tail", NS: dataflow.NSNode,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			ctx.Counter.Add(cost.IntOp, 1)
			emit(v.(int) + 1)
		}})
	sink := g.Add(&dataflow.Operator{Name: "sink", NS: dataflow.NSServer, SideEffect: true,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {}})
	g.Chain(src, double, accum, tail, sink)
	return g, src
}

// TestBatchedParity runs the same event stream through the reference
// Executor and through (a) a deployment dataflow.Program fed element at a time,
// (b) a deployment dataflow.Program fed via InjectBatch and (c) a profiling dataflow.Program
// fed via InjectBatch, comparing the boundary capture streams, traversal
// counts, cost and invocation counts byte for byte — per operator, and
// with edge measurements, where the dataflow.Program profiles.
func TestBatchedParity(t *testing.T) {
	events := []dataflow.Value{1, 2, 3, 4, 5, 6, 7}
	include := func(op *dataflow.Operator) bool { return op.NS == dataflow.NSNode }

	type result struct {
		boundary  []string
		trav      int64
		total     cost.Counter
		invokes   map[string]int
		counters  map[string]cost.Counter // reference and profiling runs
		edgeStats []string                // reference and profiling runs
	}
	capture := func(r *result) func(*dataflow.Edge, dataflow.Value) {
		return func(e *dataflow.Edge, v dataflow.Value) { r.boundary = append(r.boundary, fmt.Sprintf("%s=%v", e, v)) }
	}
	// reference folds each event into the per-event edge peaks on its own,
	// or, when batched, the whole stream as one event (as InjectBatch
	// followed by one EndEvent does).
	reference := func(batched bool) result {
		g, src := batchedGraph()
		ex := reference.NewExecutor(g, 0)
		ex.Include = include
		r := result{invokes: map[string]int{}, counters: map[string]cost.Counter{}}
		ex.Boundary = capture(&r)
		counters := make(map[*dataflow.Operator]*cost.Counter)
		ex.CounterFor = func(op *dataflow.Operator) *cost.Counter {
			r.invokes[op.Name]++
			if counters[op] == nil {
				counters[op] = &cost.Counter{}
			}
			return counters[op]
		}
		n := g.NumEdges()
		bytes, elems, peak, event := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
		index := make(map[*dataflow.Edge]int)
		for i, e := range g.Edges() {
			index[e] = i
		}
		ex.OnEdge = func(e *dataflow.Edge, v dataflow.Value) {
			r.trav++
			i, size := index[e], int64(dataflow.WireSize(v))
			bytes[i] += size
			elems[i]++
			event[i] += size
		}
		endEvent := func() {
			for i := range event {
				peak[i] = max(peak[i], event[i])
				event[i] = 0
			}
		}
		for _, v := range events {
			ex.Inject(src, v)
			if !batched {
				endEvent()
			}
		}
		endEvent()
		for op, c := range counters {
			r.counters[op.Name] = *c
			r.total.AddCounter(c)
		}
		for i := range elems {
			if elems[i] > 0 {
				r.edgeStats = append(r.edgeStats, fmt.Sprintf("%d:%d/%d/%d", i, bytes[i], elems[i], peak[i]))
			}
		}
		return r
	}
	run := func(profile, batched bool) result {
		g, src := batchedGraph()
		prog, err := dataflow.Compile(g, dataflow.CompileOptions{Include: include, Profile: profile})
		if err != nil {
			t.Fatal(err)
		}
		inst := prog.NewInstance(0)
		r := result{invokes: map[string]int{}}
		if !profile {
			inst.SetCounter(&r.total)
		}
		inst.Boundary = capture(&r)
		if batched {
			inst.InjectBatch(src, events)
			inst.EndEvent()
		} else {
			for _, v := range events {
				inst.Inject(src, v)
				inst.EndEvent()
			}
		}
		r.trav = inst.Traversals()
		if !profile {
			prog.ReleaseInstance(inst) // folds the instance's batch-hit counters into the program
			for _, st := range prog.BatchStats() {
				r.invokes[st.Op.Name] = int(st.Total)
			}
			return r
		}
		r.counters = make(map[string]cost.Counter)
		for _, op := range g.Operators() {
			if c := inst.OpTotal(op.ID()); c != nil && c.Total() > 0 {
				r.counters[op.Name] = *c
				r.total.AddCounter(c)
			}
			if n := inst.Invocations(op.ID()); n > 0 {
				r.invokes[op.Name] = n
			}
		}
		for e := range g.Edges() {
			if bytes, elems, peak, seen := inst.EdgeStats(e); seen {
				r.edgeStats = append(r.edgeStats, fmt.Sprintf("%d:%d/%d/%d", e, bytes, elems, peak))
			}
		}
		return r
	}

	compare := map[string][2]result{
		"batched-seq":    {reference(false), run(false, false)},
		"batched-inject": {reference(true), run(false, true)},
		"profile-inject": {reference(true), run(true, true)},
	}
	for name, pair := range compare {
		ref, got := pair[0], pair[1]
		if fmt.Sprint(got.boundary) != fmt.Sprint(ref.boundary) {
			t.Errorf("%s boundary diverged:\nref: %v\ngot: %v", name, ref.boundary, got.boundary)
		}
		if got.trav != ref.trav {
			t.Errorf("%s traversals %d, ref %d", name, got.trav, ref.trav)
		}
		if got.total != ref.total {
			t.Errorf("%s cost %v, ref %v", name, got.total, ref.total)
		}
		if fmt.Sprint(got.invokes) != fmt.Sprint(ref.invokes) {
			t.Errorf("%s invocations diverged:\nref: %v\ngot: %v", name, ref.invokes, got.invokes)
		}
		if got.counters == nil {
			continue
		}
		if fmt.Sprint(got.counters) != fmt.Sprint(ref.counters) {
			t.Errorf("%s counters diverged:\nref: %v\ngot: %v", name, ref.counters, got.counters)
		}
		if fmt.Sprint(got.edgeStats) != fmt.Sprint(ref.edgeStats) {
			t.Errorf("%s edge stats diverged:\nref: %v\ngot: %v", name, ref.edgeStats, got.edgeStats)
		}
	}

	// The batch-injected run must actually have exercised BatchWork.
	stats := func() []dataflow.BatchStat {
		g, src := batchedGraph()
		prog, err := dataflow.Compile(g, dataflow.CompileOptions{Include: include})
		if err != nil {
			t.Fatal(err)
		}
		inst := prog.NewInstance(0)
		inst.InjectBatch(src, events)
		prog.ReleaseInstance(inst) // folds the instance's batch counters into the program
		return prog.BatchStats()
	}()
	hit := false
	for _, s := range stats {
		if s.Op.Name == "double" && s.Batched == int64(len(events)) && s.Total == int64(len(events)) {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("batch stats did not record a full batched run for double: %+v", stats)
	}
}

// TestPushBatchMatchesRepeatedPush covers mid-graph batch delivery — the
// runtime's server side pushes delivered values to the cut operator's input
// port — including a multi-port operator receiving interleaved batches,
// against the reference Executor's Push per element.
func TestPushBatchMatchesRepeatedPush(t *testing.T) {
	build := func() (*dataflow.Graph, *dataflow.Operator, *[]dataflow.Value) {
		g := dataflow.New()
		out := &[]dataflow.Value{}
		src := g.Add(&dataflow.Operator{Name: "src", NS: dataflow.NSNode, SideEffect: true})
		join := g.Add(&dataflow.Operator{Name: "join", NS: dataflow.NSServer, Stateful: true,
			BatchStateSafe: true,
			NewState:       func() any { return &[2][]int{} },
			Work: func(ctx *dataflow.Ctx, port int, v dataflow.Value, emit dataflow.Emit) {
				q := ctx.State.(*[2][]int)
				q[port] = append(q[port], v.(int))
				for len(q[0]) > 0 && len(q[1]) > 0 {
					emit(q[0][0] + q[1][0])
					q[0], q[1] = q[0][1:], q[1][1:]
				}
			},
			BatchWork: func(ctx *dataflow.Ctx, port int, vs []dataflow.Value, emit dataflow.EmitBatch) {
				q := ctx.State.(*[2][]int)
				var out []dataflow.Value
				for _, v := range vs {
					q[port] = append(q[port], v.(int))
					for len(q[0]) > 0 && len(q[1]) > 0 {
						out = append(out, q[0][0]+q[1][0])
						q[0], q[1] = q[0][1:], q[1][1:]
					}
				}
				emit(out)
			}})
		sink := g.Add(&dataflow.Operator{Name: "sink", NS: dataflow.NSServer, SideEffect: true,
			Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) { *out = append(*out, v) }})
		g.Connect(src, join, 0)
		g.Connect(src, join, 1)
		g.Connect(join, sink, 0)
		return g, g.ByName("join"), out
	}

	feed := [][2]any{{0, 1}, {0, 2}, {1, 10}, {1, 20}, {0, 3}, {1, 30}}

	g1, join1, out1 := build()
	ex := reference.NewExecutor(g1, 0)
	for _, f := range feed {
		if err := ex.Push(join1, f[0].(int), f[1]); err != nil {
			t.Fatal(err)
		}
	}

	g2, join2, out2 := build()
	prog2, err := dataflow.Compile(g2, dataflow.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in2 := prog2.NewInstance(0)
	// Same elements as consecutive same-port runs.
	if err := in2.PushBatch(join2, 0, []dataflow.Value{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := in2.PushBatch(join2, 1, []dataflow.Value{10, 20}); err != nil {
		t.Fatal(err)
	}
	if err := in2.PushBatch(join2, 0, []dataflow.Value{3}); err != nil {
		t.Fatal(err)
	}
	if err := in2.PushBatch(join2, 1, []dataflow.Value{30}); err != nil {
		t.Fatal(err)
	}

	if fmt.Sprint(*out1) != fmt.Sprint(*out2) {
		t.Fatalf("PushBatch diverged from the reference's repeated Push: %v vs %v", *out1, *out2)
	}
	if len(*out1) != 3 {
		t.Fatalf("expected 3 joined outputs, got %v", *out1)
	}
}
