package dataflow

import (
	"fmt"
	"testing"

	"wishbone/internal/cost"
)

// batchedGraph builds src → double → accum → tail → sink, where double is
// stateless with a BatchWork, accum is stateful with a BatchStateSafe
// BatchWork (a running sum, order-sensitive), and tail has no BatchWork
// (forcing batch entries to unpack through the per-element path). The sink
// is the server side, so compiling the node partition leaves tail → sink a
// cut edge for boundary capture.
func batchedGraph() (*Graph, *Operator) {
	g := New()
	src := g.Add(&Operator{Name: "src", NS: NSNode, SideEffect: true})
	double := g.Add(&Operator{Name: "double", NS: NSNode,
		Work: func(ctx *Ctx, _ int, v Value, emit Emit) {
			ctx.Counter.Add(cost.IntOp, 1)
			emit(v.(int) * 2)
		},
		BatchWork: func(ctx *Ctx, _ int, vs []Value, emit EmitBatch) {
			ctx.Counter.Add(cost.IntOp, len(vs))
			out := make([]Value, len(vs))
			for i, v := range vs {
				out[i] = v.(int) * 2
			}
			emit(out)
		}})
	accum := g.Add(&Operator{Name: "accum", NS: NSNode, Stateful: true,
		BatchStateSafe: true,
		NewState:       func() any { return new(int) },
		Work: func(ctx *Ctx, _ int, v Value, emit Emit) {
			ctx.Counter.Add(cost.IntOp, 1)
			s := ctx.State.(*int)
			*s += v.(int)
			emit(*s)
		},
		BatchWork: func(ctx *Ctx, _ int, vs []Value, emit EmitBatch) {
			ctx.Counter.Add(cost.IntOp, len(vs))
			s := ctx.State.(*int)
			out := make([]Value, len(vs))
			for i, v := range vs {
				*s += v.(int)
				out[i] = *s
			}
			emit(out)
		}})
	tail := g.Add(&Operator{Name: "tail", NS: NSNode,
		Work: func(ctx *Ctx, _ int, v Value, emit Emit) {
			ctx.Counter.Add(cost.IntOp, 1)
			emit(v.(int) + 1)
		}})
	sink := g.Add(&Operator{Name: "sink", NS: NSServer, SideEffect: true,
		Work: func(ctx *Ctx, _ int, v Value, emit Emit) {}})
	g.Chain(src, double, accum, tail, sink)
	return g, src
}

func TestBatchCapableClassification(t *testing.T) {
	work := func(ctx *Ctx, _ int, v Value, emit Emit) {}
	bwork := func(ctx *Ctx, _ int, vs []Value, emit EmitBatch) {}
	cases := []struct {
		name string
		op   *Operator
		want bool
	}{
		{"stateless with BatchWork", &Operator{Work: work, BatchWork: bwork}, true},
		{"stateless without BatchWork", &Operator{Work: work}, false},
		{"source (no Work)", &Operator{BatchWork: bwork}, false},
		{"stateful without opt-in", &Operator{Stateful: true, Work: work, BatchWork: bwork}, false},
		{"stateful server opt-in", &Operator{NS: NSServer, Stateful: true, BatchStateSafe: true, Work: work, BatchWork: bwork}, true},
		{"stateful node opt-in", &Operator{NS: NSNode, Stateful: true, BatchStateSafe: true, Work: work, BatchWork: bwork}, true},
	}
	for _, c := range cases {
		if got := BatchCapable(c.op); got != c.want {
			t.Errorf("%s: BatchCapable = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestStateSafeNodeOpBatches pins the compile-level half of the
// classification rule: a deployment Program dispatches a stateful
// Node-namespace operator that opted in with BatchStateSafe through its
// BatchWork when input arrives as one batch.
func TestStateSafeNodeOpBatches(t *testing.T) {
	g := New()
	batchCalls, elemCalls := 0, 0
	src := g.Add(&Operator{Name: "src", NS: NSNode, SideEffect: true})
	st := g.Add(&Operator{Name: "st", NS: NSNode, Stateful: true,
		BatchStateSafe: true,
		NewState:       func() any { return new(int) },
		Work: func(ctx *Ctx, _ int, v Value, emit Emit) {
			elemCalls++
			emit(v)
		},
		BatchWork: func(ctx *Ctx, _ int, vs []Value, emit EmitBatch) {
			batchCalls++
			out := make([]Value, len(vs))
			copy(out, vs)
			emit(out)
		}})
	g.Connect(src, st, 0)

	prog, err := Compile(g, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prog.NewInstance(0).InjectBatch(src, []Value{1, 2, 3})
	if batchCalls != 1 || elemCalls != 0 {
		t.Fatalf("batch=%d elem=%d, want 1/0", batchCalls, elemCalls)
	}
}

// TestBatchedParity runs the same event stream through the reference
// Executor and through (a) a deployment Program fed element at a time,
// (b) a deployment Program fed via InjectBatch and (c) a profiling Program
// fed via InjectBatch, comparing the boundary capture streams, traversal
// counts, cost and invocation counts byte for byte — per operator, and
// with edge measurements, where the Program profiles.
func TestBatchedParity(t *testing.T) {
	events := []Value{1, 2, 3, 4, 5, 6, 7}
	include := func(op *Operator) bool { return op.NS == NSNode }

	type result struct {
		boundary  []string
		trav      int64
		total     cost.Counter
		invokes   map[string]int
		counters  map[string]cost.Counter // reference and profiling runs
		edgeStats []string                // reference and profiling runs
	}
	capture := func(r *result) func(*Edge, Value) {
		return func(e *Edge, v Value) { r.boundary = append(r.boundary, fmt.Sprintf("%s=%v", e, v)) }
	}
	// reference folds each event into the per-event edge peaks on its own,
	// or, when batched, the whole stream as one event (as InjectBatch
	// followed by one EndEvent does).
	reference := func(batched bool) result {
		g, src := batchedGraph()
		ex := NewExecutor(g, 0)
		ex.Include = include
		r := result{invokes: map[string]int{}, counters: map[string]cost.Counter{}}
		ex.Boundary = capture(&r)
		counters := make(map[*Operator]*cost.Counter)
		ex.CounterFor = func(op *Operator) *cost.Counter {
			r.invokes[op.Name]++
			if counters[op] == nil {
				counters[op] = &cost.Counter{}
			}
			return counters[op]
		}
		n := g.NumEdges()
		bytes, elems, peak, event := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
		index := make(map[*Edge]int)
		for i, e := range g.Edges() {
			index[e] = i
		}
		ex.OnEdge = func(e *Edge, v Value) {
			r.trav++
			i, size := index[e], int64(WireSize(v))
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
		prog, err := Compile(g, CompileOptions{Include: include, Profile: profile})
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
	stats := func() []BatchStat {
		g, src := batchedGraph()
		prog, err := Compile(g, CompileOptions{Include: include})
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
	build := func() (*Graph, *Operator, *[]Value) {
		g := New()
		out := &[]Value{}
		src := g.Add(&Operator{Name: "src", NS: NSNode, SideEffect: true})
		join := g.Add(&Operator{Name: "join", NS: NSServer, Stateful: true,
			BatchStateSafe: true,
			NewState:       func() any { return &[2][]int{} },
			Work: func(ctx *Ctx, port int, v Value, emit Emit) {
				q := ctx.State.(*[2][]int)
				q[port] = append(q[port], v.(int))
				for len(q[0]) > 0 && len(q[1]) > 0 {
					emit(q[0][0] + q[1][0])
					q[0], q[1] = q[0][1:], q[1][1:]
				}
			},
			BatchWork: func(ctx *Ctx, port int, vs []Value, emit EmitBatch) {
				q := ctx.State.(*[2][]int)
				var out []Value
				for _, v := range vs {
					q[port] = append(q[port], v.(int))
					for len(q[0]) > 0 && len(q[1]) > 0 {
						out = append(out, q[0][0]+q[1][0])
						q[0], q[1] = q[0][1:], q[1][1:]
					}
				}
				emit(out)
			}})
		sink := g.Add(&Operator{Name: "sink", NS: NSServer, SideEffect: true,
			Work: func(ctx *Ctx, _ int, v Value, emit Emit) { *out = append(*out, v) }})
		g.Connect(src, join, 0)
		g.Connect(src, join, 1)
		g.Connect(join, sink, 0)
		return g, g.ByName("join"), out
	}

	feed := [][2]any{{0, 1}, {0, 2}, {1, 10}, {1, 20}, {0, 3}, {1, 30}}

	g1, join1, out1 := build()
	ex := NewExecutor(g1, 0)
	for _, f := range feed {
		if err := ex.Push(join1, f[0].(int), f[1]); err != nil {
			t.Fatal(err)
		}
	}

	g2, join2, out2 := build()
	prog2, err := Compile(g2, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in2 := prog2.NewInstance(0)
	// Same elements as consecutive same-port runs.
	if err := in2.PushBatch(join2, 0, []Value{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := in2.PushBatch(join2, 1, []Value{10, 20}); err != nil {
		t.Fatal(err)
	}
	if err := in2.PushBatch(join2, 0, []Value{3}); err != nil {
		t.Fatal(err)
	}
	if err := in2.PushBatch(join2, 1, []Value{30}); err != nil {
		t.Fatal(err)
	}

	if fmt.Sprint(*out1) != fmt.Sprint(*out2) {
		t.Fatalf("PushBatch diverged from the reference's repeated Push: %v vs %v", *out1, *out2)
	}
	if len(*out1) != 3 {
		t.Fatalf("expected 3 joined outputs, got %v", *out1)
	}
}

// TestInjectBatchReentrantEmit is the regression test for the queue-drain
// aliasing bug: a work function that re-enters the scheduler mid-drain
// (Inject from inside an emit path) whose fan-out reaches the operator
// currently being drained. The drain loop used to truncate the queue with
// items[:0] while keeping the backing array, so the re-entrant enqueue
// landed in items[0] and the post-work zeroing pass destroyed it — the
// value was later delivered as nil. The drain must instead transfer
// ownership of the backing array for its duration.
func TestInjectBatchReentrantEmit(t *testing.T) {
	build := func() (*Graph, *Operator, *[]Value, **Instance) {
		g := New()
		out := &[]Value{}
		instp := new(*Instance)
		src := g.Add(&Operator{Name: "src", NS: NSNode, SideEffect: true})
		echo := g.Add(&Operator{Name: "echo", NS: NSNode,
			Work: func(ctx *Ctx, _ int, v Value, emit Emit) {
				// Re-enter on the sentinel: mid-drain of echo's own queue,
				// inject another source event whose fan-out reaches echo.
				if v.(int) == 2 {
					(*instp).Inject(g.ByName("src"), 100)
				}
				emit(v)
			}})
		capture := g.Add(&Operator{Name: "capture", NS: NSNode,
			Work: func(ctx *Ctx, _ int, v Value, emit Emit) { *out = append(*out, v) }})
		g.Connect(src, echo, 0)
		g.Connect(echo, capture, 0)
		return g, src, out, instp
	}

	// The reference Executor runs a re-entrant Inject depth first, so its
	// order differs by design; both kinds of Program, element-at-a-time
	// profiling and batch-dispatching deployment, drain it in schedule order.
	for _, profile := range []bool{false, true} {
		// Sequential injection: the re-entrant event is enqueued while
		// echo's single-item queue is mid-drain.
		g1, src1, out1, ip1 := build()
		prog1, err := Compile(g1, CompileOptions{Profile: profile})
		if err != nil {
			t.Fatal(err)
		}
		in1 := prog1.NewInstance(0)
		*ip1 = in1
		in1.Inject(src1, 1)
		in1.Inject(src1, 2)

		// Batched injection: the re-entrant event is enqueued while echo is
		// draining a multi-item batch.
		g2, src2, out2, ip2 := build()
		prog2, err := Compile(g2, CompileOptions{Profile: profile})
		if err != nil {
			t.Fatal(err)
		}
		in2 := prog2.NewInstance(0)
		*ip2 = in2
		in2.InjectBatch(src2, []Value{1, 2})

		want := fmt.Sprint([]Value{1, 2, 100})
		if got := fmt.Sprint(*out1); got != want {
			t.Fatalf("profile=%v sequential inject: captured %v, want %v", profile, got, want)
		}
		if got := fmt.Sprint(*out2); got != want {
			t.Fatalf("profile=%v InjectBatch: captured %v, want %v", profile, got, want)
		}
	}
}
