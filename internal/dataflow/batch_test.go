package dataflow

import (
	"fmt"
	"testing"
)

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
