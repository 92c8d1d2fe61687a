package speech

import (
	"fmt"
	"testing"

	"wishbone/internal/cost"
	"wishbone/internal/dataflow"
	"wishbone/internal/dataflow/reference"
)

// TestBatchedPipelineParity runs the same audio trace through the compiled
// node partition, batched, and through the reference Executor, element at
// a time, and requires the cut-edge value stream (the cepstral vectors
// crossing to the server), the shared cost counter, invocation counts, and
// traversal totals to match exactly. The batched run must also report full
// batch coverage for the stateless kernels.
func TestBatchedPipelineParity(t *testing.T) {
	trace := New().SampleTrace(1, 1.0) // 40 frames
	include := func(op *dataflow.Operator) bool { return op.NS == dataflow.NSNode }

	type result struct {
		boundary []string
		trav     int64
		counter  cost.Counter
		invokes  map[string]int
	}
	capture := func(r *result) func(*dataflow.Edge, dataflow.Value) {
		return func(e *dataflow.Edge, v dataflow.Value) {
			r.boundary = append(r.boundary, fmt.Sprintf("%s=%v", e, v))
		}
	}

	app := New()
	ex := reference.NewExecutor(app.Graph, 0)
	ex.Include = include
	ref := result{invokes: map[string]int{}}
	ex.Boundary = capture(&ref)
	ex.OnEdge = func(*dataflow.Edge, dataflow.Value) { ref.trav++ }
	ex.CounterFor = func(op *dataflow.Operator) *cost.Counter {
		ref.invokes[op.Name]++
		return &ref.counter
	}
	for _, v := range trace.Events {
		ex.Inject(app.Pipeline[0], v)
	}

	app = New()
	prog, err := dataflow.Compile(app.Graph, dataflow.CompileOptions{Include: include})
	if err != nil {
		t.Fatal(err)
	}
	inst := prog.NewInstance(0)
	got := result{invokes: map[string]int{}}
	inst.Boundary = capture(&got)
	inst.SetCounter(&got.counter)
	inst.InjectBatch(app.Pipeline[0], trace.Events)
	got.trav = inst.Traversals()
	prog.ReleaseInstance(inst) // folds the instance's batch-hit counters into the program
	stats := prog.BatchStats()
	for _, s := range stats {
		got.invokes[s.Op.Name] = int(s.Total)
	}

	if len(ref.boundary) == 0 {
		t.Fatal("reference run produced no boundary traffic")
	}
	if fmt.Sprint(got.boundary) != fmt.Sprint(ref.boundary) {
		t.Errorf("boundary stream diverged (%d vs %d entries)", len(got.boundary), len(ref.boundary))
	}
	if got.trav != ref.trav {
		t.Errorf("traversals %d, ref %d", got.trav, ref.trav)
	}
	if got.counter != ref.counter {
		t.Errorf("counter diverged:\nref: %v\ngot: %v", ref.counter, got.counter)
	}
	if fmt.Sprint(got.invokes) != fmt.Sprint(ref.invokes) {
		t.Errorf("invocations diverged:\nref: %v\ngot: %v", ref.invokes, got.invokes)
	}

	// Every pipeline kernel (preemph through cepstrals) declares a
	// BatchWork; the single InjectBatch must have dispatched all of them
	// fully batched.
	want := int64(len(trace.Events))
	seen := make(map[string]bool)
	for _, s := range stats {
		seen[s.Op.Name] = true
		if s.Batched != want || s.Total != want {
			t.Errorf("%s: batched %d/%d, want %d/%d", s.Op.Name, s.Batched, s.Total, want, want)
		}
	}
	for _, name := range []string{"preemph", "hamming", "prefilt", "FFT", "filtBank", "logs", "cepstrals"} {
		if !seen[name] {
			t.Errorf("%s missing from batch stats: %+v", name, stats)
		}
	}
}
