package speech

import (
	"fmt"
	"testing"

	"wishbone/internal/cost"
	"wishbone/internal/dataflow"
)

// TestBatchedPipelineParity runs the same audio trace through the compiled
// node partition with and without batching and requires the cut-edge value
// stream (the cepstral vectors crossing to the server), per-op cost
// counters, invocation counts, and traversal totals to match exactly. The
// batched run must also report full batch coverage for the stateless
// kernels.
func TestBatchedPipelineParity(t *testing.T) {
	trace := New().SampleTrace(1, 1.0) // 40 frames
	include := func(op *dataflow.Operator) bool { return op.NS == dataflow.NSNode }

	type result struct {
		boundary []string
		trav     int64
		counters map[string]cost.Counter
		invokes  map[string]int
	}
	run := func(opts dataflow.CompileOptions) (result, *dataflow.Program) {
		app := New()
		opts.Include = include
		opts.CountOps = true
		prog, err := dataflow.Compile(app.Graph, opts)
		if err != nil {
			t.Fatal(err)
		}
		inst := prog.NewInstance(0)
		var r result
		inst.Boundary = func(e *dataflow.Edge, v dataflow.Value) {
			r.boundary = append(r.boundary, fmt.Sprintf("%s=%v", e, v))
		}
		inst.InjectBatch(app.Pipeline[0], trace.Events)
		inst.EndEvent()
		r.trav = inst.Traversals()
		r.counters = make(map[string]cost.Counter)
		r.invokes = make(map[string]int)
		for _, op := range app.Graph.Operators() {
			if c := inst.OpTotal(op.ID()); c != nil && c.Total() > 0 {
				r.counters[op.Name] = *c
			}
			if n := inst.Invocations(op.ID()); n > 0 {
				r.invokes[op.Name] = n
			}
		}
		inst.Reset(0)
		return r, prog
	}

	ref, _ := run(dataflow.CompileOptions{})
	got, prog := run(dataflow.CompileOptions{Batch: true})

	if len(ref.boundary) == 0 {
		t.Fatal("reference run produced no boundary traffic")
	}
	if fmt.Sprint(got.boundary) != fmt.Sprint(ref.boundary) {
		t.Errorf("boundary stream diverged (%d vs %d entries)", len(got.boundary), len(ref.boundary))
	}
	if got.trav != ref.trav {
		t.Errorf("traversals %d, ref %d", got.trav, ref.trav)
	}
	if fmt.Sprint(got.counters) != fmt.Sprint(ref.counters) {
		t.Errorf("counters diverged:\nref: %v\ngot: %v", ref.counters, got.counters)
	}
	if fmt.Sprint(got.invokes) != fmt.Sprint(ref.invokes) {
		t.Errorf("invocations diverged:\nref: %v\ngot: %v", ref.invokes, got.invokes)
	}

	// Every pipeline kernel (preemph through cepstrals) declares a
	// BatchWork; the single InjectBatch must have dispatched all of them
	// fully batched.
	stats := prog.BatchStats()
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
