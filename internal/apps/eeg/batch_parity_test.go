package eeg

import (
	"fmt"
	"testing"

	"wishbone/internal/cost"
	"wishbone/internal/dataflow"
)

// TestBatchedChannelParity runs identical multi-window traces through the
// node partition of a 2-channel graph with and without batching: the
// feature vectors crossing the zipAll→svm cut edge, per-op counters, and
// invocation counts must match exactly, and the batched run must report
// batch hits on the wavelet-cascade kernels.
func TestBatchedChannelParity(t *testing.T) {
	include := func(op *dataflow.Operator) bool { return op.NS == dataflow.NSNode }

	type result struct {
		boundary []string
		trav     int64
		counters map[string]cost.Counter
		invokes  map[string]int
	}
	run := func(opts dataflow.CompileOptions) (result, *dataflow.Program) {
		app := NewWithChannels(2)
		inputs := app.SampleTrace(3, 8) // 4 windows per channel
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
		for _, in := range inputs {
			inst.InjectBatch(in.Source, in.Events)
			inst.EndEvent()
		}
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
		t.Errorf("boundary stream diverged:\nref: %v\ngot: %v", ref.boundary, got.boundary)
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

	// The scale operator heads each channel; with whole-trace InjectBatch
	// it must have run fully batched.
	var scaleHit bool
	for _, s := range prog.BatchStats() {
		if s.Op.Name == "ch00.scale" || s.Op.Name == "ch01.scale" {
			if s.Batched != s.Total || s.Total == 0 {
				t.Errorf("%s: batched %d/%d, want full coverage", s.Op.Name, s.Batched, s.Total)
			}
			scaleHit = true
		}
	}
	if !scaleHit {
		t.Errorf("no scale operator in batch stats: %+v", prog.BatchStats())
	}
}

// TestSVMBatchDeliveryParity feeds the server-side classifier the same
// feature vectors via PushBatch and repeated Push — the delivery paths the
// runtime uses with and without batched delivery — and compares the margin
// stream crossing svm→detect plus the svm cost counter.
func TestSVMBatchDeliveryParity(t *testing.T) {
	mkVec := func(seed int) dataflow.Value {
		v := make(featVec, 2*FeaturesPerChannel)
		for i := range v {
			v[i] = float32(seed+i) * 0.1
		}
		return v
	}
	var vecs []dataflow.Value
	for i := 0; i < 6; i++ {
		vecs = append(vecs, mkVec(i))
	}

	run := func(batchPush bool) ([]string, cost.Counter) {
		app := NewWithChannels(2)
		// Include the server ops only up to svm so svm→detect is a cut
		// edge and its margins are observable.
		prog, err := dataflow.Compile(app.Graph, dataflow.CompileOptions{
			Include:  func(op *dataflow.Operator) bool { return op.Name != "detect" && op.Name != "sink" },
			CountOps: true,
			Batch:    true,
		})
		if err != nil {
			t.Fatal(err)
		}
		inst := prog.NewInstance(0)
		var margins []string
		inst.Boundary = func(e *dataflow.Edge, v dataflow.Value) {
			margins = append(margins, fmt.Sprintf("%v", v))
		}
		if batchPush {
			if err := inst.PushBatch(app.SVM, 0, append([]dataflow.Value(nil), vecs...)); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, v := range vecs {
				if err := inst.Push(app.SVM, 0, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		return margins, *inst.OpTotal(app.SVM.ID())
	}

	refMargins, refCost := run(false)
	gotMargins, gotCost := run(true)
	if len(refMargins) != len(vecs) {
		t.Fatalf("expected %d margins, got %v", len(vecs), refMargins)
	}
	if fmt.Sprint(gotMargins) != fmt.Sprint(refMargins) {
		t.Errorf("margins diverged:\nref: %v\ngot: %v", refMargins, gotMargins)
	}
	if gotCost != refCost {
		t.Errorf("svm counters diverged:\nref: %v\ngot: %v", refCost, gotCost)
	}
}
