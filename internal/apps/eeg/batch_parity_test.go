package eeg

import (
	"fmt"
	"testing"

	"wishbone/internal/cost"
	"wishbone/internal/dataflow"
	"wishbone/internal/dataflow/reference"
)

// TestBatchedChannelParity runs identical multi-window traces through the
// node partition of a 2-channel graph, batched, and through the reference
// Executor, element at a time: the feature vectors crossing the zipAll→svm
// cut edge, the shared cost counter per channel trace, traversals and
// invocation counts must match exactly, and the batched run must report
// batch hits on the wavelet-cascade kernels.
func TestBatchedChannelParity(t *testing.T) {
	include := func(op *dataflow.Operator) bool { return op.NS == dataflow.NSNode }

	type result struct {
		boundary []string
		trav     int64
		counters []cost.Counter // one per channel trace
		invokes  map[string]int
	}
	capture := func(r *result) func(*dataflow.Edge, dataflow.Value) {
		return func(e *dataflow.Edge, v dataflow.Value) {
			r.boundary = append(r.boundary, fmt.Sprintf("%s=%v", e, v))
		}
	}

	app := NewWithChannels(2)
	inputs := app.SampleTrace(3, 8) // 4 windows per channel
	ex := reference.NewExecutor(app.Graph, 0)
	ex.Include = include
	ref := result{invokes: map[string]int{}}
	ex.Boundary = capture(&ref)
	ex.OnEdge = func(*dataflow.Edge, dataflow.Value) { ref.trav++ }
	var counter cost.Counter
	ex.CounterFor = func(op *dataflow.Operator) *cost.Counter {
		ref.invokes[op.Name]++
		return &counter
	}
	for _, in := range inputs {
		for _, v := range in.Events {
			ex.Inject(in.Source, v)
		}
		ref.counters = append(ref.counters, counter)
		counter = cost.Counter{}
	}

	app = NewWithChannels(2)
	inputs = app.SampleTrace(3, 8)
	prog, err := dataflow.Compile(app.Graph, dataflow.CompileOptions{Include: include})
	if err != nil {
		t.Fatal(err)
	}
	inst := prog.NewInstance(0)
	got := result{invokes: map[string]int{}}
	inst.Boundary = capture(&got)
	inst.SetCounter(&counter)
	for _, in := range inputs {
		inst.InjectBatch(in.Source, in.Events)
		got.counters = append(got.counters, counter)
		counter = cost.Counter{}
	}
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
	for _, s := range stats {
		if s.Op.Name == "ch00.scale" || s.Op.Name == "ch01.scale" {
			if s.Batched != s.Total || s.Total == 0 {
				t.Errorf("%s: batched %d/%d, want full coverage", s.Op.Name, s.Batched, s.Total)
			}
			scaleHit = true
		}
	}
	if !scaleHit {
		t.Errorf("no scale operator in batch stats: %+v", stats)
	}
}

// TestSVMBatchDeliveryParity feeds the server-side classifier the same
// feature vectors via PushBatch — the runtime's delivery path — and via the
// reference Executor's repeated Push, and compares the margin stream
// crossing svm→detect plus the svm cost counter.
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

	// Include the server ops only up to svm so svm→detect is a cut edge
	// and its margins are observable.
	include := func(op *dataflow.Operator) bool { return op.Name != "detect" && op.Name != "sink" }
	capture := func(margins *[]string) func(*dataflow.Edge, dataflow.Value) {
		return func(e *dataflow.Edge, v dataflow.Value) { *margins = append(*margins, fmt.Sprintf("%v", v)) }
	}

	app := NewWithChannels(2)
	ex := reference.NewExecutor(app.Graph, 0)
	ex.Include = include
	var refMargins []string
	var refCost cost.Counter
	ex.Boundary = capture(&refMargins)
	ex.CounterFor = func(*dataflow.Operator) *cost.Counter { return &refCost }
	for _, v := range vecs {
		if err := ex.Push(app.SVM, 0, v); err != nil {
			t.Fatal(err)
		}
	}

	app = NewWithChannels(2)
	prog, err := dataflow.Compile(app.Graph, dataflow.CompileOptions{Include: include})
	if err != nil {
		t.Fatal(err)
	}
	inst := prog.NewInstance(0)
	var gotMargins []string
	var gotCost cost.Counter
	inst.Boundary = capture(&gotMargins)
	inst.SetCounter(&gotCost)
	if err := inst.PushBatch(app.SVM, 0, append([]dataflow.Value(nil), vecs...)); err != nil {
		t.Fatal(err)
	}

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
