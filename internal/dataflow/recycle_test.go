package dataflow_test

import (
	"strings"
	"testing"

	"wishbone/internal/apps/eeg"
	"wishbone/internal/apps/speech"
	"wishbone/internal/dataflow"
	"wishbone/internal/dataflow/reference"
)

// compileSides compiles both sides of a cut the way the runtime does.
func compileSides(t *testing.T, g *dataflow.Graph, onNode map[int]bool) (node, server *dataflow.Program) {
	t.Helper()
	side := func(nodeSide bool) *dataflow.Program {
		p, err := dataflow.Compile(g, dataflow.CompileOptions{
			Include: func(op *dataflow.Operator) bool { return onNode[op.ID()] == nodeSide },
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return side(true), side(false)
}

func speechCut(app *speech.App, prefix int) map[int]bool {
	on := make(map[int]bool)
	for i, op := range app.Pipeline {
		on[op.ID()] = i < prefix
	}
	return on
}

// TestRecycleTable pins which operators take their output frames from a
// recycled slab: exactly those with no cut out-edge whose every consumer
// Borrows. A producer into a consumer that keeps its input (the speech
// sink, EEG's queueing zip2/zipN) or into the cut (whose sender keeps the
// value across windows) stays fresh.
func TestRecycleTable(t *testing.T) {
	app := speech.New()
	for _, tc := range []struct {
		prefix  int
		recycle string // pipeline stages (source … sink) that recycle
	}{
		// The sink has no consumer, so nothing can see what it emits.
		{1, "preemph hamming prefilt FFT filtBank logs sink"},
		// filtBank feeds the cut; logs → cepstrals borrows; cepstrals
		// feeds the sink.
		{6, "preemph hamming prefilt FFT logs sink"},
		{8, "preemph hamming prefilt FFT filtBank logs sink"},
	} {
		node, server := compileSides(t, app.Graph, speechCut(app, tc.prefix))
		want := make(map[string]bool)
		for _, name := range strings.Fields(tc.recycle) {
			want[name] = true
		}
		for i, op := range app.Pipeline {
			p := server
			if i < tc.prefix {
				p = node
			}
			if got := p.Recycles(op); got != want[op.Name] {
				t.Errorf("speech cut %d: %s recycles = %v, want %v", tc.prefix, op.Name, got, want[op.Name])
			}
		}
	}

	ee := eeg.NewWithChannels(2)
	onNode := make(map[int]bool)
	for _, op := range ee.Graph.Operators() {
		onNode[op.ID()] = op.NS == dataflow.NSNode
	}
	node, server := compileSides(t, ee.Graph, onNode)
	// Keyed by the stage an operator name ends in. A FIR feeds zip2, which
	// queues its input in state; the magnitudes feed zipN, which does too;
	// zipAll feeds the cut; svm feeds the hand-written detect.
	stages := map[string]bool{
		"source": false, "scale": true, "getEven": true, "getOdd": true,
		"firEven": false, "firOdd": false, "zip2": true, "add": true,
		"level4": false, "level5": false, "level6": false, "zipN": false,
		"zipAll": false, "svm": false, "detect": false, "sink": true,
	}
	for _, op := range ee.Graph.Operators() {
		stage := op.Name[strings.LastIndex(op.Name, ".")+1:]
		want, ok := stages[stage]
		if !ok {
			t.Fatalf("eeg: no expectation for %s", op.Name)
		}
		p := server
		if onNode[op.ID()] {
			p = node
		}
		if got := p.Recycles(op); got != want {
			t.Errorf("eeg: %s recycles = %v, want %v", op.Name, got, want)
		}
	}
}

// frameGraph is src → a → b, where a emits a Frame of its input's length
// and reports it through seen, and b declares Borrows.
func frameGraph(seen func([]int16)) (g *dataflow.Graph, src, a *dataflow.Operator) {
	g = dataflow.New()
	src = g.Add(&dataflow.Operator{Name: "src", NS: dataflow.NSNode, SideEffect: true})
	a = g.Add(&dataflow.Operator{Name: "a", NS: dataflow.NSNode,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			in := v.([]int16)
			out := dataflow.Frame[int16](ctx, len(in))
			for i := range out {
				if out[i] != 0 {
					panic("Frame returned a frame that is not zeroed")
				}
				out[i] = in[i] + 1
			}
			seen(out)
			emit(out)
		}})
	b := g.Add(&dataflow.Operator{Name: "b", NS: dataflow.NSNode, Borrows: true,
		Work: func(*dataflow.Ctx, int, dataflow.Value, dataflow.Emit) {}})
	g.Chain(src, a, b)
	return g, src, a
}

// TestFrameRecyclesOnlyInTheEngine drives two runs through a compiled
// Instance, where a recycles (its one consumer Borrows), and through the
// reference Executor, which never recycles: only the Instance's second run
// may reuse the first run's storage, and within one run frames never share
// it.
func TestFrameRecyclesOnlyInTheEngine(t *testing.T) {
	var frames [][]int16
	g, src, a := frameGraph(func(f []int16) { frames = append(frames, f) })
	in := []int16{1, 2, 3}

	p, err := dataflow.Compile(g, dataflow.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Recycles(a) {
		t.Fatal("a's only consumer borrows, so a must recycle")
	}
	inst := p.NewInstance(0)
	inst.Inject(src, in)
	inst.Inject(src, in)
	if &frames[0][0] != &frames[1][0] {
		t.Error("engine: the second run did not reuse the first run's frame")
	}
	if cap(frames[1]) != len(in) {
		t.Errorf("engine: frame cap %d, want %d", cap(frames[1]), len(in))
	}

	frames = nil
	ex := reference.NewExecutor(g, 0)
	ex.Inject(src, in)
	ex.Inject(src, in)
	if &frames[0][0] == &frames[1][0] {
		t.Error("executor: two pushes shared one frame")
	}

	frames = nil
	p.ReleaseInstance(inst)
	inst = p.AcquireInstance(0)
	inst.InjectBatch(src, []dataflow.Value{in, in})
	if &frames[0][0] == &frames[1][0] {
		t.Error("engine: two frames of one run share storage")
	}
}

// TestEngineAllocatesOnlyFreshOutputs is the engine's allocation guard. A
// warm compiled speech server partition (cut 1: every stage relocated)
// takes a 40-frame PushBatch. Each of the seven kernel stages allocates
// its batch's outs slice and one interface box per frame, and cepstrals —
// whose consumer, the sink, does not borrow — one fresh slab; a recycling
// stage's frames cost nothing.
func TestEngineAllocatesOnlyFreshOutputs(t *testing.T) {
	app := speech.New()
	_, server := compileSides(t, app.Graph, speechCut(app, 1))
	frames := app.SampleTrace(1, 2).Events[:40]
	inst := server.NewInstance(0)
	preemph := app.Pipeline[1]
	push := func() {
		if err := inst.PushBatch(preemph, 0, frames); err != nil {
			t.Fatal(err)
		}
	}
	push() // warm the queues, the slabs and the workspaces
	const stages = 7
	limit := float64(stages*(len(frames)+1) + 1)
	if got := testing.AllocsPerRun(20, push); got > limit {
		t.Errorf("%v allocations per 40-frame push, want ≤ %v", got, limit)
	}
}

// TestBorrowsInjected pins the proof a streaming session's ingest arena
// reuses its blocks under: every operator a source's element reaches as
// itself — through Work-less forwarders and across any cut — Borrows it.
// Both apps' first stages are kernels, so the proof holds for them; a
// consumer that keeps its input breaks it, in front of a Work-less
// forwarder or not.
func TestBorrowsInjected(t *testing.T) {
	app := speech.New()
	if !dataflow.BorrowsInjected(app.Graph) {
		t.Error("speech: the source feeds preemph, a kernel that borrows")
	}
	if !dataflow.BorrowsInjected(eeg.NewWithChannels(2).Graph) {
		t.Error("eeg: every source feeds scale, a kernel that borrows")
	}
	carries := dataflow.InjectedEdges(app.Graph)
	for i, e := range app.Graph.Edges() {
		if want := e.From == app.Pipeline[0]; carries[i] != want {
			t.Errorf("speech: edge %v carries the arrival = %v, want %v", e, carries[i], want)
		}
	}

	keep := func(*dataflow.Ctx, int, dataflow.Value, dataflow.Emit) {}
	for _, tc := range []struct {
		name     string
		borrows  bool // the far consumer's declaration
		forward  bool // a Work-less operator between source and consumer
		want     bool
		carrying int // edges that carry the arrival
	}{
		{"borrowing consumer", true, false, true, 1},
		{"keeping consumer", false, false, false, 1},
		{"forwarder, borrowing consumer", true, true, true, 2},
		{"forwarder, keeping consumer", false, true, false, 2},
	} {
		g := dataflow.New()
		ops := []*dataflow.Operator{g.Add(&dataflow.Operator{Name: "src", NS: dataflow.NSNode, SideEffect: true})}
		if tc.forward {
			ops = append(ops, g.Add(&dataflow.Operator{Name: "fwd", NS: dataflow.NSServer}))
		}
		ops = append(ops,
			g.Add(&dataflow.Operator{Name: "use", NS: dataflow.NSServer, Borrows: tc.borrows, Work: func(_ *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) { emit(len(v.([]int16))) }}),
			g.Add(&dataflow.Operator{Name: "sink", NS: dataflow.NSServer, SideEffect: true, Work: keep}))
		g.Chain(ops...)
		if got := dataflow.BorrowsInjected(g); got != tc.want {
			t.Errorf("%s: BorrowsInjected = %v, want %v", tc.name, got, tc.want)
		}
		n := 0
		for _, c := range dataflow.InjectedEdges(g) {
			if c {
				n++
			}
		}
		if n != tc.carrying {
			t.Errorf("%s: %d edges carry the arrival, want %d", tc.name, n, tc.carrying)
		}
	}
}

// TestInstanceFreeList pins the Program's own free list: a released
// Instance comes back to the next acquire whichever goroutine asks, and
// the list keeps no more than MaxListedInstances however many were out at
// once.
func TestInstanceFreeList(t *testing.T) {
	app := speech.New()
	node, _ := compileSides(t, app.Graph, speechCut(app, 8))
	a, b := node.AcquireInstance(0), node.AcquireInstance(1)
	node.ReleaseInstance(a)
	node.ReleaseInstance(b)
	if got := node.ListedInstances(); got != 2 {
		t.Fatalf("%d listed after releasing two, want 2", got)
	}
	done := make(chan [2]*dataflow.Instance)
	go func() { done <- [2]*dataflow.Instance{node.AcquireInstance(2), node.AcquireInstance(3)} }()
	got := <-done
	if !(got[0] == b && got[1] == a) {
		t.Error("acquires on another goroutine did not get the released instances back, last released first")
	}
	if got[0].NodeID() != 2 || got[1].NodeID() != 3 {
		t.Errorf("recycled instances act as nodes %d, %d; want 2, 3", got[0].NodeID(), got[1].NodeID())
	}
	// A run over many origins holds one Instance each; releasing them
	// keeps the cap, not the peak.
	wide := make([]*dataflow.Instance, 4*dataflow.MaxListedInstances)
	wide[0], wide[1] = got[0], got[1]
	for i := 2; i < len(wide); i++ {
		wide[i] = node.AcquireInstance(i)
	}
	for _, in := range wide {
		node.ReleaseInstance(in)
	}
	if got := node.ListedInstances(); got != dataflow.MaxListedInstances {
		t.Errorf("%d listed after releasing %d, want MaxListedInstances %d", got, len(wide), dataflow.MaxListedInstances)
	}
	node.ReleaseInstance(node.NewInstance(0))
	if got := node.ListedInstances(); got != dataflow.MaxListedInstances {
		t.Errorf("%d listed after releasing one more, want MaxListedInstances %d", got, dataflow.MaxListedInstances)
	}
}
