package eeg

import (
	"testing"

	"wishbone/internal/dataflow"
	"wishbone/internal/dataflow/reference"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
)

func TestGraphScale(t *testing.T) {
	app := New()
	if err := app.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	// 54 operators per channel (source, scale, 8 wavelet blocks of 6, 3
	// energies, zipN) + 4 global (zipAll, svm, detect, sink). The paper's
	// front end elaborates 1412; ours is the same structure at ~1.2k.
	want := Channels*54 + 4
	if n := app.Graph.NumOperators(); n != want {
		t.Fatalf("operators=%d want %d", n, want)
	}
	if len(app.Sources) != Channels {
		t.Fatalf("sources=%d want %d", len(app.Sources), Channels)
	}
}

func TestClassifyPermissiveVsConservative(t *testing.T) {
	app := NewWithChannels(2)
	perm, err := dataflow.Classify(app.Graph, dataflow.Permissive)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := dataflow.Classify(app.Graph, dataflow.Conservative)
	if err != nil {
		t.Fatal(err)
	}
	// Conservative pins the stateful FIR/zip operators to the node, so it
	// must have strictly fewer movable operators.
	movable := func(c *dataflow.Classification) (n int) {
		for _, p := range c.Place {
			if p == dataflow.Movable {
				n++
			}
		}
		return n
	}
	if movable(cons) >= movable(perm) {
		t.Fatalf("conservative movable %d should be < permissive %d", movable(cons), movable(perm))
	}
}

func TestFeatureVectorReachesSVM(t *testing.T) {
	app := NewWithChannels(Channels)
	var got []int
	// Tap the zipAll→svm edge by profiling and checking element sizes.
	rep, err := profile.Run(app.Graph, app.SampleTrace(3, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range app.Graph.Edges() {
		if e.To == app.SVM && rep.EdgeElems[e] > 0 {
			got = append(got, int(rep.EdgeBytes[e]/rep.EdgeElems[e]))
		}
	}
	if len(got) != 1 || got[0] != Channels*FeaturesPerChannel*4 {
		t.Fatalf("svm input sizes %v, want one edge of %d bytes",
			got, Channels*FeaturesPerChannel*4)
	}
}

func TestEveryLevelHalvesData(t *testing.T) {
	app := NewWithChannels(1)
	rep, err := profile.Run(app.Graph, app.SampleTrace(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	g := app.Graph
	// The output of each low-pass wavelet block halves: low1 emits 512B
	// (256 samples), low2 256B, low3 128B.
	wantBytes := map[string]int64{
		"ch00.low1.add": 512, "ch00.low2.add": 256, "ch00.low3.add": 128,
	}
	for name, want := range wantBytes {
		op := g.ByName(name)
		if op == nil {
			t.Fatalf("operator %s missing", name)
		}
		outs := g.Out(op)
		if len(outs) == 0 {
			t.Fatalf("operator %s has no outputs", name)
		}
		e := outs[0]
		if rep.EdgeElems[e] == 0 {
			t.Fatalf("edge %s idle", e)
		}
		per := rep.EdgeBytes[e] / rep.EdgeElems[e]
		if per != want {
			t.Errorf("%s: %d bytes/window, want %d", name, per, want)
		}
	}
}

func TestSeizureDetectorNeedsThreeConsecutive(t *testing.T) {
	g := dataflow.New()
	// Wire a standalone detector and feed it margins directly.
	app := NewWithChannels(1)
	detect := app.Detect
	_ = g
	ex := reference.NewExecutor(app.Graph, 0)
	var alarms int
	// Push margins straight into the detector's work function.
	ctx := &dataflow.Ctx{State: ex.State(detect)}
	emit := func(v dataflow.Value) { alarms++ }
	seq := []float32{1, 1, -1, 1, 1, 1, 1, -1, 1, 1, 1}
	for _, m := range seq {
		detect.Work(ctx, 0, m, emit)
	}
	// Runs: (1,1) broken, (1,1,1,1) → one alarm at the 3rd, (1,1,1) → one
	// alarm.
	if alarms != 2 {
		t.Fatalf("alarms=%d want 2", alarms)
	}
}

func TestSingleChannelFitsOnTMoteAtBaseRate(t *testing.T) {
	app := NewWithChannels(1)
	rep, err := profile.Run(app.Graph, app.SampleTrace(5, 16))
	if err != nil {
		t.Fatal(err)
	}
	tm := platform.TMoteSky()
	var cpu float64
	for id := range rep.OpTotal {
		cpu += rep.CPUCosts(tm)[id].Mean
	}
	// One channel's full cascade should consume a sizeable but sub-100%
	// fraction of the mote CPU at base rate, so that Figure 5(a)'s sweep
	// starts with everything fitting and degrades as rate scales up.
	if cpu <= 0.05 || cpu >= 1.0 {
		t.Fatalf("single-channel TMote CPU fraction %.3f, want within (0.05, 1)", cpu)
	}
	t.Logf("single-channel TMote CPU at base rate: %.1f%%", cpu*100)
}

func TestDetectStateIsolatedPerExecutor(t *testing.T) {
	app := NewWithChannels(1)
	ex1 := reference.NewExecutor(app.Graph, 1)
	ex2 := reference.NewExecutor(app.Graph, 2)
	st1 := ex1.State(app.Detect).(*detectState)
	st2 := ex2.State(app.Detect).(*detectState)
	st1.run = 2
	if st2.run != 0 {
		t.Fatal("executor states must be independent replicas")
	}
}
