package wishbone

import (
	"context"
	"math"
	"strings"
	"testing"

	"wishbone/internal/apps/speech"
	"wishbone/internal/cost"
)

// buildTestProgram returns a small reducing pipeline and its sample inputs.
func buildTestProgram(heavyOps int) (*Graph, []Input) {
	g := NewGraph()
	src := g.Add(&Operator{Name: "sensor", NS: NSNode, SideEffect: true})
	crunch := g.Add(&Operator{
		Name: "crunch", NS: NSNode,
		Work: func(ctx *Ctx, _ int, v Value, emit Emit) {
			ctx.Counter.Add(cost.FloatMul, heavyOps)
			emit([]float32{1, 2}) // 8 bytes out of 200 in
		},
	})
	out := g.Add(&Operator{Name: "log", NS: NSServer, SideEffect: true,
		Work: func(ctx *Ctx, _ int, v Value, emit Emit) {}})
	g.Chain(src, crunch, out)

	events := make([]Value, 40)
	for i := range events {
		events[i] = make([]int16, 100) // 200 bytes per event
	}
	return g, []Input{{Source: src, Events: events, Rate: 4}}
}

func TestAutoPartitionFitsLightProgram(t *testing.T) {
	g, inputs := buildTestProgram(500)
	dep, err := NewPlanner().AutoPartition(context.Background(), g, inputs, TMoteSky())
	if err != nil {
		t.Fatal(err)
	}
	if !dep.FitsAtFullRate() {
		t.Fatalf("light program should fit at full rate (got ×%v)", dep.RateMultiple)
	}
	// The cruncher reduces 800 B/s to 32 B/s: with β=1 it belongs on the
	// node.
	if !dep.Assignment.OnNode[g.ByName("crunch").ID()] {
		t.Error("data-reducing operator should run on the node")
	}
	if err := dep.Assignment.Verify(dep.Spec); err != nil {
		t.Fatal(err)
	}
}

func TestAutoPartitionShedsLoadWhenOverloaded(t *testing.T) {
	// 40M fmul per event at 4 events/s is ~40× the TMote CPU, and raw
	// forwarding (800 B/s) exceeds the 450 B/s radio: the program cannot
	// fit at full rate, so AutoPartition must shed load.
	g, inputs := buildTestProgram(40_000_000)
	dep, err := NewPlanner().AutoPartition(context.Background(), g, inputs, TMoteSky())
	if err != nil {
		t.Fatal(err)
	}
	if dep.FitsAtFullRate() {
		t.Fatal("overloaded program reported as fitting")
	}
	if dep.RateMultiple <= 0 || dep.RateMultiple >= 1 {
		t.Fatalf("rate multiple %v out of (0,1)", dep.RateMultiple)
	}
	// The partition at the reduced rate must satisfy the budgets.
	scaled := dep.Spec.Scaled(dep.RateMultiple)
	if err := dep.Assignment.Verify(scaled); err != nil {
		t.Fatal(err)
	}
}

func TestAutoPartitionPlatformChangesDecision(t *testing.T) {
	g, inputs := buildTestProgram(2_000_000) // 0.5 s/event on a TMote, trivial on a Gumstix
	tm, err := NewPlanner().AutoPartition(context.Background(), g, inputs, TMoteSky())
	if err != nil {
		t.Fatal(err)
	}
	gx, err := NewPlanner().AutoPartition(context.Background(), g, inputs, Gumstix())
	if err != nil {
		t.Fatal(err)
	}
	if !gx.FitsAtFullRate() {
		t.Fatal("Gumstix should fit the program at full rate")
	}
	if !gx.Assignment.OnNode[g.ByName("crunch").ID()] {
		t.Error("Gumstix should crunch on the node")
	}
	// On the TMote the cruncher cannot run at full rate: either the rate
	// drops or the work moves to the server. Both are valid; they must
	// differ from the Gumstix outcome.
	if tm.FitsAtFullRate() && tm.Assignment.OnNode[g.ByName("crunch").ID()] {
		t.Error("TMote cannot crunch 2M fmul per event at full rate")
	}
}

func TestSimulateEndToEnd(t *testing.T) {
	g, inputs := buildTestProgram(500)
	dep, err := NewPlanner().AutoPartition(context.Background(), g, inputs, TMoteSky())
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewPlanner().Simulate(context.Background(), dep, TMoteSky(), 3, 20, func(nodeID int) []Input {
		gTrace, in := buildTestProgram(500)
		_ = gTrace
		// Re-point the trace at this graph's source.
		in[0].Source = g.ByName("sensor")
		return in
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.PercentInputProcessed() < 99 {
		t.Fatalf("light load processed only %.1f%%", res.PercentInputProcessed())
	}
	if res.Goodput() < 50 {
		t.Fatalf("goodput %.1f%%, expected healthy deployment", res.Goodput())
	}
}

func TestDeploymentDOT(t *testing.T) {
	g, inputs := buildTestProgram(500)
	dep, err := NewPlanner().AutoPartition(context.Background(), g, inputs, TMoteSky())
	if err != nil {
		t.Fatal(err)
	}
	dot := dep.DOT("test")
	for _, want := range []string{"digraph", "sensor", "crunch", "shape=box"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestNetworkProfile(t *testing.T) {
	maxAir, err := NewPlanner().NetworkProfile(context.Background(), TMoteSky(), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if maxAir <= 0 {
		t.Fatal("no sustainable send rate")
	}
}

func TestAutoPartitionSpeechMatchesPaperStory(t *testing.T) {
	// End-to-end: the full speech app through the public API on a TMote
	// must shed load and land at an intermediate cutpoint.
	app := speech.New()
	dep, err := NewPlanner().AutoPartition(context.Background(), app.Graph, []Input{app.SampleTrace(1, 2)}, TMoteSky())
	if err != nil {
		t.Fatal(err)
	}
	if dep.FitsAtFullRate() {
		t.Fatal("the MFCC pipeline cannot fit a TMote at 8 kHz (§6.2.2)")
	}
	events := dep.RateMultiple * speech.FrameRate
	if events < 1 || events > 8 {
		t.Fatalf("sustainable rate %.2f events/s, paper ≈3", events)
	}
	onNode := dep.Assignment.NodeOperatorCount()
	if onNode <= 1 || onNode >= len(app.Pipeline) {
		t.Fatalf("expected an intermediate cut, got %d ops on node", onNode)
	}
}

func TestAutoPartitionValidatesPlatform(t *testing.T) {
	g, inputs := buildTestProgram(10)
	bad := TMoteSky()
	bad.ClockHz = 0
	if _, err := NewPlanner().AutoPartition(context.Background(), g, inputs, bad); err == nil {
		t.Fatal("invalid platform must be rejected")
	}
	if math.IsNaN(bad.ClockHz) {
		t.Fatal("unreachable")
	}
}
