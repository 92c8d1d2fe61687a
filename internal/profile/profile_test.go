package profile

import (
	"context"
	"testing"

	"wishbone/internal/core"
	"wishbone/internal/cost"
	"wishbone/internal/dataflow"
	"wishbone/internal/platform"
)

// buildChain makes src → heavy → reduce → sink where heavy burns fmuls and
// reduce shrinks elements 10×.
func buildChain() (*dataflow.Graph, *dataflow.Operator) {
	g := dataflow.New()
	src := g.Add(&dataflow.Operator{Name: "src", NS: dataflow.NSNode, SideEffect: true})
	heavy := g.Add(&dataflow.Operator{Name: "heavy", NS: dataflow.NSNode,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			ctx.Counter.Add(cost.FloatMul, 1000)
			emit(v)
		}})
	reduce := g.Add(&dataflow.Operator{Name: "reduce", NS: dataflow.NSNode,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			in := v.([]byte)
			ctx.Counter.Add(cost.Load, len(in))
			emit(in[:len(in)/10])
		}})
	sink := g.Add(&dataflow.Operator{Name: "sink", NS: dataflow.NSServer, SideEffect: true,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {}})
	g.Chain(src, heavy, reduce, sink)
	return g, src
}

func run(t *testing.T, nEvents int) (*Report, *dataflow.Graph) {
	t.Helper()
	g, src := buildChain()
	events := make([]dataflow.Value, nEvents)
	for i := range events {
		events[i] = make([]byte, 100)
	}
	rep, err := Run(g, []Input{{Source: src, Events: events, Rate: 10}})
	if err != nil {
		t.Fatal(err)
	}
	return rep, g
}

func TestRunMeasuresEdges(t *testing.T) {
	rep, g := run(t, 20)
	if rep.Seconds != 2.0 {
		t.Fatalf("seconds=%v want 2 (20 events at 10/s)", rep.Seconds)
	}
	// src→heavy carries 100 B × 20; reduce→sink carries 10 B × 20.
	e0, e2 := g.Edges()[0], g.Edges()[2]
	if rep.EdgeBytes[e0] != 2000 || rep.EdgeElems[e0] != 20 {
		t.Fatalf("edge0: %d B in %d elems", rep.EdgeBytes[e0], rep.EdgeElems[e0])
	}
	if rep.EdgeBytes[e2] != 200 {
		t.Fatalf("edge2: %d B", rep.EdgeBytes[e2])
	}
	bws := rep.Bandwidths()
	if bws[e0].Mean != 1000 {
		t.Fatalf("edge0 bandwidth %v want 1000 B/s", bws[e0].Mean)
	}
	if bws[e2].Mean != 100 {
		t.Fatalf("edge2 bandwidth %v want 100 B/s", bws[e2].Mean)
	}
}

func TestCPUCostsScaleWithPlatform(t *testing.T) {
	rep, g := run(t, 10)
	heavy := g.ByName("heavy")
	slow := rep.CPUCosts(platform.TMoteSky())[heavy.ID()]
	fast := rep.CPUCosts(platform.Server())[heavy.ID()]
	if slow.Mean <= fast.Mean {
		t.Fatal("the mote must price the same op counts higher than the server")
	}
	if slow.Peak < slow.Mean {
		t.Fatal("peak must be ≥ mean")
	}
}

func TestOpSecondsPerInvocation(t *testing.T) {
	rep, g := run(t, 10)
	heavy := g.ByName("heavy")
	tm := platform.TMoteSky()
	want := 1000 * tm.CyclesPerOp[cost.FloatMul] / tm.ClockHz
	if got := rep.OpSeconds(tm, heavy.ID()); got < want*0.99 || got > want*1.01 {
		t.Fatalf("OpSeconds=%v want %v", got, want)
	}
}

func TestBuildSpecWiresBudgets(t *testing.T) {
	rep, g := run(t, 10)
	cls, err := dataflow.Classify(g, dataflow.Conservative)
	if err != nil {
		t.Fatal(err)
	}
	p := platform.TMoteSky()
	spec := BuildSpec(cls, rep, p)
	if spec.CPUBudget != 1.0 {
		t.Fatalf("CPU budget %v", spec.CPUBudget)
	}
	if spec.NetBudget != p.Radio.BytesPerSec {
		t.Fatalf("net budget %v want %v", spec.NetBudget, p.Radio.BytesPerSec)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Partition(context.Background(), spec, core.DefaultOptions()); err != nil {
		t.Fatalf("profiled spec should partition: %v", err)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	g, src := buildChain()
	if _, err := Run(g, nil); err == nil {
		t.Fatal("no inputs must error")
	}
	if _, err := Run(g, []Input{{Source: src, Events: nil, Rate: 10}}); err == nil {
		t.Fatal("empty trace must error")
	}
	if _, err := Run(g, []Input{{Source: src, Events: []dataflow.Value{[]byte{1}}, Rate: 0}}); err == nil {
		t.Fatal("zero rate must error")
	}
	foreign := dataflow.New().Add(&dataflow.Operator{Name: "x", NS: dataflow.NSNode})
	if _, err := Run(g, []Input{{Source: foreign, Events: []dataflow.Value{[]byte{1}}, Rate: 1}}); err == nil {
		t.Fatal("foreign source must error")
	}
}

func TestPeakTracksCostliestInvocation(t *testing.T) {
	g := dataflow.New()
	src := g.Add(&dataflow.Operator{Name: "src", NS: dataflow.NSNode, SideEffect: true})
	spiky := g.Add(&dataflow.Operator{Name: "spiky", NS: dataflow.NSNode,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			ctx.Counter.Add(cost.FloatMul, v.(int))
			emit(int16(1))
		}})
	sink := g.Add(&dataflow.Operator{Name: "sink", NS: dataflow.NSServer, SideEffect: true,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {}})
	g.Chain(src, spiky, sink)
	rep, err := Run(g, []Input{{
		Source: src,
		Events: []dataflow.Value{10, 10, 500, 10},
		Rate:   1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.OpPeak[spiky.ID()].Counts()[cost.FloatMul]; got != 500 {
		t.Fatalf("peak invocation %d fmul, want 500", got)
	}
	if got := rep.OpTotal[spiky.ID()].Counts()[cost.FloatMul]; got != 530 {
		t.Fatalf("total %d fmul, want 530", got)
	}
	costs := rep.CPUCosts(platform.TMoteSky())
	if costs[spiky.ID()].Peak <= costs[spiky.ID()].Mean {
		t.Fatal("bursty operator must have peak > mean")
	}
}
