package wishbone

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"wishbone/internal/apps/speech"
	"wishbone/internal/core"
	"wishbone/internal/dataflow"
	"wishbone/internal/profile"
)

// stripTimes zeroes wall-clock telemetry so byte-identical solves compare
// equal across runs.
func stripTimes(a *Assignment) *Assignment {
	cp := *a
	cp.Stats.DiscoverTime = 0
	cp.Stats.ProveTime = 0
	return &cp
}

// legacyAutoPartition reproduces the pre-redesign wishbone.AutoPartition
// pipeline verbatim: profile → classify → BuildSpec → core.AutoPartition
// with the exact ILP. The Planner must match it byte for byte.
func legacyAutoPartition(t *testing.T, g *Graph, mode Mode, inputs []Input, plat *Platform) *Deployment {
	t.Helper()
	if err := plat.Validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := profile.Run(g, inputs)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := dataflow.Classify(g, mode)
	if err != nil {
		t.Fatal(err)
	}
	spec := profile.BuildSpec(cls, rep, plat)
	res, err := core.AutoPartition(context.Background(), spec, 1.0, 0.005, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment == nil {
		t.Fatal("legacy pipeline found no feasible rate")
	}
	return &Deployment{Report: rep, Spec: spec, Assignment: res.Assignment, RateMultiple: res.RateMultiple}
}

// assertDeploymentsIdentical compares report, spec, assignment, and rate.
func assertDeploymentsIdentical(t *testing.T, got, want *Deployment) {
	t.Helper()
	if !reflect.DeepEqual(got.Report, want.Report) {
		t.Fatal("profile reports differ")
	}
	if !reflect.DeepEqual(got.Spec.CPU, want.Spec.CPU) ||
		!reflect.DeepEqual(got.Spec.Bandwidth, want.Spec.Bandwidth) ||
		got.Spec.CPUBudget != want.Spec.CPUBudget ||
		got.Spec.NetBudget != want.Spec.NetBudget ||
		got.Spec.Alpha != want.Spec.Alpha || got.Spec.Beta != want.Spec.Beta {
		t.Fatal("specs differ")
	}
	if got.RateMultiple != want.RateMultiple {
		t.Fatalf("rate multiples differ: %v vs %v", got.RateMultiple, want.RateMultiple)
	}
	if !reflect.DeepEqual(stripTimes(got.Assignment), stripTimes(want.Assignment)) {
		t.Fatalf("assignments differ:\n got %+v\nwant %+v", got.Assignment, want.Assignment)
	}
}

// TestPlannerSolverParityExact is the acceptance criterion: the redesigned
// NewPlanner(...).AutoPartition with the exact backend is byte-identical
// to the pre-redesign pipeline, on a program that fits and on the speech
// app that needs the §4.3 rate search.
func TestPlannerSolverParityExact(t *testing.T) {
	ctx := context.Background()

	t.Run("fits", func(t *testing.T) {
		g, inputs := buildTestProgram(500)
		want := legacyAutoPartition(t, g, Permissive, inputs, TMoteSky())
		got, err := NewPlanner().AutoPartition(ctx, g, inputs, TMoteSky())
		if err != nil {
			t.Fatal(err)
		}
		assertDeploymentsIdentical(t, got, want)
	})

	t.Run("rate-search", func(t *testing.T) {
		app := speech.New()
		inputs := []Input{app.SampleTrace(1, 2)}
		want := legacyAutoPartition(t, app.Graph, Permissive, inputs, TMoteSky())
		got, err := NewPlanner().AutoPartition(ctx, app.Graph, inputs, TMoteSky())
		if err != nil {
			t.Fatal(err)
		}
		assertDeploymentsIdentical(t, got, want)
	})
}

// TestPlannerSolverRaceMatchesExact: a raced planner returns verified
// assignments identical to the exact planner's (exact wins ties, and
// without a deadline it always finishes).
func TestPlannerSolverRaceMatchesExact(t *testing.T) {
	ctx := context.Background()
	g, inputs := buildTestProgram(500)
	exact, err := NewPlanner().AutoPartition(ctx, g, inputs, TMoteSky())
	if err != nil {
		t.Fatal(err)
	}
	raced, err := NewPlanner(WithSolver("race")).AutoPartition(ctx, g, inputs, TMoteSky())
	if err != nil {
		t.Fatal(err)
	}
	if err := raced.Assignment.Verify(raced.Spec.Scaled(raced.RateMultiple)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripTimes(raced.Assignment), stripTimes(exact.Assignment)) {
		t.Fatal("raced assignment differs from exact")
	}
	if len(raced.Solves) == 0 || len(raced.Solves[0].Sub) == 0 {
		t.Fatal("raced deployment should carry per-backend telemetry")
	}
}

// TestPlannerSolverSelection: every registered backend works end to end
// through the Planner, and unknown names surface as errors.
func TestPlannerSolverSelection(t *testing.T) {
	ctx := context.Background()
	g, inputs := buildTestProgram(500)
	for _, name := range []string{"exact", "lagrangian", "greedy"} {
		dep, err := NewPlanner(WithSolver(name)).AutoPartition(ctx, g, inputs, TMoteSky())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := dep.Assignment.Verify(dep.Spec.Scaled(dep.RateMultiple)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := NewPlanner(WithSolver("nope")).AutoPartition(ctx, g, inputs, TMoteSky()); err == nil {
		t.Fatal("unknown backend must error")
	}
	if _, err := NewPlanner(WithRace("exact", "greedy")).AutoPartition(ctx, g, inputs, TMoteSky()); err != nil {
		t.Fatalf("explicit race set: %v", err)
	}
}

// TestPlannerSolverCancellation: a canceled context aborts every method.
func TestPlannerSolverCancellation(t *testing.T) {
	g, inputs := buildTestProgram(500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := NewPlanner()
	if _, err := p.Profile(ctx, g, inputs); err == nil {
		t.Fatal("Profile must honor cancellation")
	}
	if _, err := p.AutoPartition(ctx, g, inputs, TMoteSky()); err == nil {
		t.Fatal("AutoPartition must honor cancellation")
	}
}

// TestAutoPartitionInfeasibleTyped is the satellite fix: when no rate is
// feasible the error wraps *core.ErrInfeasible so callers can errors.As.
func TestAutoPartitionInfeasibleTyped(t *testing.T) {
	// A node-pinned source shipping megabytes with nothing to compute:
	// every probed rate exceeds the TMote radio, so no rate fits.
	g := NewGraph()
	src := g.Add(&Operator{Name: "firehose", NS: NSNode, SideEffect: true})
	out := g.Add(&Operator{Name: "log", NS: NSServer, SideEffect: true,
		Work: func(ctx *Ctx, _ int, v Value, emit Emit) {}})
	g.Chain(src, out)
	events := make([]Value, 40)
	for i := range events {
		events[i] = make([]int16, 1<<19) // 1 MiB per event
	}
	inputs := []Input{{Source: src, Events: events, Rate: 100}}

	_, err := NewPlanner().AutoPartition(context.Background(), g, inputs, TMoteSky())
	if err == nil {
		t.Fatal("expected infeasibility")
	}
	var ie *core.ErrInfeasible
	if !errors.As(err, &ie) {
		t.Fatalf("error must wrap *core.ErrInfeasible, got %T: %v", err, err)
	}
}
