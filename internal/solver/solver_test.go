package solver

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"wishbone/internal/core"
	"wishbone/internal/dataflow"
	"wishbone/internal/experiments"
	"wishbone/internal/platform"
)

func ctxBG() context.Context { return context.Background() }

// fig3Spec rebuilds the §4 Figure-3 motivating example: six operators,
// two merging chains, optimal cut bandwidth stepping 8→6→5 as the CPU
// budget grows 2→3→4.
func fig3Spec(t testing.TB, budget float64) *core.Spec {
	t.Helper()
	g := dataflow.New()
	u1 := g.Add(&dataflow.Operator{Name: "u1", NS: dataflow.NSNode})
	u2 := g.Add(&dataflow.Operator{Name: "u2", NS: dataflow.NSNode})
	m1 := g.Add(&dataflow.Operator{Name: "m1", NS: dataflow.NSNode})
	m2 := g.Add(&dataflow.Operator{Name: "m2", NS: dataflow.NSNode})
	n1 := g.Add(&dataflow.Operator{Name: "n1", NS: dataflow.NSNode})
	sink := g.Add(&dataflow.Operator{Name: "sink", NS: dataflow.NSServer, SideEffect: true})
	e1 := g.Connect(u1, m1, 0)
	e2 := g.Connect(m1, n1, 0)
	e3 := g.Connect(n1, sink, 0)
	e4 := g.Connect(u2, m2, 0)
	e5 := g.Connect(m2, sink, 1)
	cls, err := dataflow.Classify(g, dataflow.Conservative)
	if err != nil {
		t.Fatal(err)
	}
	return &core.Spec{
		Graph: g, Class: cls,
		CPU: map[int]core.OpCost{
			u1.ID(): {Mean: 1}, u2.ID(): {Mean: 1},
			m1.ID(): {Mean: 1}, m2.ID(): {Mean: 1}, n1.ID(): {Mean: 2},
		},
		Bandwidth: map[*dataflow.Edge]core.EdgeCost{
			e1: {Mean: 4}, e2: {Mean: 3}, e3: {Mean: 1}, e4: {Mean: 4}, e5: {Mean: 2},
		},
		Alpha: 0, Beta: 1, CPUBudget: budget,
	}
}

// randomSpec builds a random layered DAG with a single server sink
// (mirrors the generator internal/core's brute-force tests use).
func randomSpec(rng *rand.Rand) *core.Spec {
	g := dataflow.New()
	nMid := 2 + rng.Intn(7)
	nSrc := 1 + rng.Intn(2)
	var srcs, mids []*dataflow.Operator
	for i := 0; i < nSrc; i++ {
		srcs = append(srcs, g.Add(&dataflow.Operator{Name: "src", NS: dataflow.NSNode, SideEffect: true}))
	}
	for i := 0; i < nMid; i++ {
		mids = append(mids, g.Add(&dataflow.Operator{Name: "mid", NS: dataflow.NSNode}))
	}
	sink := g.Add(&dataflow.Operator{Name: "sink", NS: dataflow.NSServer, SideEffect: true})

	spec := &core.Spec{
		Graph:     g,
		CPU:       map[int]core.OpCost{},
		Bandwidth: map[*dataflow.Edge]core.EdgeCost{},
		Alpha:     float64(rng.Intn(2)),
		Beta:      1,
	}
	addEdge := func(a, b *dataflow.Operator, port int) {
		e := g.Connect(a, b, port)
		spec.Bandwidth[e] = core.EdgeCost{Mean: float64(1 + rng.Intn(9))}
	}
	for _, s := range srcs {
		addEdge(s, mids[rng.Intn(len(mids))], 0)
	}
	for i := 0; i < nMid; i++ {
		for j := i + 1; j < nMid; j++ {
			if rng.Float64() < 0.3 {
				addEdge(mids[i], mids[j], 0)
			}
		}
	}
	for _, mOp := range mids {
		if len(g.Out(mOp)) == 0 {
			addEdge(mOp, sink, 0)
		}
		if len(g.In(mOp)) == 0 {
			addEdge(srcs[rng.Intn(len(srcs))], mOp, 0)
		}
	}
	for _, op := range g.Operators() {
		if op != sink {
			spec.CPU[op.ID()] = core.OpCost{Mean: float64(1 + rng.Intn(5))}
		}
	}
	spec.CPUBudget = float64(1 + rng.Intn(15))
	if rng.Intn(2) == 0 {
		spec.NetBudget = float64(3 + rng.Intn(20))
	}
	cls, err := dataflow.Classify(g, dataflow.Conservative)
	if err != nil {
		panic(err)
	}
	spec.Class = cls
	return spec
}

// canon serializes an assignment with volatile timing telemetry zeroed, so
// two byte-identical solves compare equal regardless of wall clock.
func canon(t testing.TB, s *core.Spec, a *core.Assignment) string {
	t.Helper()
	cp := *a
	cp.Stats.DiscoverTime = 0
	cp.Stats.ProveTime = 0
	cp.Stats.CutoffPruned = 0 // heap-work telemetry, varies with race timing
	// Cut edges by dense index (pointers do not serialize).
	idx := map[*dataflow.Edge]int{}
	for i, e := range s.Graph.Edges() {
		idx[e] = i
	}
	cuts := make([]int, 0, len(cp.CutEdges))
	for _, e := range cp.CutEdges {
		cuts = append(cuts, idx[e])
	}
	cp.CutEdges = nil
	b, err := json.Marshal(struct {
		A    core.Assignment
		Cuts []int
	}{cp, cuts})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSolverRegistry: the built-in names are exactly these four, and a
// default race runs three entrants, exact first.
func TestSolverRegistry(t *testing.T) {
	want := []string{"exact", "greedy", "lagrangian", "race"}
	if names := Names(); !slices.Equal(names, want) {
		t.Fatalf("registry = %v, want exactly %v", names, want)
	}
	race, err := New(core.SolverRace, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, rstats, err := race.Solve(ctxBG(), fig3Spec(t, 3), core.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	var entrants []string
	for _, sub := range rstats.Sub {
		entrants = append(entrants, sub.Backend)
	}
	if want := []string{core.SolverExact, core.SolverLagrangian, core.SolverGreedy}; !slices.Equal(entrants, want) {
		t.Fatalf("race entrants = %v, want %v", entrants, want)
	}
	if _, err := New("nope", core.DefaultOptions()); err == nil {
		t.Fatal("unknown backend must error")
	}
	sv, err := New("", core.DefaultOptions())
	if err != nil || sv.Name() != core.SolverExact {
		t.Fatalf("empty name should default to exact, got %v, %v", sv, err)
	}
}

// TestSolverDifferentialFig3 pins all backends on the paper's motivating
// example: heuristics must Verify and match the exact optimum here (the
// graph is small enough that both find it), and race must be
// byte-identical to exact.
func TestSolverDifferentialFig3(t *testing.T) {
	for _, budget := range []float64{2, 3, 4} {
		spec := fig3Spec(t, budget)
		exact, _, err := core.NewExact(core.DefaultOptions()).Solve(ctxBG(), spec, core.Limits{})
		if err != nil {
			t.Fatalf("budget %v: exact: %v", budget, err)
		}
		for _, name := range []string{core.SolverLagrangian, core.SolverGreedy} {
			sv, err := New(name, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			asg, _, err := sv.Solve(ctxBG(), spec, core.Limits{})
			if err != nil {
				t.Fatalf("budget %v: %s: %v", budget, name, err)
			}
			if err := asg.Verify(spec); err != nil {
				t.Fatalf("budget %v: %s verify: %v", budget, name, err)
			}
			gap := (asg.Objective - exact.Objective) / math.Max(1, exact.Objective)
			t.Logf("budget %v: %s objective %v vs exact %v (gap %.1f%%)",
				budget, name, asg.Objective, exact.Objective, 100*gap)
			if gap < -1e-9 {
				t.Fatalf("budget %v: %s beat the proven optimum (%v < %v)",
					budget, name, asg.Objective, exact.Objective)
			}
		}
		race, err := New(core.SolverRace, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		raced, rstats, err := race.Solve(ctxBG(), spec, core.Limits{})
		if err != nil {
			t.Fatalf("budget %v: race: %v", budget, err)
		}
		if got, want := canon(t, spec, raced), canon(t, spec, exact); got != want {
			t.Fatalf("budget %v: race result differs from exact:\n race %s\nexact %s", budget, got, want)
		}
		winner := ""
		for _, sub := range rstats.Sub {
			if sub.Winner {
				winner = sub.Backend
			}
		}
		if winner != core.SolverExact {
			t.Fatalf("budget %v: tie must go to exact, winner = %q", budget, winner)
		}
	}
}

// TestSolverDifferentialRandom fuzzes all backends against exact over 200
// random specs: every heuristic answer must Verify and never beat the
// optimum; the race must be byte-identical to exact everywhere (exact
// finishes un-deadlined, so it always decides); and the Lagrangian dual
// bound must never exceed the optimum. Aggregate heuristic gaps are
// logged, and the heuristics must find feasible cuts for the bulk of the
// feasible specs.
func TestSolverDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2009))
	exactSv := core.NewExact(core.DefaultOptions())
	lagSv, _ := New(core.SolverLagrangian, core.DefaultOptions())
	greedySv, _ := New(core.SolverGreedy, core.DefaultOptions())
	raceSv, _ := New(core.SolverRace, core.DefaultOptions())

	type agg struct {
		feasible int
		sumGap   float64
		maxGap   float64
	}
	stats := map[string]*agg{core.SolverLagrangian: {}, core.SolverGreedy: {}}
	feasibleSpecs, infeasibleSpecs := 0, 0

	for trial := 0; trial < 200; trial++ {
		spec := randomSpec(rng)
		exact, _, exactErr := exactSv.Solve(ctxBG(), spec, core.Limits{})
		if exactErr != nil && !core.IsInfeasible(exactErr) {
			t.Fatalf("trial %d: exact: %v", trial, exactErr)
		}
		if exactErr != nil {
			infeasibleSpecs++
		} else {
			feasibleSpecs++
		}

		for name, sv := range map[string]core.Solver{
			core.SolverLagrangian: lagSv, core.SolverGreedy: greedySv,
		} {
			asg, _, err := sv.Solve(ctxBG(), spec, core.Limits{})
			if err != nil {
				if !core.IsInfeasible(err) {
					t.Fatalf("trial %d: %s: %v", trial, name, err)
				}
				continue
			}
			if err := asg.Verify(spec); err != nil {
				t.Fatalf("trial %d: %s returned unverifiable assignment: %v", trial, name, err)
			}
			if exactErr != nil {
				t.Fatalf("trial %d: %s found a feasible cut where exact proved infeasibility", trial, name)
			}
			gap := (asg.Objective - exact.Objective) / math.Max(1, exact.Objective)
			if gap < -1e-9 {
				t.Fatalf("trial %d: %s objective %v beats proven optimum %v",
					trial, name, asg.Objective, exact.Objective)
			}
			a := stats[name]
			a.feasible++
			a.sumGap += gap
			if gap > a.maxGap {
				a.maxGap = gap
			}
		}

		raced, _, raceErr := raceSv.Solve(ctxBG(), spec, core.Limits{})
		if exactErr != nil {
			if raceErr == nil || !core.IsInfeasible(raceErr) {
				t.Fatalf("trial %d: race must surface exact's infeasibility, got %v", trial, raceErr)
			}
			continue
		}
		if raceErr != nil {
			t.Fatalf("trial %d: race: %v", trial, raceErr)
		}
		if err := raced.Verify(spec); err != nil {
			t.Fatalf("trial %d: race returned unverifiable assignment: %v", trial, err)
		}
		if got, want := canon(t, spec, raced), canon(t, spec, exact); got != want {
			t.Fatalf("trial %d: race differs from exact:\n race %s\nexact %s", trial, got, want)
		}
	}

	t.Logf("%d specs: %d feasible, %d infeasible", feasibleSpecs+infeasibleSpecs, feasibleSpecs, infeasibleSpecs)
	for name, a := range stats {
		mean := 0.0
		if a.feasible > 0 {
			mean = a.sumGap / float64(a.feasible)
		}
		t.Logf("%s: feasible on %d/%d, mean gap %.2f%%, max gap %.2f%%",
			name, a.feasible, feasibleSpecs, 100*mean, 100*a.maxGap)
		if a.feasible < feasibleSpecs*8/10 {
			t.Errorf("%s found feasible cuts on only %d/%d feasible specs", name, a.feasible, feasibleSpecs)
		}
	}
}

// TestSolverLagrangianBoundValid checks weak duality end to end: the
// recorded dual bound never exceeds the exact optimum.
func TestSolverLagrangianBoundValid(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	lagSv, _ := New(core.SolverLagrangian, core.DefaultOptions())
	for trial := 0; trial < 60; trial++ {
		spec := randomSpec(rng)
		exact, _, err := core.NewExact(core.DefaultOptions()).Solve(ctxBG(), spec, core.Limits{})
		if err != nil {
			continue
		}
		_, st, err := lagSv.Solve(ctxBG(), spec, core.Limits{})
		if err != nil {
			continue
		}
		if st.Bound > exact.Objective+1e-6 {
			t.Fatalf("trial %d: dual bound %v exceeds optimum %v", trial, st.Bound, exact.Objective)
		}
		if st.Gap >= 0 && st.Objective+1e-9 < exact.Objective {
			t.Fatalf("trial %d: feasible objective below optimum", trial)
		}
	}
}

// TestSolverLagrangianIterationsPinned guards the dual-ascent loop's
// arithmetic: per-spec iteration counts, dual bounds and objectives over
// the Fig. 3 budgets and 50 seeded random specs, recorded at the commit
// that still ran the loop behind the stepper interface (objective -1 =
// no feasible cut found). A change to the step rule, the stall test or
// the repair order moves these.
func TestSolverLagrangianIterationsPinned(t *testing.T) {
	want := []struct {
		iters      int
		bound, obj float64
	}{
		{2, 8, 8},
		{2, 6, 6},
		{3, 5, 5},
		{1, 12, 12},
		{15, 23, 23},
		{120, 108899, -1},
		{1, 29, 29},
		{1, 7, 7},
		{65, 18.714285714285023, 21},
		{120, 135720.66666666666, -1},
		{120, 863.8798923453869, -1},
		{120, 1799, -1},
		{1, 11, 11},
		{1, 25, 25},
		{70, 11.197481366452186, 15},
		{120, 118312.57798165131, -1},
		{120, 50819, -1},
		{1, 3, 3},
		{120, 58.544721692156656, -1},
		{120, 130679, -1},
		{1, 14, 14},
		{1, 8, 8},
		{54, 8.694482827430829, 12},
		{120, 1638.3615813940132, -1},
		{1, 21, 21},
		{1, 10, 10},
		{1, 2, 2},
		{120, 359.88653995292964, -1},
		{120, 3665.0450500551397, -1},
		{1, 21, 21},
		{1, 9, 9},
		{1, 16, 16},
		{2, 24, 24},
		{1, 18, 18},
		{2, 16, 16},
		{1, 18, 18},
		{120, 81795, -1},
		{1, 10, 10},
		{1, 14, 14},
		{120, 1250.5145400557124, -1},
		{120, 6371.650199615237, -1},
		{120, 149875.35484079696, -1},
		{1, 23, 23},
		{120, 175620.68482851365, -1},
		{2, 16, 16},
		{1, 20, 20},
		{120, 48179.00000000001, -1},
		{1, 6, 6},
		{1, 18, 18},
		{1, 16, 16},
		{120, 1888.2056017492732, -1},
		{33, 4.398530915182207, 6},
		{120, 210539, -1},
	}
	var specs []*core.Spec
	for _, budget := range []float64{2, 3, 4} {
		specs = append(specs, fig3Spec(t, budget))
	}
	rng := rand.New(rand.NewSource(2020))
	for len(specs) < len(want) {
		specs = append(specs, randomSpec(rng))
	}
	lag := NewLagrangian(core.DefaultOptions())
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
	for i, spec := range specs {
		_, st, err := lag.Solve(ctxBG(), spec, core.Limits{})
		obj := st.Objective
		if err != nil {
			if !core.IsInfeasible(err) {
				t.Fatalf("spec %d: %v", i, err)
			}
			obj = -1
		}
		if w := want[i]; st.Iterations != w.iters || !near(st.Bound, w.bound) || !near(obj, w.obj) {
			t.Errorf("spec %d: iterations %d bound %v objective %v, pinned %d / %v / %v",
				i, st.Iterations, st.Bound, obj, w.iters, w.bound, w.obj)
		}
	}
}

// TestSolverLagrangianHonorsOptions: a backend built by New from Options
// is bounded by their GapTol, over the corpus of
// TestSolverLagrangianIterationsPinned. A loose GapTol only adds an early
// exit to the same deterministic ascent, so it never runs longer and, on
// specs whose dual stays open, stops sooner.
func TestSolverLagrangianHonorsOptions(t *testing.T) {
	specs := []*core.Spec{fig3Spec(t, 2), fig3Spec(t, 3), fig3Spec(t, 4)}
	rng := rand.New(rand.NewSource(2020))
	for len(specs) < 50 {
		specs = append(specs, randomSpec(rng))
	}
	build := func(opts core.Options) Solver {
		sv, err := New(core.SolverLagrangian, opts)
		if err != nil {
			t.Fatal(err)
		}
		return sv
	}
	loose := core.DefaultOptions()
	loose.GapTol = 0.5
	def, gap := build(core.DefaultOptions()), build(loose)
	solve := func(sv Solver, spec *core.Spec) Stats {
		_, st, err := sv.Solve(ctxBG(), spec, core.Limits{})
		if err != nil && !core.IsInfeasible(err) {
			t.Fatal(err)
		}
		return st
	}
	var defIters, gapIters int
	for i, spec := range specs {
		d, g := solve(def, spec), solve(gap, spec)
		if g.Iterations > d.Iterations {
			t.Errorf("spec %d: GapTol 0.5 ran %d iterations, default %d", i, g.Iterations, d.Iterations)
		}
		defIters += d.Iterations
		gapIters += g.Iterations
	}
	if gapIters >= defIters {
		t.Errorf("GapTol 0.5 ran %d iterations in total, no fewer than the default's %d", gapIters, defIters)
	}
}

// TestSolverGreedyChainOptimal: on a linear pipeline the greedy chain
// enumerates every prefix cut, so it must match the exact optimum — on a
// hand-built chain, on seeded random chains, and on the speech pipeline
// at five rate multiples around its TMote cut points.
func TestSolverGreedyChainOptimal(t *testing.T) {
	agree := func(name string, spec *core.Spec) {
		t.Helper()
		exact, _, errExact := core.NewExact(core.DefaultOptions()).Solve(ctxBG(), spec, core.Limits{})
		greedy, _, errGreedy := Greedy{}.Solve(ctxBG(), spec, core.Limits{})
		if errExact != nil || errGreedy != nil {
			if !core.IsInfeasible(errExact) || !core.IsInfeasible(errGreedy) {
				t.Fatalf("%s: exact err %v, greedy err %v", name, errExact, errGreedy)
			}
			return
		}
		if math.Abs(greedy.Objective-exact.Objective) > 1e-9 {
			t.Fatalf("%s: greedy %v != exact %v on a chain", name, greedy.Objective, exact.Objective)
		}
	}

	g := dataflow.New()
	src := g.Add(&dataflow.Operator{Name: "src", NS: dataflow.NSNode, SideEffect: true})
	a := g.Add(&dataflow.Operator{Name: "a", NS: dataflow.NSNode})
	b := g.Add(&dataflow.Operator{Name: "b", NS: dataflow.NSNode})
	c := g.Add(&dataflow.Operator{Name: "c", NS: dataflow.NSNode})
	sink := g.Add(&dataflow.Operator{Name: "sink", NS: dataflow.NSServer, SideEffect: true})
	e1 := g.Connect(src, a, 0)
	e2 := g.Connect(a, b, 0)
	e3 := g.Connect(b, c, 0)
	e4 := g.Connect(c, sink, 0)
	cls, err := dataflow.Classify(g, dataflow.Conservative)
	if err != nil {
		t.Fatal(err)
	}
	agree("hand-built", &core.Spec{
		Graph: g, Class: cls,
		CPU: map[int]core.OpCost{
			src.ID(): {Mean: 0.01}, a.ID(): {Mean: 0.2}, b.ID(): {Mean: 0.3}, c.ID(): {Mean: 0.4},
		},
		Bandwidth: map[*dataflow.Edge]core.EdgeCost{
			e1: {Mean: 800}, e2: {Mean: 400}, e3: {Mean: 60}, e4: {Mean: 90},
		},
		Alpha: 0, Beta: 1, CPUBudget: 0.6,
	})

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		agree(fmt.Sprintf("random chain %d", trial), randomChainSpec(rng))
	}

	env, err := experiments.NewSpeechEnv()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []float64{0.05, 0.09, 0.2, 0.5, 1} {
		spec := env.Spec(platform.TMoteSky()).Scaled(m)
		spec.NetBudget = 0
		agree(fmt.Sprintf("speech ×%v", m), spec)
	}
}

// randomChainSpec builds src → op₁ → … → opₙ → sink with random costs and
// budgets; about one in six is infeasible even with only the source on
// the node, and greedy must then say so too.
func randomChainSpec(rng *rand.Rand) *core.Spec {
	g := dataflow.New()
	spec := &core.Spec{
		Graph:     g,
		CPU:       map[int]core.OpCost{},
		Bandwidth: map[*dataflow.Edge]core.EdgeCost{},
		Alpha:     float64(rng.Intn(2)),
		Beta:      1,
	}
	prev := g.Add(&dataflow.Operator{Name: "src", NS: dataflow.NSNode, SideEffect: true})
	spec.CPU[prev.ID()] = core.OpCost{Mean: float64(rng.Intn(3))}
	cpu := spec.CPU[prev.ID()].Mean
	for i, n := 0, 1+rng.Intn(10); i < n; i++ {
		op := g.Add(&dataflow.Operator{Name: "op", NS: dataflow.NSNode})
		spec.CPU[op.ID()] = core.OpCost{Mean: float64(1 + rng.Intn(9))}
		cpu += spec.CPU[op.ID()].Mean
		spec.Bandwidth[g.Connect(prev, op, 0)] = core.EdgeCost{Mean: float64(1 + rng.Intn(100))}
		prev = op
	}
	sink := g.Add(&dataflow.Operator{Name: "sink", NS: dataflow.NSServer, SideEffect: true})
	spec.Bandwidth[g.Connect(prev, sink, 0)] = core.EdgeCost{Mean: float64(1 + rng.Intn(100))}
	spec.CPUBudget = float64(1+rng.Intn(int(cpu)+1)) - 0.5
	if rng.Intn(2) == 0 {
		spec.NetBudget = float64(1 + rng.Intn(100))
	}
	cls, err := dataflow.Classify(g, dataflow.Conservative)
	if err != nil {
		panic(err)
	}
	spec.Class = cls
	return spec
}

// TestSolverRaceCancellation: a canceled context aborts the race with its
// error; a deadline still returns whatever feasible answer arrived.
func TestSolverRaceCancellation(t *testing.T) {
	spec := fig3Spec(t, 3)
	raceSv, _ := New(core.SolverRace, core.DefaultOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := raceSv.Solve(ctx, spec, core.Limits{}); err == nil {
		t.Fatal("canceled race must error")
	}
}

// TestSolverRaceSharedIncumbent: backends publish feasible objectives to
// the shared incumbent, and it only tightens.
func TestSolverRaceSharedIncumbent(t *testing.T) {
	inc := &core.Incumbent{}
	if _, ok := inc.Best(); ok {
		t.Fatal("fresh incumbent must be empty")
	}
	if !inc.Offer(10) || inc.Offer(11) || !inc.Offer(9) {
		t.Fatal("offer must accept improvements only")
	}
	spec := fig3Spec(t, 3)
	raceSv, _ := New(core.SolverRace, core.DefaultOptions())
	if _, _, err := raceSv.Solve(ctxBG(), spec, core.Limits{Incumbent: inc}); err != nil {
		t.Fatal(err)
	}
	best, ok := inc.Best()
	if !ok || best > 9 {
		t.Fatalf("race should have tightened the incumbent below 9, got %v (%v)", best, ok)
	}
	if best != 6 {
		t.Fatalf("fig3 budget-3 optimum is 6, incumbent = %v", best)
	}
}

// TestSolverExactDeadlineIncumbent: a search stopped early — here by a
// one-node MaxNodes cap — returns its incumbent with a recorded gap
// instead of erroring.
func TestSolverExactDeadlineIncumbent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var spec *core.Spec
	// A spec the exact solver needs >1 branch-and-bound node for.
	for {
		spec = randomSpec(rng)
		asg, _, err := core.NewExact(core.DefaultOptions()).Solve(ctxBG(), spec, core.Limits{})
		if err == nil && asg.Stats.Nodes > 2 {
			break
		}
	}
	// MaxNodes 1 forces an interrupted search; the rounder's incumbent
	// must come back with a nonzero recorded gap rather than an error.
	asg, st, err := core.NewExact(core.Options{
		Formulation: core.Restricted, Preprocess: true, MaxNodes: 1,
	}).Solve(ctxBG(), spec, core.Limits{})
	if err != nil {
		t.Fatalf("interrupted exact with incumbent must not error: %v", err)
	}
	if err := asg.Verify(spec); err != nil {
		t.Fatal(err)
	}
	if asg.Stats.Gap <= 0 {
		t.Fatalf("interrupted solve should record a positive gap, got %v", asg.Stats.Gap)
	}
	if st.Optimal {
		t.Fatal("interrupted solve must not claim optimality")
	}
}

// TestSolverContextDeadline: the exact backend stops on a ctx deadline
// between branch-and-bound nodes and still interrupts cleanly.
func TestSolverContextDeadline(t *testing.T) {
	spec := fig3Spec(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	asg, _, err := core.NewExact(core.DefaultOptions()).Solve(ctx, spec, core.Limits{})
	// Tiny problem: normally finishes well inside the deadline.
	if err != nil {
		t.Fatalf("deadline ample for fig3: %v", err)
	}
	if err := asg.Verify(spec); err != nil {
		t.Fatal(err)
	}
}

// TestSolverExactCutoffDeterministic: feeding the exact backend an
// external incumbent bound (as a race does) must discard doomed subtrees
// without changing the returned assignment, byte for byte, or the count
// of LP-solved nodes (best-bound search never LP-solves a subtree the
// final incumbent would not also kill — the cutoff saves heap work, not
// relaxation solves).
func TestSolverExactCutoffDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(462))
	greedySv, _ := New(core.SolverGreedy, core.DefaultOptions())
	pruned, checked := 0, 0
	for trial := 0; trial < 120; trial++ {
		spec := randomSpec(rng)
		plain, _, err := core.NewExact(core.DefaultOptions()).Solve(ctxBG(), spec, core.Limits{})
		if err != nil {
			continue
		}
		if plain.Stats.CutoffPruned != 0 {
			t.Fatalf("trial %d: un-cut-off solve reported cutoff prunes", trial)
		}
		inc := &core.Incumbent{}
		if g, _, gerr := greedySv.Solve(ctxBG(), spec, core.Limits{}); gerr == nil {
			inc.Offer(g.Objective)
		} else {
			// No heuristic bound: seed the optimum itself, the harshest
			// legal cutoff.
			inc.Offer(plain.Objective)
		}
		cut, _, err := core.NewExact(core.DefaultOptions()).Solve(ctxBG(), spec, core.Limits{Incumbent: inc})
		if err != nil {
			t.Fatalf("trial %d: exact with cutoff: %v", trial, err)
		}
		if got, want := canon(t, spec, cut), canon(t, spec, plain); got != want {
			t.Fatalf("trial %d: cutoff changed the assignment:\n  with %s\n  plain %s", trial, got, want)
		}
		if cut.Stats.Nodes != plain.Stats.Nodes {
			t.Fatalf("trial %d: cutoff changed LP-solved nodes: %d vs %d (exploration diverged)",
				trial, cut.Stats.Nodes, plain.Stats.Nodes)
		}
		checked++
		if cut.Stats.CutoffPruned > 0 {
			pruned++
		}
	}
	// The Restricted rounder installs near-optimal incumbents at the
	// root, so on specs this small the internal prune usually dominates;
	// internal/ilp's TestCutoffDeterministic exercises the prune itself.
	t.Logf("cutoff discarded subtrees on %d/%d feasible specs", pruned, checked)
}

// BenchmarkAutoPartition runs the paper's decision procedure on the Fig. 3
// program overloaded past its CPU budget (the two node-pinned sources alone
// need 2 at full rate, the budget is 1), so every plan is the full-rate
// probe plus the §4.3 rate search, with the exact and the Lagrangian
// backend. Its allocations are the solve path's storage per plan.
func BenchmarkAutoPartition(b *testing.B) {
	spec := fig3Spec(b, 1)
	for _, name := range []string{core.SolverExact, core.SolverLagrangian} {
		b.Run(name, func(b *testing.B) {
			sv, err := New(name, core.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.AutoPartitionWith(ctxBG(), spec, 1, 0.005, core.Limits{}, sv)
				if err != nil {
					b.Fatal(err)
				}
				if res.Assignment == nil || res.Probes < 2 {
					b.Fatalf("plan at rate %v after %d probes: want a load-shed partition", res.RateMultiple, res.Probes)
				}
			}
		})
	}
}
