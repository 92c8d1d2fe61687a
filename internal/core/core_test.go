package core

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"wishbone/internal/dataflow"
)

// fig3Graph builds a 6-operator instance with the trajectory of the
// paper's Figure 3: as the CPU budget grows 2→3→4 the optimal cut
// bandwidth falls 8→6→5 and the cut shape flips between the two chains.
//
//	u1(1) → m1(1) → n1(2) → t
//	u2(1) → m2(1) ────────→ t
//
// edge bandwidths: u1→m1: 4, m1→n1: 3, n1→t: 1, u2→m2: 4, m2→t: 2.
func fig3Graph(t *testing.T) (*dataflow.Graph, *Spec) {
	t.Helper()
	g := dataflow.New()
	u1 := g.Add(&dataflow.Operator{Name: "u1", NS: dataflow.NSNode})
	u2 := g.Add(&dataflow.Operator{Name: "u2", NS: dataflow.NSNode})
	m1 := g.Add(&dataflow.Operator{Name: "m1", NS: dataflow.NSNode})
	m2 := g.Add(&dataflow.Operator{Name: "m2", NS: dataflow.NSNode})
	n1 := g.Add(&dataflow.Operator{Name: "n1", NS: dataflow.NSNode})
	tk := g.Add(&dataflow.Operator{Name: "t", NS: dataflow.NSServer, SideEffect: true})

	e1 := g.Connect(u1, m1, 0)
	e2 := g.Connect(m1, n1, 0)
	e3 := g.Connect(n1, tk, 0)
	e4 := g.Connect(u2, m2, 0)
	e5 := g.Connect(m2, tk, 1)

	cls, err := dataflow.Classify(g, dataflow.Conservative)
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{
		Graph: g,
		Class: cls,
		CPU: map[int]OpCost{
			u1.ID(): {Mean: 1}, u2.ID(): {Mean: 1},
			m1.ID(): {Mean: 1}, m2.ID(): {Mean: 1},
			n1.ID(): {Mean: 2},
		},
		Bandwidth: map[*dataflow.Edge]EdgeCost{
			e1: {Mean: 4}, e2: {Mean: 3}, e3: {Mean: 1},
			e4: {Mean: 4}, e5: {Mean: 2},
		},
		Alpha: 0, Beta: 1,
	}
	return g, spec
}

func TestFig3BudgetSweep(t *testing.T) {
	_, spec := fig3Graph(t)
	want := map[float64]float64{2: 8, 3: 6, 4: 5}
	for budget, wantBW := range want {
		s := *spec
		s.CPUBudget = budget
		asg, err := Partition(context.Background(), &s, DefaultOptions())
		if err != nil {
			t.Fatalf("budget %v: %v", budget, err)
		}
		if math.Abs(asg.NetLoad-wantBW) > 1e-9 {
			t.Errorf("budget %v: cut bandwidth %v, want %v (onNode=%v)",
				budget, asg.NetLoad, wantBW, asg.OnNode)
		}
		if err := asg.Verify(&s); err != nil {
			t.Errorf("budget %v: %v", budget, err)
		}
	}
}

func TestFig3FormulationsAgree(t *testing.T) {
	_, spec := fig3Graph(t)
	for _, budget := range []float64{0.5, 2, 3, 4, 10} {
		s := *spec
		s.CPUBudget = budget
		for _, pre := range []bool{true, false} {
			r, errR := Partition(context.Background(), &s, Options{Formulation: Restricted, Preprocess: pre})
			g, errG := Partition(context.Background(), &s, Options{Formulation: General, Preprocess: pre})
			if (errR == nil) != (errG == nil) {
				t.Fatalf("budget %v pre=%v: restricted err=%v, general err=%v",
					budget, pre, errR, errG)
			}
			if errR != nil {
				continue
			}
			if math.Abs(r.Objective-g.Objective) > 1e-6 {
				t.Errorf("budget %v pre=%v: restricted obj %v != general obj %v",
					budget, pre, r.Objective, g.Objective)
			}
		}
	}
}

func TestInfeasibleWhenBudgetTiny(t *testing.T) {
	_, spec := fig3Graph(t)
	s := *spec
	s.CPUBudget = 1 // sources alone need 2
	_, err := Partition(context.Background(), &s, DefaultOptions())
	if _, ok := err.(*ErrInfeasible); !ok {
		t.Fatalf("err=%v, want ErrInfeasible", err)
	}
}

// TestPartitionNodeCapWithoutIncumbent: the General formulation has no
// rounder, so a MaxNodes cap reached at a fractional root leaves no cut
// and no infeasibility proof — an error that names the cap, not a
// solver failure and not ErrInfeasible.
func TestPartitionNodeCapWithoutIncumbent(t *testing.T) {
	_, spec := fig3Graph(t)
	s := *spec
	s.CPUBudget = 3.5 // the root relaxation is fractional at this budget
	asg, err := Partition(context.Background(), &s, Options{Formulation: General, Preprocess: true, MaxNodes: 1})
	if err == nil {
		t.Fatalf("capped solve returned a cut with no search: %+v", asg)
	}
	if IsInfeasible(err) {
		t.Fatalf("a node cap is not an infeasibility proof: %v", err)
	}
	if want := "MaxNodes 1"; !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %q, want it to name %q", err, want)
	}
}

func TestNetBudgetForcesDeeperCut(t *testing.T) {
	_, spec := fig3Graph(t)
	s := *spec
	s.CPUBudget = 100
	s.NetBudget = 5.5 // bandwidth 8 and 6 are out; 5 (or 3) must be chosen
	asg, err := Partition(context.Background(), &s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if asg.NetLoad > 5.5 {
		t.Fatalf("net load %v exceeds budget", asg.NetLoad)
	}
}

func TestAutoPartitionRateSearch(t *testing.T) {
	_, spec := fig3Graph(t)
	s := *spec
	s.CPUBudget = 4 // at scale 1 the problem fits (cpu 4, bw 5)
	s.NetBudget = 5
	// At scale 2 it does not fit: cheapest full-node cut needs cpu 8... so
	// the max scale is where both budgets hold.
	res, err := AutoPartitionWith(context.Background(), &s, 4, 0.001, Limits{}, NewExact(DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	if res.RateMultiple <= 0 {
		t.Fatal("expected a feasible rate")
	}
	// Verify the reported rate is feasible and 1.35× it is not.
	if _, err := Partition(context.Background(), s.Scaled(res.RateMultiple), DefaultOptions()); err != nil {
		t.Fatalf("reported rate %v infeasible: %v", res.RateMultiple, err)
	}
	if _, err := Partition(context.Background(), s.Scaled(res.RateMultiple*1.35), DefaultOptions()); err == nil {
		t.Fatalf("rate %v should be near the feasibility boundary", res.RateMultiple)
	}
}

func TestAutoPartitionRateSearchSmallRate(t *testing.T) {
	_, spec := fig3Graph(t)
	s := *spec
	s.CPUBudget = 0.5 // sources can never fit
	res, err := AutoPartitionWith(context.Background(), &s, 8, 0.01, Limits{}, NewExact(DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	// CPU cost scales with rate, so some tiny rate is always feasible for
	// budget > 0 — unless bandwidth is also capped. Here only CPU binds
	// and scaling makes it fit, so the rate should be small but positive.
	if res.RateMultiple <= 0 || res.RateMultiple > 0.5 {
		t.Fatalf("rate=%v, want small positive", res.RateMultiple)
	}
}

// randomSpec builds a random layered DAG with a single server sink.
func randomSpec(rng *rand.Rand) *Spec {
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

	spec := &Spec{
		Graph:     g,
		CPU:       map[int]OpCost{},
		Bandwidth: map[*dataflow.Edge]EdgeCost{},
		Alpha:     float64(rng.Intn(2)),
		Beta:      1,
	}
	addEdge := func(a, b *dataflow.Operator, port int) {
		e := g.Connect(a, b, port)
		spec.Bandwidth[e] = EdgeCost{Mean: float64(1 + rng.Intn(9))}
	}
	// Each source feeds a random first-layer operator.
	for _, s := range srcs {
		addEdge(s, mids[rng.Intn(len(mids))], 0)
	}
	// Forward edges between middles (i < j keeps it acyclic).
	for i := 0; i < nMid; i++ {
		for j := i + 1; j < nMid; j++ {
			if rng.Float64() < 0.3 {
				addEdge(mids[i], mids[j], 0)
			}
		}
	}
	// Everything with no outgoing edge flows to the sink; everything with
	// no incoming edge (besides sources) gets fed by a source.
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
			spec.CPU[op.ID()] = OpCost{Mean: float64(1 + rng.Intn(5))}
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

// bruteForceFree enumerates every assignment respecting pins and budgets,
// allowing data to cross the network in both directions (the General
// formulation's solution space); cut bandwidth counts both directions.
func bruteForceFree(s *Spec) float64 {
	ops := s.Graph.Operators()
	n := len(ops)
	best := math.NaN()
	for mask := 0; mask < 1<<n; mask++ {
		onNode := func(id int) bool { return mask&(1<<id) != 0 }
		ok := true
		for id, p := range s.Class.Place {
			if p == dataflow.PinNode && !onNode(id) || p == dataflow.PinServer && onNode(id) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		cpu, net := 0.0, 0.0
		for _, e := range s.Graph.Edges() {
			if onNode(e.From.ID()) != onNode(e.To.ID()) {
				net += s.edgeBW(e)
			}
		}
		for _, op := range ops {
			if onNode(op.ID()) {
				cpu += s.opCPU(op.ID())
			}
		}
		if s.CPUBudget > 0 && cpu > s.CPUBudget+1e-9 {
			continue
		}
		if s.NetBudget > 0 && net > s.NetBudget+1e-9 {
			continue
		}
		z := s.Alpha*cpu + s.Beta*net
		if math.IsNaN(best) || z < best {
			best = z
		}
	}
	return best
}

// bruteForceCut enumerates every monotone cut (node set closed under
// predecessors) respecting pins and budgets, returning the best objective
// or NaN when none is feasible.
func bruteForceCut(s *Spec) float64 {
	ops := s.Graph.Operators()
	n := len(ops)
	best := math.NaN()
	for mask := 0; mask < 1<<n; mask++ {
		onNode := func(id int) bool { return mask&(1<<id) != 0 }
		ok := true
		for id, p := range s.Class.Place {
			if p == dataflow.PinNode && !onNode(id) || p == dataflow.PinServer && onNode(id) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		cpu, net := 0.0, 0.0
		for _, e := range s.Graph.Edges() {
			if !onNode(e.From.ID()) && onNode(e.To.ID()) {
				ok = false // crossing back to the node
				break
			}
			if onNode(e.From.ID()) && !onNode(e.To.ID()) {
				net += s.edgeBW(e)
			}
		}
		if !ok {
			continue
		}
		for _, op := range ops {
			if onNode(op.ID()) {
				cpu += s.opCPU(op.ID())
			}
		}
		if s.CPUBudget > 0 && cpu > s.CPUBudget+1e-9 {
			continue
		}
		if s.NetBudget > 0 && net > s.NetBudget+1e-9 {
			continue
		}
		z := s.Alpha*cpu + s.Beta*net
		if math.IsNaN(best) || z < best {
			best = z
		}
	}
	return best
}

// TestPartitionAgainstBruteForce is the central correctness property: the
// ILP partitioner (with and without preprocessing, both formulations) must
// match exhaustive enumeration of monotone cuts on random DAGs.
func TestPartitionAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2009))
	for trial := 0; trial < 60; trial++ {
		spec := randomSpec(rng)

		// Restricted formulation (with and without preprocessing) must
		// match exhaustive enumeration of monotone single-crossing cuts.
		wantMono := bruteForceCut(spec)
		for _, opts := range []Options{
			{Formulation: Restricted, Preprocess: true},
			{Formulation: Restricted, Preprocess: false},
		} {
			asg, err := Partition(context.Background(), spec, opts)
			if math.IsNaN(wantMono) {
				if _, ok := err.(*ErrInfeasible); !ok {
					t.Fatalf("trial %d %v: err=%v, brute force says infeasible", trial, opts, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d %v: %v (brute force %v)", trial, opts, err, wantMono)
			}
			if math.Abs(asg.Objective-wantMono) > 1e-6 {
				t.Fatalf("trial %d %v: objective %v, brute force %v",
					trial, opts, asg.Objective, wantMono)
			}
			if err := asg.Verify(spec); err != nil {
				t.Fatalf("trial %d %v: %v", trial, opts, err)
			}
		}

		// General formulation without preprocessing must match exhaustive
		// enumeration of unrestricted (bidirectional) assignments. (§4.1
		// preprocessing is justified only under the single-crossing
		// restriction, so it is not combined with General here.)
		wantFree := bruteForceFree(spec)
		opts := Options{Formulation: General, Preprocess: false}
		asg, err := Partition(context.Background(), spec, opts)
		if math.IsNaN(wantFree) {
			if _, ok := err.(*ErrInfeasible); !ok {
				t.Fatalf("trial %d %v: err=%v, brute force says infeasible", trial, opts, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d %v: %v (brute force %v)", trial, opts, err, wantFree)
		}
		if math.Abs(asg.Objective-wantFree) > 1e-6 {
			t.Fatalf("trial %d %v: objective %v, brute force %v",
				trial, opts, asg.Objective, wantFree)
		}
		if err := asg.Verify(spec); err != nil {
			t.Fatalf("trial %d %v: %v", trial, opts, err)
		}
		if wantFree > wantMono+1e-9 {
			t.Fatalf("trial %d: bidirectional optimum %v worse than monotone %v",
				trial, wantFree, wantMono)
		}
	}
}

func TestPreprocessingShrinksNeutralChains(t *testing.T) {
	// src → a → b → sink where a and b are data-neutral: both must merge
	// downstream, leaving only src's output as a cuttable edge.
	g := dataflow.New()
	src := g.Add(&dataflow.Operator{Name: "src", NS: dataflow.NSNode, SideEffect: true})
	a := g.Add(&dataflow.Operator{Name: "a", NS: dataflow.NSNode})
	b := g.Add(&dataflow.Operator{Name: "b", NS: dataflow.NSNode})
	sink := g.Add(&dataflow.Operator{Name: "sink", NS: dataflow.NSServer, SideEffect: true})
	e1 := g.Connect(src, a, 0)
	e2 := g.Connect(a, b, 0)
	e3 := g.Connect(b, sink, 0)
	cls, err := dataflow.Classify(g, dataflow.Conservative)
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{
		Graph: g, Class: cls,
		CPU: map[int]OpCost{a.ID(): {Mean: 1}, b.ID(): {Mean: 1}},
		Bandwidth: map[*dataflow.Edge]EdgeCost{
			e1: {Mean: 10}, e2: {Mean: 10}, e3: {Mean: 10},
		},
		CPUBudget: 10, Alpha: 0, Beta: 1,
	}
	red := buildReduced(spec, true)
	if len(red.clusters) != 2 {
		t.Fatalf("clusters=%d, want 2 (src | a+b+sink)", len(red.clusters))
	}
	asg, err := Partition(context.Background(), spec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Data-neutral operators burn CPU without saving bandwidth: optimal
	// assignment keeps them on the server.
	if asg.OnNode[a.ID()] || asg.OnNode[b.ID()] {
		t.Errorf("data-neutral operators should stay on the server: %v", asg.OnNode)
	}
}

func TestScaledSpecIndependent(t *testing.T) {
	_, spec := fig3Graph(t)
	scaled := spec.Scaled(2)
	for id, c := range spec.CPU {
		if got := scaled.CPU[id].Mean; math.Abs(got-2*c.Mean) > 1e-12 {
			t.Fatalf("op %d: scaled cpu %v want %v", id, got, 2*c.Mean)
		}
	}
	scaled.CPU[0] = OpCost{Mean: 99}
	if spec.CPU[0].Mean == 99 {
		t.Fatal("Scaled shares CPU map with original")
	}
}
