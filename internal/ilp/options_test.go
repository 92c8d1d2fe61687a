package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"
)

// hardKnapsack builds a maximization knapsack with near-identical items —
// slow to prove optimal, so limit options have something to limit.
func hardKnapsack(n int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel()
	m.SetDirection(Maximize)
	var terms []Term
	for j := 0; j < n; j++ {
		v := m.AddBinary("x")
		m.SetObjCoef(v, 100+10*rng.Float64())
		terms = append(terms, Term{Var: v, Coef: 60 + 10*rng.Float64()})
	}
	m.AddConstraint("cap", terms, LE, 60*float64(n)/2)
	return m
}

func TestMaxNodesLimit(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxNodes int
		// noIncumbent: the cap stops the search before it finds one.
		noIncumbent bool
	}{
		{"incumbent in hand", 3, false},
		// No rounder and a fractional root: the cap is reached at the
		// first pop, so there is neither a solution nor a proof.
		{"root only", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := hardKnapsack(20, 5)
			res, err := Solve(context.Background(), m, Options{MaxNodes: tc.maxNodes})
			if err != nil {
				t.Fatal(err)
			}
			if res.Nodes > tc.maxNodes+1 {
				t.Fatalf("nodes=%d exceeds limit", res.Nodes)
			}
			if tc.noIncumbent {
				if res.Status != StatusNodeLimit || res.X != nil {
					t.Fatalf("status=%v x=%v, want %v and no solution", res.Status, res.X, StatusNodeLimit)
				}
				return
			}
			// With so few nodes the status should usually be Feasible
			// (incumbent without proof) — it must never claim optimality
			// falsely relative to its own bound.
			if res.Status == StatusOptimal && res.Gap > 1e-6 {
				t.Fatalf("claimed optimal with gap %v", res.Gap)
			}
		})
	}
}

func TestGapTolStopsEarly(t *testing.T) {
	m := hardKnapsack(16, 7)
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Second)
	defer cancel()
	exact, err := Solve(ctx, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Solve(ctx, m, Options{GapTol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if loose.X == nil {
		t.Fatal("gap-limited solve returned no incumbent")
	}
	// The gap-limited objective must be within 5% of the exact optimum
	// (maximization: within 5% below).
	if exact.Status == StatusOptimal {
		if loose.Objective < exact.Objective*0.95-1e-6 {
			t.Fatalf("gap solve %v too far below optimum %v", loose.Objective, exact.Objective)
		}
	}
}

// TestTimeLimitRespected: a wall-clock budget is a ctx deadline, and the
// search stops on it between nodes.
func TestTimeLimitRespected(t *testing.T) {
	m := hardKnapsack(40, 11)
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	res, err := Solve(ctx, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Allow slack for the in-flight LP to finish.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("solve ran %v past a 300ms limit", elapsed)
	}
	if res.X == nil && res.Status == StatusFeasible {
		t.Fatal("feasible status without a solution")
	}
}

func TestRounderSuppliesIncumbent(t *testing.T) {
	m := hardKnapsack(20, 3)
	calls := 0
	// Round everything down: always feasible for a ≤ knapsack.
	rounder := func(mm *Model, x []float64) []float64 {
		calls++
		out := make([]float64, len(x))
		for i, v := range x {
			if v >= 1-1e-9 {
				out[i] = 1
			}
		}
		return out
	}
	res, err := Solve(context.Background(), m, Options{Rounder: rounder, MaxNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("rounder never invoked")
	}
	if res.X == nil {
		t.Fatal("rounder incumbent not adopted")
	}
	if ok, name := m.Feasible(res.X, 1e-6); !ok {
		t.Fatalf("incumbent violates %q", name)
	}
}

func TestUnsoundRounderIsHarmless(t *testing.T) {
	// A rounder that returns infeasible garbage must not corrupt results.
	m := NewModel()
	a := m.AddBinary("a")
	b := m.AddBinary("b")
	m.SetDirection(Maximize)
	m.SetObjCoef(a, 3)
	m.SetObjCoef(b, 2)
	m.AddConstraint("c", []Term{{a, 1}, {b, 1}}, LE, 1)
	bad := func(mm *Model, x []float64) []float64 { return []float64{1, 1} } // violates c
	res, err := Solve(context.Background(), m, Options{Rounder: bad})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal || math.Abs(res.Objective-3) > 1e-9 {
		t.Fatalf("status=%v obj=%v, want optimal 3", res.Status, res.Objective)
	}
}

func TestBoundsTighterThanIntegrality(t *testing.T) {
	// Branch bounds interact with model bounds: x in [0,3] integer.
	m := NewModel()
	x := m.AddVar("x", 0, 3, true)
	y := m.AddVar("y", 0, 3, true)
	m.SetDirection(Maximize)
	m.SetObjCoef(x, 2)
	m.SetObjCoef(y, 3)
	m.AddConstraint("c", []Term{{x, 2}, {y, 3}}, LE, 11)
	res, err := Solve(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Best: y=3 (9 weight, obj 9) + x=1 (2 weight, obj 2) = 11.
	if res.Status != StatusOptimal || math.Abs(res.Objective-11) > 1e-9 {
		t.Fatalf("obj=%v status=%v want 11", res.Objective, res.Status)
	}
}
