package netsim

import (
	"math"
	"math/rand"
	"testing"
)

// TestChurnDeterminism pins the purity contract the runtime's parity
// depends on: Alive(node, t) is a fixed function of (seed, node, t), an
// incremental walker agrees with fresh replays at every query, and
// backward queries restart correctly.
func TestChurnDeterminism(t *testing.T) {
	c := &Churn{Seed: 11, MeanUp: 3, MeanDown: 2}
	for node := 0; node < 5; node++ {
		w := c.WalkerFor(node)
		for _, tq := range []float64{0, 0.5, 1, 2.5, 4, 7, 7, 11, 20, 3, 9} {
			got := w.Alive(tq) // includes a backward query (20 → 3)
			want := c.Alive(node, tq)
			if got != want {
				t.Fatalf("node %d t=%g: walker %v, fresh replay %v", node, tq, got, want)
			}
		}
	}
	// Same seed → same schedule; a different seed must diverge somewhere.
	c2 := &Churn{Seed: 11, MeanUp: 3, MeanDown: 2}
	c3 := &Churn{Seed: 12, MeanUp: 3, MeanDown: 2}
	same, diff := true, false
	for node := 0; node < 8; node++ {
		for tq := 0.0; tq < 30; tq += 0.25 {
			if c.Alive(node, tq) != c2.Alive(node, tq) {
				same = false
			}
			if c.Alive(node, tq) != c3.Alive(node, tq) {
				diff = true
			}
		}
	}
	if !same {
		t.Fatal("identical seeds produced different schedules")
	}
	if !diff {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

// TestChurnPhases checks the model's shape: every node starts alive,
// crashes at its first up-time draw, and with MeanDown=0 the crash is
// permanent.
func TestChurnPhases(t *testing.T) {
	perm := &Churn{Seed: 5, MeanUp: 2, MeanDown: 0}
	for node := 0; node < 6; node++ {
		if !perm.Alive(node, 0) {
			t.Fatalf("node %d not alive at t=0", node)
		}
		ct := expDraw(rand.New(rand.NewSource(NodeSeed(perm.Seed, node))), perm.MeanUp)
		if ct <= 0 || math.IsInf(ct, 0) {
			t.Fatalf("node %d crash time %g", node, ct)
		}
		if perm.Alive(node, ct*0.99) != true {
			t.Fatalf("node %d dead before its crash time", node)
		}
		for _, after := range []float64{ct, ct + 1, ct * 10, ct + 1e6} {
			if perm.Alive(node, after) {
				t.Fatalf("node %d revived at t=%g despite MeanDown=0", node, after)
			}
		}
	}
	// With a rejoin time, some node must be back up after its first crash.
	rejoin := &Churn{Seed: 5, MeanUp: 2, MeanDown: 0.5}
	revived := false
	for node := 0; node < 6 && !revived; node++ {
		ct := expDraw(rand.New(rand.NewSource(NodeSeed(rejoin.Seed, node))), rejoin.MeanUp)
		for tq := ct; tq < ct+50; tq += 0.1 {
			if rejoin.Alive(node, tq) {
				revived = true
				break
			}
		}
	}
	if !revived {
		t.Fatal("no node ever rejoined despite MeanDown=0.5")
	}
}

// TestBurstChain pins the Gilbert–Elliott chain: starts good, walker
// agrees with fresh replays (including backward queries), one uniform
// per step keeps the chain a fixed function of the index, and Factor
// maps states to multipliers.
func TestBurstChain(t *testing.T) {
	b := &Burst{Seed: 3, PGoodBad: 0.3, PBadGood: 0.4, BadFactor: 0.25}
	if b.Bad(0) {
		t.Fatal("chain did not start in the good state")
	}
	w := b.Walker()
	for _, idx := range []int{0, 1, 2, 5, 9, 9, 30, 4, 17} {
		if got, want := w.Bad(idx), b.Bad(idx); got != want {
			t.Fatalf("window %d: walker %v, fresh replay %v", idx, got, want)
		}
	}
	sawBad, sawGood := false, false
	wf := b.Walker()
	for idx := 0; idx < 200; idx++ {
		bad := b.Bad(idx)
		sawBad = sawBad || bad
		sawGood = sawGood || !bad
		want := 1.0
		if bad {
			want = 0.25
		}
		if got := wf.Factor(idx); got != want {
			t.Fatalf("window %d: factor %g, want %g", idx, got, want)
		}
	}
	if !sawBad || !sawGood {
		t.Fatalf("chain never mixed states in 200 windows (bad=%v good=%v)", sawBad, sawGood)
	}
}

// TestScenarioValidate sweeps the parameter guards.
func TestScenarioValidate(t *testing.T) {
	var nilScen *Scenario
	if err := nilScen.Validate(); err != nil {
		t.Fatalf("nil scenario must validate (disabled): %v", err)
	}
	bad := []*Scenario{
		{}, // no model at all
		{Churn: &Churn{MeanUp: 0}},
		{Churn: &Churn{MeanUp: -1}},
		{Churn: &Churn{MeanUp: math.Inf(1)}},
		{Churn: &Churn{MeanUp: 1, MeanDown: -0.1}},
		{Churn: &Churn{MeanUp: 1, MeanDown: math.NaN()}},
		{Burst: &Burst{PGoodBad: -0.1, PBadGood: 0.5, BadFactor: 0.5}},
		{Burst: &Burst{PGoodBad: 0.5, PBadGood: 1.1, BadFactor: 0.5}},
		{Burst: &Burst{PGoodBad: 0.5, PBadGood: 0.5, BadFactor: 2}},
		{Burst: &Burst{PGoodBad: math.NaN(), PBadGood: 0.5, BadFactor: 0.5}},
	}
	for i, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Fatalf("case %d: invalid scenario %+v validated", i, sc)
		}
	}
	good := []*Scenario{
		{Churn: &Churn{MeanUp: 5}},
		{Churn: &Churn{MeanUp: 5, MeanDown: 2}},
		{Burst: &Burst{PGoodBad: 0.2, PBadGood: 0.8, BadFactor: 0}},
		{Churn: &Churn{MeanUp: 5}, Burst: &Burst{PGoodBad: 1, PBadGood: 1, BadFactor: 1}},
	}
	for i, sc := range good {
		if err := sc.Validate(); err != nil {
			t.Fatalf("case %d: valid scenario rejected: %v", i, err)
		}
	}
}

// Alive reports whether node is up at simulated time t. Pure function:
// the schedule replays from t=0 on every call. Callers on a hot path with
// nondecreasing queries should hold a ChurnWalker instead.
func (c *Churn) Alive(node int, t float64) bool {
	w := c.WalkerFor(node)
	return w.Alive(t)
}

// Bad reports the chain state at the given window index (the chain
// starts good at window 0 and steps once per window). Pure replay; hot
// paths should hold a BurstWalker.
func (b *Burst) Bad(window int) bool {
	return b.Walker().Bad(window)
}
