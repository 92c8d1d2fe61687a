package solver

import (
	"math"
	"math/rand"
	"testing"

	"wishbone/internal/core"
)

// peakSpec derives a spec whose peak statistics dominate the means (the
// shape profiling produces: a peak is a max over windows, never below the
// mean).
func peakSpec(rng *rand.Rand) *core.Spec {
	s := randomSpec(rng)
	for id, c := range s.CPU {
		c.Peak = c.Mean * (1 + rng.Float64())
		s.CPU[id] = c
	}
	for e, b := range s.Bandwidth {
		b.Peak = b.Mean * (1 + rng.Float64())
		s.Bandwidth[e] = b
	}
	return s
}

// TestVariantTagRoundTrip pins Tag/VariantFromTag as inverses over every
// (formulation, load) pair.
func TestVariantTagRoundTrip(t *testing.T) {
	for _, v := range []Variant{
		{Backend: core.SolverExact, Formulation: core.Restricted},
		{Backend: core.SolverExact, Formulation: core.Restricted, PeakLoad: true},
		{Backend: core.SolverLagrangian, Formulation: core.General},
		{Backend: core.SolverGreedy, Formulation: core.General, PeakLoad: true},
	} {
		got, err := VariantFromTag(v.Backend, v.Tag())
		if err != nil {
			t.Fatalf("VariantFromTag(%q, %q): %v", v.Backend, v.Tag(), err)
		}
		if got != v {
			t.Fatalf("round trip %+v → %q → %+v", v, v.Tag(), got)
		}
	}
	if _, err := VariantFromTag(core.SolverExact, "restricted"); err == nil {
		t.Fatal("tag without a load statistic must not parse")
	}
	if _, err := VariantFromTag(core.SolverExact, "cubic/mean"); err == nil {
		t.Fatal("unknown formulation must not parse")
	}
}

// TestVariantRaceDeterministic races heterogeneous variants — formulation
// and load-statistic diversity, not just algorithms — over random specs
// and pins the contract: the winning cut verifies against the caller's
// (mean-load) spec, never beats the exact optimum, and repeated races
// return the identical assignment.
func TestVariantRaceDeterministic(t *testing.T) {
	variants := []Variant{
		{Backend: core.SolverExact, Formulation: core.Restricted},
		{Backend: core.SolverExact, Formulation: core.Restricted, PeakLoad: true},
		{Backend: core.SolverLagrangian, Formulation: core.Restricted},
		{Backend: core.SolverGreedy, Formulation: core.Restricted},
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		s := peakSpec(rng)
		sv, err := NewVariantRace(core.DefaultOptions(), variants...)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(core.SolverExact, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		exact, _, exactErr := ref.Solve(ctxBG(), s, Limits{})

		asg, st, err := sv.Solve(ctxBG(), s, Limits{})
		if exactErr != nil {
			// The mean problem is infeasible; the peak variant must not
			// smuggle in a cut (its answers can only be tighter).
			if err == nil {
				t.Fatalf("trial %d: race found a cut on a spec exact proves infeasible", trial)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if verr := asg.Verify(s); verr != nil {
			t.Fatalf("trial %d: winner fails caller-spec verification: %v", trial, verr)
		}
		if asg.Objective < exact.Objective-1e-9 {
			t.Fatalf("trial %d: race objective %g beats the proven optimum %g",
				trial, asg.Objective, exact.Objective)
		}
		if len(st.Sub) != len(variants) {
			t.Fatalf("trial %d: want %d per-variant stats, got %d", trial, len(variants), len(st.Sub))
		}
		for i, sub := range st.Sub {
			if sub.Err != "" {
				continue
			}
			if want := variants[i].Tag(); sub.Formulation != want {
				t.Fatalf("trial %d: variant %d reports formulation %q, want %q",
					trial, i, sub.Formulation, want)
			}
		}

		again, _, err := sv.Solve(ctxBG(), s, Limits{})
		if err != nil {
			t.Fatalf("trial %d repeat: %v", trial, err)
		}
		if canon(t, s, again) != canon(t, s, asg) {
			t.Fatalf("trial %d: repeated variant race diverged", trial)
		}
	}
}

// TestVariantRaceDeterministicPeakInfeasible pins the case the random specs
// above only sometimes hit: the mean problem is feasible, the peak problem
// is not. The peak-statistic exact variant proves *its* problem infeasible
// almost at once; that must not end the race (it used to cancel the real
// exact entrant, leaving whichever heuristic had finished — or nothing — as
// the winner). The race returns the exact optimum, identically every time.
func TestVariantRaceDeterministicPeakInfeasible(t *testing.T) {
	variants := []Variant{
		{Backend: core.SolverExact, Formulation: core.Restricted, PeakLoad: true},
		{Backend: core.SolverExact, Formulation: core.Restricted},
		{Backend: core.SolverLagrangian, Formulation: core.Restricted},
		{Backend: core.SolverGreedy, Formulation: core.Restricted},
	}
	ref, err := New(core.SolverExact, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	tried := 0
	for trial := 0; trial < 40; trial++ {
		s := randomSpec(rng)
		exact, _, err := ref.Solve(ctxBG(), s, Limits{})
		if err != nil {
			continue // mean-infeasible: covered by TestVariantRaceDeterministic
		}
		// Sources are pinned to the node, so a peak far above any budget
		// makes every cut peak-infeasible.
		for id, c := range s.CPU {
			c.Peak = c.Mean * 1000
			s.CPU[id] = c
		}
		ps := *s
		ps.Load = core.PeakLoad
		if _, _, err := ref.Solve(ctxBG(), &ps, Limits{}); !core.IsInfeasible(err) {
			t.Fatalf("trial %d: peak problem should be infeasible, got %v", trial, err)
		}
		tried++

		sv, err := NewVariantRace(core.DefaultOptions(), variants...)
		if err != nil {
			t.Fatal(err)
		}
		var first string
		for run := 0; run < 2; run++ {
			asg, st, err := sv.Solve(ctxBG(), s, Limits{})
			if err != nil {
				t.Fatalf("trial %d run %d: %v", trial, run, err)
			}
			if !st.Optimal || !st.Sub[1].Winner {
				t.Fatalf("trial %d run %d: the mean exact entrant did not decide the race: %+v", trial, run, st.Sub)
			}
			if math.Abs(asg.Objective-exact.Objective) > 1e-9 {
				t.Fatalf("trial %d run %d: race objective %g, exact optimum %g", trial, run, asg.Objective, exact.Objective)
			}
			if st.Sub[0].Err == "" || st.Sub[0].Feasible {
				t.Fatalf("trial %d run %d: peak variant should report its own failure: %+v", trial, run, st.Sub[0])
			}
			if c := canon(t, s, asg); run == 0 {
				first = c
			} else if c != first {
				t.Fatalf("trial %d: repeated race diverged", trial)
			}
		}
	}
	if tried < 10 {
		t.Fatalf("only %d mean-feasible specs generated", tried)
	}
}

// TestVariantRaceRejectsNesting pins the constructor's guard rails.
func TestVariantRaceRejectsNesting(t *testing.T) {
	if _, err := NewVariantRace(core.DefaultOptions()); err == nil {
		t.Fatal("empty variant race must not construct")
	}
	if _, err := NewVariantRace(core.DefaultOptions(),
		Variant{Backend: core.SolverRace, Formulation: core.Restricted}); err == nil {
		t.Fatal("nested race must not construct")
	}
}
