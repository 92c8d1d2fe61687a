package solver

import (
	"context"
	"fmt"
	"strings"

	"wishbone/internal/core"
)

// Heterogeneous solver racing: a race whose entrants differ not just in
// algorithm but in Options — ILP formulation (restricted vs general) and
// load statistic (mean vs peak). The service's per-(backend, formulation)
// win metrics rank these variants, and its auto-picker races the
// historical winners on every re-plan.
//
// Formulation variants solve the caller's spec directly, so their
// objectives are immediately comparable. Load variants solve a copy of
// the spec under the peak statistic and have their winning cut re-scored
// on the caller's spec before judging: a peak-feasible cut is feasible
// under the mean statistic too (profiled peaks dominate means), but its
// peak objective and dual bound are in different units and are therefore
// discarded in favor of the re-scored objective — the race compares
// like with like, and the Verify gate in core.Race holds for every
// entrant against the one true spec.

// Variant names one heterogeneous race entrant.
type Variant struct {
	// Backend is a registered solver name ("exact", "lagrangian", ...; not
	// "race").
	Backend string
	// Formulation selects the ILP encoding this entrant solves under.
	Formulation core.Formulation
	// PeakLoad makes the entrant solve under the peak load statistic (on
	// a spec copy), re-scored on the caller's spec for comparison.
	PeakLoad bool
}

// Tag returns the metrics key this variant's solves report under, e.g.
// "restricted/peak" (core.FormulationTag).
func (v Variant) Tag() string {
	load := core.MeanLoad
	if v.PeakLoad {
		load = core.PeakLoad
	}
	return core.FormulationTag(v.Formulation, load)
}

// VariantFromTag inverts Tag: it parses a BackendStats.Formulation string
// ("restricted/mean", "general/peak", ...) back into a Variant for the
// given backend, so the service can reconstruct race lineups from its
// /v1/stats history.
func VariantFromTag(backend, tag string) (Variant, error) {
	v := Variant{Backend: backend}
	form, load, ok := strings.Cut(tag, "/")
	if !ok {
		return v, fmt.Errorf("solver: formulation tag %q is not form/load", tag)
	}
	switch form {
	case "restricted":
		v.Formulation = core.Restricted
	case "general":
		v.Formulation = core.General
	default:
		return v, fmt.Errorf("solver: unknown formulation %q in tag %q", form, tag)
	}
	switch load {
	case "mean":
	case "peak":
		v.PeakLoad = true
	default:
		return v, fmt.Errorf("solver: unknown load statistic %q in tag %q", load, tag)
	}
	return v, nil
}

// NewVariantRace builds a racing solver over heterogeneous variants. base
// supplies every option except the formulation, which each variant
// overrides. Order matters the way it does in core.Race: earlier variants
// win ties (after the exact-beats-heuristic rule).
func NewVariantRace(base core.Options, variants ...Variant) (Solver, error) {
	if len(variants) == 0 {
		return nil, fmt.Errorf("solver: variant race with no variants")
	}
	svs := make([]Solver, 0, len(variants))
	for _, v := range variants {
		if v.Backend == core.SolverRace {
			return nil, fmt.Errorf("solver: race cannot nest itself")
		}
		opts := base
		opts.Formulation = v.Formulation
		sv, err := New(v.Backend, opts)
		if err != nil {
			return nil, err
		}
		if v.PeakLoad {
			sv = peakRescored{inner: sv}
		}
		svs = append(svs, sv)
	}
	return core.NewRaced(svs...), nil
}

// peakRescored solves under the peak statistic and re-scores on the
// caller's spec. The shared race incumbent stays sound in both
// directions: this entrant offers its re-scored (mean) objective, a
// valid upper bound for the base problem; foreign (mean) offers reaching
// the inner peak solve can only over-prune the *peak* search, degrading
// this entrant's answer quality — which the race's Verify + objective
// comparison absorbs — never the base problem's correctness. Neither of its
// proofs transfers: peak optimality is reported as a plain feasible answer,
// peak infeasibility as a plain error.
type peakRescored struct {
	inner Solver
}

// Name returns the inner backend's name (tie-breaking in core.Race keys
// on it).
func (p peakRescored) Name() string { return p.inner.Name() }

// Solve runs the inner backend on a peak-load copy of the spec and
// re-scores the cut on the caller's spec.
func (p peakRescored) Solve(ctx context.Context, s *core.Spec, lim Limits) (*core.Assignment, Stats, error) {
	ps := *s
	ps.Load = core.PeakLoad
	asg, st, err := p.inner.Solve(ctx, &ps, lim)
	if core.IsInfeasible(err) {
		// No cut fits the budgets at peak load. Peaks dominate means, so
		// that proves nothing about the caller's problem: report it as this
		// entrant's failure, not as an *ErrInfeasible, which core.Race takes
		// from an "exact" entrant as the proof that ends the race.
		err = fmt.Errorf("solver: %s found no cut within budgets under the peak statistic", p.inner.Name())
		st.Err = err.Error()
	}
	if err != nil || asg == nil {
		return asg, st, err
	}
	re := core.AssignmentFromOnNode(s, asg.OnNode, asg.Bidirectional)
	re.Stats = asg.Stats
	// The peak dual bound is no bound for the mean problem, and a peak
	// "optimality" proof must not decide the race against the base exact
	// entrant.
	re.Stats.Gap = -1
	st.Objective = re.Objective
	st.Bound, st.Gap = 0, -1
	st.Optimal = false
	return re, st, nil
}
