// Solver racing: run several backends concurrently over one spec and keep
// the best feasible answer. The paper's §9 anticipates cheaper
// relaxation-based solvers for large graphs; racing lets the service hedge
// — the exact ILP wins whenever it finishes (it is optimal and wins ties
// by construction), while under a deadline the heuristics' fast feasible
// answers stand in for the incumbent the tree search hasn't reached yet.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"
)

// raceTieTol is the objective tolerance within which two backends' answers
// count as tied.
const raceTieTol = 1e-9

// Race runs every solver concurrently under a shared context and returns
// the best feasible assignment:
//
//   - Every backend gets the same spec and limits; a shared Incumbent is
//     installed (unless the caller provided one) so the first feasible
//     answer to arrive serves as an upper bound the others can prune
//     against.
//   - As soon as the exact backend proves optimality the race is decided
//     and the remaining backends are cancelled.
//   - The winner is the feasible, Verify-clean assignment with the lowest
//     objective; on ties the exact backend wins, then earlier position in
//     solvers.
//
// The returned BackendStats has Backend "race" and one Sub entry per
// backend (in solvers order) with per-backend latency, objective, and the
// Winner flag — the service's per-backend win/latency metrics come from
// it. Race never returns an assignment that fails Assignment.Verify.
//
// When no backend finds a feasible assignment, Race returns the exact
// backend's error if it ran (its infeasibility is a proof), else the first
// backend's.
func Race(ctx context.Context, s *Spec, lim Limits, solvers ...Solver) (*Assignment, BackendStats, error) {
	stats := BackendStats{Backend: SolverRace}
	if len(solvers) == 0 {
		return nil, stats, fmt.Errorf("core: race with no solvers")
	}
	start := time.Now()
	if lim.Incumbent == nil {
		lim.Incumbent = &Incumbent{}
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		idx   int
		asg   *Assignment
		stats BackendStats
		err   error
	}
	results := make(chan outcome, len(solvers))
	for i, sv := range solvers {
		go func(i int, sv Solver) {
			asg, st, err := sv.Solve(ctx, s, lim)
			if err == nil && asg != nil {
				// Defensive: a racing backend must never leak an illegal
				// cut into the winner selection.
				if verr := asg.Verify(s); verr != nil {
					err = fmt.Errorf("core: %s returned an invalid assignment: %w", sv.Name(), verr)
					asg = nil
					st.Err = err.Error()
					st.Feasible = false
				} else {
					lim.Incumbent.Offer(asg.Objective)
				}
			}
			results <- outcome{idx: i, asg: asg, stats: st, err: err}
		}(i, sv)
	}

	outcomes := make([]outcome, len(solvers))
	for n := 0; n < len(solvers); n++ {
		o := <-results
		outcomes[o.idx] = o
		// An optimality proof — or the exact backend's infeasibility
		// proof, common during rate-search probes — decides the race;
		// stop the stragglers and drain them (every backend honors
		// cancellation promptly).
		if o.err == nil && o.stats.Optimal {
			cancel()
		}
		if o.err != nil && solvers[o.idx].Name() == SolverExact && IsInfeasible(o.err) {
			cancel()
		}
	}

	// Pick the winner: lowest objective, exact breaking ties, then solver
	// order. Iterating in solvers order with strict improvement makes the
	// choice deterministic.
	win := -1
	for i, o := range outcomes {
		if o.err != nil || o.asg == nil {
			continue
		}
		if win == -1 || o.asg.Objective < outcomes[win].asg.Objective-raceTieTol {
			win = i
			continue
		}
		tied := math.Abs(o.asg.Objective-outcomes[win].asg.Objective) <= raceTieTol
		if tied && solvers[i].Name() == SolverExact && solvers[win].Name() != SolverExact {
			win = i
		}
	}

	for i := range outcomes {
		st := outcomes[i].stats
		st.Winner = i == win
		stats.Sub = append(stats.Sub, st)
	}
	stats.Seconds = time.Since(start).Seconds()

	if win == -1 {
		err := outcomes[0].err
		for i, sv := range solvers {
			if sv.Name() == SolverExact && outcomes[i].err != nil {
				err = outcomes[i].err
				break
			}
		}
		if err == nil {
			err = fmt.Errorf("core: race found no feasible assignment")
		}
		return nil, stats, err
	}

	best := outcomes[win]
	stats.Feasible = true
	stats.Optimal = best.stats.Optimal
	stats.Objective = best.asg.Objective
	// The race's proven bound is the tightest any backend established.
	stats.Bound, stats.Gap = math.Inf(-1), -1
	for _, sub := range stats.Sub {
		// Only backends that actually finished with a bound count; an
		// errored backend's zero-value stats are not an established bound.
		if sub.Err == "" && sub.Gap >= 0 && (stats.Gap < 0 || sub.Bound > stats.Bound) {
			stats.Bound = sub.Bound
			stats.Gap = math.Max(0, (stats.Objective-sub.Bound)/math.Max(1, math.Abs(stats.Objective)))
		}
	}
	if stats.Gap < 0 {
		stats.Bound = 0
	}

	// Return the winner's assignment untouched: a raced win is
	// byte-identical to a standalone run of that backend (Stats.Solver
	// still names the producing backend; the race's own BackendStats says
	// who won and how tight the raced bound is).
	return best.asg, stats, nil
}

// Raced packages Race as a Solver so racing composes everywhere a single
// backend does (rate searches, the Planner, the partition service).
type Raced struct {
	Backends []Solver
}

// NewRaced returns a racing Solver over the given backends.
func NewRaced(backends ...Solver) Raced { return Raced{Backends: backends} }

// Name returns "race".
func (Raced) Name() string { return SolverRace }

// Solve races the backends.
func (r Raced) Solve(ctx context.Context, s *Spec, lim Limits) (*Assignment, BackendStats, error) {
	return Race(ctx, s, lim, r.Backends...)
}

// IsInfeasible reports whether err (possibly wrapped) is an *ErrInfeasible
// — the signal rate searches branch on.
func IsInfeasible(err error) bool {
	var ie *ErrInfeasible
	return errors.As(err, &ie)
}
