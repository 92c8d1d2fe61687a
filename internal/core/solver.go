package core

import (
	"context"
	"math"
	"sync"
	"time"
)

// Canonical backend names. Construction by name lives in
// internal/solver (solver.New); core knows only the names it needs for
// tie-breaking and stats.
const (
	SolverExact      = "exact"
	SolverLagrangian = "lagrangian"
	SolverGreedy     = "greedy"
	SolverRace       = "race"
)

// Limits carries per-call state into one Solve call; a solve's count
// limits (MaxNodes, GapTol) live in the backend's Options and its
// wall-clock budget is ctx. Every backend must honor ctx cancellation.
type Limits struct {
	// Incumbent optionally shares feasible objectives between concurrently
	// racing backends: every backend Offers what it finds, and bound-aware
	// backends (the Lagrangian relaxation) read it to tighten their own
	// termination test. Race installs one automatically; single solves may
	// leave it nil.
	Incumbent *Incumbent
}

// BackendStats reports one backend's Solve call. Race aggregates its
// backends' stats under Sub.
type BackendStats struct {
	// Backend is the solver's name.
	Backend string `json:"backend"`

	// Seconds is the wall-clock solve time.
	Seconds float64 `json:"seconds"`

	// Feasible is true when the backend returned a budget-respecting
	// assignment; Optimal additionally means it proved optimality.
	Feasible bool `json:"feasible"`
	Optimal  bool `json:"optimal"`

	// Objective is the returned assignment's α·cpu + β·net (when feasible).
	Objective float64 `json:"objective,omitempty"`

	// Bound is the proven lower bound on the optimum, when the backend
	// produces one (branch-and-bound best bound, Lagrangian dual value).
	Bound float64 `json:"bound,omitempty"`

	// Gap is the relative gap between Objective and Bound; negative when
	// the backend has no bound.
	Gap float64 `json:"gap,omitempty"`

	// Iterations counts backend-specific work: branch-and-bound nodes,
	// subgradient iterations, or candidate cuts evaluated.
	Iterations int `json:"iterations,omitempty"`

	// Winner marks the backend whose assignment a race returned.
	Winner bool `json:"winner,omitempty"`

	// Err carries a losing or failing backend's error text.
	Err string `json:"error,omitempty"`

	// Sub is the per-backend breakdown when Backend is "race".
	Sub []BackendStats `json:"sub,omitempty"`
}

// Solver is one partitioning backend: the exact branch-and-bound ILP, the
// §9-style Lagrangian relaxation, the greedy cut-ordering baseline, or a
// racer over several of them. Implementations must be safe for concurrent
// use (Solve may be called from many goroutines over shared Specs) and
// must return assignments that pass Assignment.Verify, or an error.
//
// Infeasibility is reported as an error matching *ErrInfeasible via
// errors.As. For heuristic backends this means "this backend found no
// feasible assignment", which is what a rate search needs; only the exact
// backend's infeasibility is a proof.
type Solver interface {
	// Name returns the backend's name.
	Name() string

	// Solve computes an assignment for s within the limits.
	Solve(ctx context.Context, s *Spec, lim Limits) (*Assignment, BackendStats, error)
}

// Incumbent is a concurrency-safe shared upper bound: the best feasible
// objective any racing backend has found so far. The first feasible
// solution to arrive seeds the bound; later offers tighten it.
type Incumbent struct {
	mu  sync.Mutex
	obj float64
	ok  bool
}

// Offer records obj if it improves the shared bound and reports whether it
// did.
func (inc *Incumbent) Offer(obj float64) bool {
	if inc == nil {
		return false
	}
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if !inc.ok || obj < inc.obj {
		inc.obj, inc.ok = obj, true
		return true
	}
	return false
}

// Best returns the current bound and whether one exists.
func (inc *Incumbent) Best() (float64, bool) {
	if inc == nil {
		return 0, false
	}
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.obj, inc.ok
}

// Exact is the branch-and-bound ILP backend (§4.2): Partition behind the
// Solver interface. Opts carries the formulation, preprocessing choice and
// solve limits.
type Exact struct {
	Opts Options
}

// NewExact returns the exact backend over opts.
func NewExact(opts Options) Exact { return Exact{Opts: opts} }

// Name returns "exact".
func (Exact) Name() string { return SolverExact }

// Solve runs the exact ILP. The result is deterministic for a given spec
// and limits even when raced: Limits.Incumbent feeds the branch-and-bound
// an external prune cutoff (Restricted formulation, where the model and
// assignment objectives coincide exactly), but the cutoff margin is wider
// than the race tie tolerance and the search's best-bound order is a
// total order, so the pruned subtrees are exactly those that could never
// have produced the returned incumbent — a raced exact solve returns
// byte-identical assignments to a standalone one in fewer nodes, and
// racing ties stay exact wins by construction. Exact also Offers its
// result to the shared bound for the other backends' benefit.
func (e Exact) Solve(ctx context.Context, s *Spec, lim Limits) (*Assignment, BackendStats, error) {
	var bound func() (float64, bool)
	if inc := lim.Incumbent; inc != nil {
		bound = inc.Best
	}
	start := time.Now()
	asg, err := partition(ctx, s, e.Opts, bound)
	stats := BackendStats{Backend: SolverExact, Seconds: time.Since(start).Seconds()}
	if asg != nil {
		stats.Iterations = asg.Stats.Nodes
	}
	if err != nil {
		stats.Err = err.Error()
		return asg, stats, err
	}
	stats.Feasible = true
	stats.Optimal = asg.Stats.Gap == 0
	stats.Objective = asg.Objective
	// Invert the ILP's relative-gap convention to recover the bound.
	stats.Bound = asg.Objective - asg.Stats.Gap*math.Max(1, math.Abs(asg.Objective))
	stats.Gap = asg.Stats.Gap
	lim.Incumbent.Offer(asg.Objective)
	return asg, stats, nil
}
