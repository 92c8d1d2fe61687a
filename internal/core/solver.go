package core

import (
	"context"
	"math"
	"time"
)

// Canonical backend names. Construction by name lives in
// internal/solver (solver.New); core knows only the names it stamps on
// stats.
const (
	SolverExact      = "exact"
	SolverLagrangian = "lagrangian"
	SolverGreedy     = "greedy"
)

// Limits carries nothing: a solve's count limits (MaxNodes, GapTol) live
// in the backend's Options and its wall-clock budget is ctx. The type and
// AutoPartitionWith's parameter of it remain only because bench/sut.go
// passes core.Limits{} to AutoPartitionWith.
type Limits struct{}

// BackendStats reports one backend's Solve call.
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

	// Err carries a failing backend's error text.
	Err string `json:"error,omitempty"`
}

// Solver is one partitioning backend: the exact branch-and-bound ILP, the
// §9-style Lagrangian relaxation, or the greedy cut-ordering baseline.
// Implementations must be safe for concurrent use (Solve may be called
// from many goroutines over shared Specs) and must return assignments
// that pass Assignment.Verify, or an error.
//
// Infeasibility is reported as an error matching *ErrInfeasible via
// errors.As. For heuristic backends this means "this backend found no
// feasible assignment", which is what a rate search needs; only the exact
// backend's infeasibility is a proof.
type Solver interface {
	// Name returns the backend's name.
	Name() string

	// Solve computes an assignment for s; ctx bounds it.
	Solve(ctx context.Context, s *Spec) (*Assignment, BackendStats, error)
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

// Solve runs the exact ILP.
func (e Exact) Solve(ctx context.Context, s *Spec) (*Assignment, BackendStats, error) {
	start := time.Now()
	asg, err := Partition(ctx, s, e.Opts)
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
	return asg, stats, nil
}
