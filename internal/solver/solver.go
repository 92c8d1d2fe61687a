// Package solver is the pluggable solving layer over Wishbone's
// partitioner. It defines the Solver contract (shared with internal/core,
// which hosts the Race combinator) and a fixed lineup of backends:
//
//   - "exact"       — the branch-and-bound ILP (§4.2), optimal and the
//     tie-breaking reference for every other backend.
//   - "lagrangian"  — the §9-style relaxation: CPU/network/RAM budgets are
//     priced into the objective with multipliers driven by subgradient
//     updates; each subproblem is a minimum-closure cut solved exactly by
//     max-flow, and infeasible iterates are repaired to a legal cut. It
//     produces a true dual lower bound, so its answers carry a proven gap.
//   - "greedy"      — the cut-ordering baseline: enumerate monotone cuts
//     along a topological order and keep the best feasible one.
//   - "race"        — exact, lagrangian and greedy raced concurrently
//     (core.Race): first feasible answer seeds a shared incumbent bound,
//     the exact backend wins ties, and cancellation stops the losers.
//
// Backends construct from core.Options so the formulation and the solve
// limits (MaxNodes, GapTol) flow through one type; a wall-clock budget is
// the ctx deadline. New builds one by name.
package solver

import (
	"fmt"

	"wishbone/internal/core"
)

// Solver, Limits, and Stats are the backend contract; they live in core so
// the Race combinator and the rate search can consume backends without an
// import cycle, and are re-exported here as the package's canonical names.
type (
	// Solver is one partitioning backend.
	Solver = core.Solver
	// Limits carries per-call state (a race's shared Incumbent).
	Limits = core.Limits
	// Stats is per-backend solve telemetry.
	Stats = core.BackendStats
)

// New builds the named backend over opts. Name "" defaults to "exact".
func New(name string, opts core.Options) (Solver, error) {
	switch name {
	case "", core.SolverExact:
		return core.NewExact(opts), nil
	case core.SolverLagrangian:
		return NewLagrangian(opts), nil
	case core.SolverGreedy:
		return Greedy{}, nil
	case core.SolverRace:
		// Exact first, so optimal answers win ties deterministically.
		return core.Raced{Backends: []Solver{core.NewExact(opts), NewLagrangian(opts), Greedy{}}}, nil
	}
	return nil, fmt.Errorf("solver: unknown backend %q (have %v)", name, Names())
}

// Names returns the backend names New accepts, sorted.
func Names() []string {
	return []string{core.SolverExact, core.SolverGreedy, core.SolverLagrangian, core.SolverRace}
}
