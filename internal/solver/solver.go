// Package solver is the pluggable solving layer over Wishbone's
// partitioner. It re-exports the Solver contract from internal/core and
// builds a fixed lineup of backends:
//
//   - "exact"       — the branch-and-bound ILP (§4.2), optimal and the
//     reference every other backend is tested against.
//   - "lagrangian"  — the §9-style relaxation: CPU/network/RAM budgets are
//     priced into the objective with multipliers driven by subgradient
//     updates; each subproblem is a minimum-closure cut solved exactly by
//     max-flow, and infeasible iterates are repaired to a legal cut. It
//     produces a true dual lower bound, so its answers carry a proven gap.
//   - "greedy"      — the cut-ordering baseline: enumerate monotone cuts
//     along a topological order and keep the best feasible one.
//
// Backends construct from core.Options so the formulation and the solve
// limits (MaxNodes, GapTol) flow through one type; a wall-clock budget is
// the ctx deadline. New builds one by name.
package solver

import (
	"fmt"

	"wishbone/internal/core"
)

// Solver and Stats are the backend contract; they live in core so the
// rate search can consume backends without an import cycle, and are
// re-exported here as the package's canonical names.
type (
	// Solver is one partitioning backend.
	Solver = core.Solver
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
	}
	return nil, fmt.Errorf("solver: unknown backend %q (have %v)", name, Names())
}

// Names returns the backend names New accepts, sorted.
func Names() []string {
	return []string{core.SolverExact, core.SolverGreedy, core.SolverLagrangian}
}
