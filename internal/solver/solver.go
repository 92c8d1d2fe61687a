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
//   - "race"        — all of the above raced concurrently (core.Race):
//     first feasible answer seeds a shared incumbent bound, the exact
//     backend wins ties, and cancellation stops the losers.
//
// Backends construct from core.Options so the formulation/limit knobs flow
// through one type; New builds one by name.
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
	// Limits bounds one Solve call.
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
		return NewGreedy(opts), nil
	case core.SolverRace:
		return NewRace(opts)
	}
	return nil, fmt.Errorf("solver: unknown backend %q (have %v)", name, Names())
}

// Names returns the backend names New accepts, sorted.
func Names() []string {
	return []string{core.SolverExact, core.SolverGreedy, core.SolverLagrangian, core.SolverRace}
}

// RaceBackends are the backends a "race" solve runs, in tie-breaking
// order (exact first, so optimal answers win ties deterministically).
var RaceBackends = []string{core.SolverExact, core.SolverLagrangian, core.SolverGreedy}

// NewRace builds a racing solver over the named backends (RaceBackends
// when none are given).
func NewRace(opts core.Options, backends ...string) (Solver, error) {
	if len(backends) == 0 {
		backends = RaceBackends
	}
	svs := make([]Solver, 0, len(backends))
	for _, name := range backends {
		if name == core.SolverRace {
			return nil, fmt.Errorf("solver: race cannot nest itself")
		}
		sv, err := New(name, opts)
		if err != nil {
			return nil, err
		}
		svs = append(svs, sv)
	}
	return core.NewRaced(svs...), nil
}
