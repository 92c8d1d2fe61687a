package wishbone

import (
	"context"
	"fmt"

	"wishbone/internal/core"
	"wishbone/internal/dataflow"
	"wishbone/internal/netsim"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
	"wishbone/internal/solver"
)

// Planner is the composable front door to the Wishbone pipeline: one
// configured object exposing Profile, Partition, AutoPartition, and
// Simulate, with the solving backend, relocation mode, partitioner
// options, and rate-search parameters fixed at construction. A Planner is
// immutable and safe for concurrent use; the zero-configuration
// NewPlanner() reproduces the paper's defaults (exact ILP, permissive
// relocation, restricted formulation, §4.3 rate search to 0.5%
// precision) — and is exactly what the deprecated package-level free
// functions delegate to.
//
//	p := wishbone.NewPlanner(wishbone.WithSolver("race"))
//	dep, err := p.AutoPartition(ctx, g, inputs, wishbone.TMoteSky())
type Planner struct {
	mode       Mode
	opts       Options
	limits     core.Limits
	solverName string
	raceWith   []string
	rateHi     float64
	rateTol    float64

	sv     core.Solver
	buildE error
}

// PlannerOption configures a Planner.
type PlannerOption func(*Planner)

// WithSolver selects the solving backend by name: "exact"
// (default), "lagrangian", "greedy", or "race".
func WithSolver(name string) PlannerOption {
	return func(p *Planner) { p.solverName = name; p.raceWith = nil }
}

// WithRace races the named backends concurrently and keeps the best
// feasible answer (exact wins ties); with no arguments it races every
// built-in backend.
func WithRace(backends ...string) PlannerOption {
	return func(p *Planner) { p.solverName = core.SolverRace; p.raceWith = backends }
}

// WithMode selects conservative or permissive stateful-operator
// relocation (§2.1.1). Default Permissive.
func WithMode(m Mode) PlannerOption {
	return func(p *Planner) { p.mode = m }
}

// WithOptions replaces the partitioner options (formulation,
// preprocessing, solver limits).
func WithOptions(o Options) PlannerOption {
	return func(p *Planner) { p.opts = o }
}

// WithRateSearch tunes the §4.3 fallback: hi is the highest rate scale
// probed (≤0 keeps 1.0, the profiled full rate) and tol its relative
// precision (≤0 keeps 0.005).
func WithRateSearch(hi, tol float64) PlannerOption {
	return func(p *Planner) {
		if hi > 0 {
			p.rateHi = hi
		}
		if tol > 0 {
			p.rateTol = tol
		}
	}
}

// NewPlanner builds a Planner; with no options it reproduces the paper
// defaults. An unknown solver name surfaces as an error from the first
// method call.
func NewPlanner(options ...PlannerOption) *Planner {
	p := &Planner{
		mode:       Permissive,
		opts:       core.DefaultOptions(),
		solverName: core.SolverExact,
		rateHi:     1.0,
		rateTol:    0.005,
	}
	for _, o := range options {
		o(p)
	}
	p.limits = core.Limits{
		TimeLimit: p.opts.TimeLimit,
		MaxNodes:  p.opts.MaxNodes,
		GapTol:    p.opts.GapTol,
	}
	if p.solverName == core.SolverRace && len(p.raceWith) > 0 {
		p.sv, p.buildE = solver.NewRace(p.opts, p.raceWith...)
	} else {
		p.sv, p.buildE = solver.New(p.solverName, p.opts)
	}
	return p
}

// Solver returns the configured backend's name.
func (p *Planner) Solver() string { return p.solverName }

// Profile executes the graph against sample traces and measures operator
// costs and stream rates (§3).
func (p *Planner) Profile(ctx context.Context, g *Graph, inputs []Input) (*Report, error) {
	if err := p.err(ctx); err != nil {
		return nil, err
	}
	return profile.Run(g, inputs)
}

// Partition solves a fully specified partitioning problem with the
// configured backend (§4.2 exact, or a heuristic / race).
func (p *Planner) Partition(ctx context.Context, s *Spec) (*Assignment, error) {
	if err := p.err(ctx); err != nil {
		return nil, err
	}
	asg, _, err := p.sv.Solve(ctx, s, p.limits)
	return asg, err
}

// AutoPartition runs the full Wishbone pipeline: profile the program on
// sample inputs, classify operators (the configured mode controls
// stateful relocation), build the platform's partitioning problem, and
// solve it with the configured backend. When no feasible partition exists
// at full rate it binary-searches the maximum sustainable rate (§4.3) and
// returns the partition there.
//
// When no rate is feasible at all the error wraps *core.ErrInfeasible, so
// callers can errors.As on infeasibility.
func (p *Planner) AutoPartition(ctx context.Context, g *Graph, inputs []Input, plat *Platform) (*Deployment, error) {
	if err := p.err(ctx); err != nil {
		return nil, err
	}
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	rep, err := profile.Run(g, inputs)
	if err != nil {
		return nil, err
	}
	cls, err := dataflow.Classify(g, p.mode)
	if err != nil {
		return nil, err
	}
	spec := profile.BuildSpec(cls, rep, plat)
	dep := &Deployment{Report: rep, Spec: spec}

	// Full rate first; when overloaded, the maximum sustainable rate
	// (§4.3) — one re-entrant core call, shared with the partition
	// service.
	res, err := core.AutoPartitionWith(ctx, spec, p.rateHi, p.rateTol, p.limits, p.sv)
	if err != nil {
		return nil, err
	}
	if res.Assignment == nil {
		return nil, fmt.Errorf("wishbone: no feasible partition at any rate on %s: %w",
			plat.Name, &core.ErrInfeasible{Spec: spec})
	}
	dep.Assignment = res.Assignment
	dep.RateMultiple = res.RateMultiple
	dep.Solves = res.Solves
	return dep, nil
}

// Simulate deploys a partitioned program on a simulated network of the
// platform's nodes and measures input loss, network loss, and goodput
// (§7.3's validation methodology).
func (p *Planner) Simulate(ctx context.Context, d *Deployment, plat *Platform, nodes int, seconds float64,
	inputs func(nodeID int) []Input, seed int64) (*SimResult, error) {
	if err := p.err(ctx); err != nil {
		return nil, err
	}
	return runtime.Run(runtime.Config{
		Graph:     d.Spec.Graph,
		OnNode:    d.Assignment.OnNode,
		Platform:  plat,
		Nodes:     nodes,
		Duration:  seconds,
		RateScale: d.RateMultiple,
		Inputs:    inputs,
		Seed:      seed,
	})
}

// NetworkProfile sweeps the platform's shared channel and returns the
// maximum aggregate send rate that keeps reception above target — the
// paper's network-profiling tool (§7.3.1).
func (p *Planner) NetworkProfile(ctx context.Context, plat *Platform, target float64) (maxAirBytesPerSec float64, err error) {
	if err := p.err(ctx); err != nil {
		return 0, err
	}
	return netsim.ChannelFor(plat).MaxSendRate(target)
}

// err folds construction and context errors into every method's entry.
func (p *Planner) err(ctx context.Context) error {
	if p.buildE != nil {
		return p.buildE
	}
	return ctx.Err()
}
