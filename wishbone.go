// Package wishbone is a profile-based partitioner for sensor-network
// stream programs, reproducing "Wishbone: Profile-based Partitioning for
// Sensornet Applications" (Newton, Toledo, Girod, Balakrishnan, Madden;
// NSDI 2009).
//
// A program is a dataflow graph of operators. Operators declared in the
// Node namespace are replicated on every embedded node; the partitioner
// decides which of them actually execute there and which run on the
// server, by profiling each operator's CPU cost on the target platform and
// each stream's data rate, then solving for the cut that minimizes
// α·cpu + β·net subject to hard CPU and network budgets.
//
// Typical use — build a Planner, then drive the pipeline through it:
//
//	g := wishbone.NewGraph()
//	src := g.Add(&wishbone.Operator{Name: "mic", NS: wishbone.NSNode, SideEffect: true})
//	... build the graph, connect operators ...
//	p := wishbone.NewPlanner()                       // paper defaults: exact ILP
//	dep, err := p.AutoPartition(ctx, g, inputs, wishbone.TMoteSky())
//
// AutoPartition profiles the program on the sample inputs, classifies
// pinned/movable operators, and returns the optimal partition — or, when
// the program cannot fit at full rate, the maximum sustainable rate and the
// partition at that rate (§4.3 of the paper). Every Planner method takes a
// context; cancellation and deadlines interrupt the branch-and-bound
// search, which then returns its best incumbent with a recorded optimality
// gap instead of failing.
//
// # Solver backends and racing
//
// The solving layer is pluggable (internal/solver), with three backends:
// "exact" is the branch-and-bound ILP of §4.2; "lagrangian" is the
// §9-style relaxation (budgets priced by subgradient-driven multipliers,
// each subproblem an exact min-closure cut, answers carrying a proven
// dual gap); "greedy" is a cut-ordering baseline. A fourth name races
// them:
//
//	p := wishbone.NewPlanner(wishbone.WithSolver("race"))
//
// runs all three concurrently under one context, shares the first
// feasible objective as an incumbent bound, cancels the losers, and
// returns the best feasible assignment — the exact backend wins ties, so
// an un-deadlined race is byte-identical to the exact solve. Under a
// deadline the heuristics' fast answers stand in wherever the tree search
// has not caught up. Deployment.Solves records per-backend win/latency
// telemetry.
//
// # Execution
//
// All execution — profiling a program and simulating a deployment — goes
// through a compile/execute split: dataflow.Compile lowers a Graph once
// into an immutable Program (a flat, topologically scheduled operator
// table with dense integer indexing, partition-aware fan-out resolved at
// compile time, and preallocated state slots), and dataflow.Instance
// executes batches of injected events against it. Profiling runs one
// counted Instance; deployment simulation compiles the node partition
// once and runs one Instance per simulated node on a bounded worker pool
// (or a single replayed instance when every node is offered the identical
// trace). That is the only engine the binaries carry. The original
// tree-walking dataflow.Executor remains as the executable definition of
// the semantics, driven only from _test.go files: parity tests hold the
// compiled engine's profiles and simulation results to it byte for byte.
//
// # Partition service
//
// The profile→solve→partition loop is also available as a long-running
// multi-tenant service (internal/server, cmd/wbserved): clients submit
// graphs by description over an HTTP/JSON API and pick a solver backend
// per request; the server serves compiled Programs from a
// content-addressed LRU cache and reports per-backend win/latency metrics
// at /v1/stats. See the internal/server package docs.
//
// The subsystems are available directly for finer control: see
// internal/core (cut formulations, solver racing), internal/solver (the
// backends by name), internal/profile, internal/runtime (deployment
// simulation), internal/netsim (radio model), internal/server (the
// partition service), and internal/experiments (every figure of the
// paper's evaluation).
package wishbone

import (
	"wishbone/internal/core"
	"wishbone/internal/dataflow"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
	"wishbone/internal/viz"
)

// Re-exported graph-building types. The dataflow model is the paper's §2:
// operators with work functions and optional private state, wired into a
// DAG by streams.
type (
	// Graph is a dataflow graph of operators.
	Graph = dataflow.Graph
	// Operator is one stream operator.
	Operator = dataflow.Operator
	// Edge is one stream connecting two operators.
	Edge = dataflow.Edge
	// Ctx is the execution context passed to work functions.
	Ctx = dataflow.Ctx
	// Value is one stream element.
	Value = dataflow.Value
	// Emit sends an element downstream.
	Emit = dataflow.Emit
	// WorkFunc processes one input element.
	WorkFunc = dataflow.WorkFunc
	// Namespace is the logical partition an operator is declared in.
	Namespace = dataflow.Namespace
	// Mode selects conservative or permissive stateful-operator
	// relocation (§2.1.1).
	Mode = dataflow.Mode

	// Platform describes a target device (CPU cost model + radio).
	Platform = platform.Platform
	// Input is a sample trace for profiling.
	Input = profile.Input
	// Report is a profiling result.
	Report = profile.Report
	// Spec is a fully specified partitioning problem.
	Spec = core.Spec
	// Assignment is a computed partition.
	Assignment = core.Assignment
	// Options tune the partitioner.
	Options = core.Options
	// SolverStats is per-backend solve telemetry (latency, objective,
	// bound, race winner).
	SolverStats = core.BackendStats
)

// Namespace and mode constants (see dataflow).
const (
	NSNode       = dataflow.NSNode
	NSServer     = dataflow.NSServer
	Conservative = dataflow.Conservative
	Permissive   = dataflow.Permissive
)

// NewGraph returns an empty program graph.
func NewGraph() *Graph { return dataflow.New() }

// Platform constructors for the paper's device classes.
var (
	TMoteSky   = platform.TMoteSky
	NokiaN80   = platform.NokiaN80
	IPhone     = platform.IPhone
	Gumstix    = platform.Gumstix
	MerakiMini = platform.MerakiMini
	VoxNet     = platform.VoxNet
	Server     = platform.Server
)

// DefaultOptions returns the paper-default partitioner options
// (restricted unidirectional formulation, preprocessing enabled).
func DefaultOptions() Options { return core.DefaultOptions() }

// Deployment is the outcome of AutoPartition.
type Deployment struct {
	// Report is the profile the decision was based on.
	Report *Report
	// Spec is the partitioning problem (at full rate).
	Spec *Spec
	// Assignment is the chosen partition.
	Assignment *Assignment
	// RateMultiple is the input-rate scale the assignment is valid at:
	// 1.0 when the program fits at full rate, less when the §4.3 binary
	// search had to shed load.
	RateMultiple float64
	// Solves is per-probe solver telemetry (one entry per solver
	// invocation; raced probes carry per-backend breakdowns in Sub).
	Solves []SolverStats
}

// FitsAtFullRate reports whether the program fit without load shedding.
func (d *Deployment) FitsAtFullRate() bool { return d.RateMultiple >= 1 }

// DOT renders the deployment's partitioned graph as GraphViz DOT with
// cost colorization (§3's visualization).
func (d *Deployment) DOT(title string) string {
	return viz.DOT(d.Spec.Graph, viz.Options{
		Title:     title,
		CPU:       d.Spec.CPU,
		OnNode:    d.Assignment.OnNode,
		Bandwidth: d.Spec.Bandwidth,
	})
}

// SimResult is the deployment-simulation result type.
type SimResult = runtime.Result
