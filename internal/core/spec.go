// Package core implements Wishbone's partitioner: the paper's primary
// contribution (§4).
//
// Given a dataflow graph annotated with profiled per-operator CPU costs and
// per-edge bandwidths, it finds the cut assigning operators to the embedded
// node or the server that minimizes α·cpu + β·net subject to hard CPU and
// network budgets. The search space is first reduced by merging
// data-neutral and data-expanding operators into their downstream consumers
// (§4.1); the remaining problem is encoded as an integer linear program —
// either the restricted unidirectional formulation with |V| variables
// (§4.2.1 eq. 6–7, the paper's default) or the general formulation with
// two extra edge variables per edge (eq. 1–5) — and solved exactly with
// internal/ilp. When no feasible partition exists, a binary search over
// input data rates finds the maximum sustainable rate (§4.3).
package core

import (
	"fmt"
	"math"

	"wishbone/internal/dataflow"
)

// Formulation selects the ILP encoding of the cut problem.
type Formulation int

const (
	// Restricted is the unidirectional single-crossing encoding (eq. 6–7):
	// one binary variable per vertex, f_u ≥ f_v on every edge. This is the
	// paper's prototype default.
	Restricted Formulation = iota
	// General is the bidirectional encoding (eq. 1–5) with two continuous
	// edge variables linearizing |f_u − f_v|.
	General
)

// String returns "restricted" or "general".
func (f Formulation) String() string {
	if f == Restricted {
		return "restricted"
	}
	return "general"
}

// LoadKind selects which profiled load statistic drives the optimization.
// The paper uses mean load for predictable-rate applications and suggests
// peak load for bursty ones (§4.2.1).
type LoadKind int

const (
	// MeanLoad uses the average profiled cost.
	MeanLoad LoadKind = iota
	// PeakLoad uses the maximum profiled cost.
	PeakLoad
)

// String returns "mean" or "peak".
func (k LoadKind) String() string {
	if k == MeanLoad {
		return "mean"
	}
	return "peak"
}

// EdgeCost carries the profiled bandwidth of one stream edge in bytes/s.
type EdgeCost struct {
	Mean float64
	Peak float64
}

// OpCost carries the profiled node-side CPU cost of one operator, as a
// fraction of the embedded node's CPU (1.0 = the whole CPU) at the profiled
// input rate.
type OpCost struct {
	Mean float64
	Peak float64
}

// Spec is a fully specified partitioning problem.
type Spec struct {
	// Graph is the application's operator graph.
	Graph *dataflow.Graph

	// Class gives every operator's placement constraint; typically from
	// dataflow.Classify. Required.
	Class *dataflow.Classification

	// CPU maps operator ID to its node-side CPU cost. Operators missing
	// from the map cost zero.
	CPU map[int]OpCost

	// Bandwidth maps each edge to its profiled bandwidth.
	Bandwidth map[*dataflow.Edge]EdgeCost

	// CPUBudget is the hard limit on Σ node-side CPU (same unit as CPU
	// costs; 1.0 = the full CPU).
	CPUBudget float64

	// RAM maps operator ID to its static memory footprint on the node in
	// bytes (state, buffers, code). Optional: §4.2.1 notes that RAM and
	// code-storage constraints drop straight into the formulation;
	// TinyOS motes have <10 KB of RAM.
	RAM map[int]float64

	// RAMBudget is the hard limit on Σ node-side RAM in bytes. Zero or
	// negative means unconstrained.
	RAMBudget float64

	// NetBudget is the hard limit on cut bandwidth in bytes/s. Zero or
	// negative means unconstrained.
	NetBudget float64

	// Alpha and Beta weight CPU and network load in the objective
	// min(Alpha·cpu + Beta·net). The evaluation uses Alpha=0, Beta=1.
	Alpha, Beta float64

	// Load selects mean or peak statistics.
	Load LoadKind
}

// Validate reports structural problems with the spec.
func (s *Spec) Validate() error {
	if s.Graph == nil {
		return fmt.Errorf("core: spec has no graph")
	}
	if s.Class == nil {
		return fmt.Errorf("core: spec has no classification")
	}
	if s.CPUBudget < 0 {
		return fmt.Errorf("core: negative CPU budget %v", s.CPUBudget)
	}
	if s.Alpha < 0 || s.Beta < 0 {
		return fmt.Errorf("core: negative objective coefficients (α=%v β=%v)", s.Alpha, s.Beta)
	}
	for id, c := range s.CPU {
		if s.Graph.ByID(id) == nil {
			return fmt.Errorf("core: CPU cost for unknown operator %d", id)
		}
		if c.Mean < 0 || c.Peak < 0 {
			return fmt.Errorf("core: negative CPU cost for operator %d", id)
		}
	}
	for e, b := range s.Bandwidth {
		if b.Mean < 0 || b.Peak < 0 {
			return fmt.Errorf("core: negative bandwidth on edge %s", e)
		}
	}
	for id, r := range s.RAM {
		if s.Graph.ByID(id) == nil {
			return fmt.Errorf("core: RAM cost for unknown operator %d", id)
		}
		if r < 0 {
			return fmt.Errorf("core: negative RAM cost for operator %d", id)
		}
	}
	return nil
}

// OpCPU returns the spec's selected CPU statistic (mean or peak) for an
// operator. Solver backends price vertices with it.
func (s *Spec) OpCPU(id int) float64 {
	c := s.CPU[id]
	if s.Load == PeakLoad {
		return c.Peak
	}
	return c.Mean
}

// EdgeBW returns the spec's selected bandwidth statistic for an edge.
func (s *Spec) EdgeBW(e *dataflow.Edge) float64 {
	b := s.Bandwidth[e]
	if s.Load == PeakLoad {
		return b.Peak
	}
	return b.Mean
}

// opCPU and edgeBW are the historical internal spellings.
func (s *Spec) opCPU(id int) float64            { return s.OpCPU(id) }
func (s *Spec) edgeBW(e *dataflow.Edge) float64 { return s.EdgeBW(e) }

// Scaled returns a copy of the spec with every CPU cost and bandwidth
// multiplied by factor, modelling a proportional change of the input data
// rate (§4.3: "CPU and network load increase monotonically with input data
// rate" — here linearly, which profiling of rate-proportional operators
// justifies).
func (s *Spec) Scaled(factor float64) *Spec {
	out := *s
	out.CPU = make(map[int]OpCost, len(s.CPU))
	for id, c := range s.CPU {
		out.CPU[id] = OpCost{Mean: c.Mean * factor, Peak: c.Peak * factor}
	}
	out.Bandwidth = make(map[*dataflow.Edge]EdgeCost, len(s.Bandwidth))
	for e, b := range s.Bandwidth {
		out.Bandwidth[e] = EdgeCost{Mean: b.Mean * factor, Peak: b.Peak * factor}
	}
	return &out
}

// Assignment is a computed partitioning.
type Assignment struct {
	// OnNode[id] is true when the operator runs on the embedded node.
	OnNode map[int]bool

	// CutEdges are the edges crossing the partition; their elements travel
	// over the radio. With the Restricted formulation all cut edges flow
	// node→server; the General formulation may also cut server→node edges.
	CutEdges []*dataflow.Edge

	// Bidirectional is true when the assignment came from the General
	// formulation, whose cuts may cross the network in both directions
	// (§4.2.1); the Restricted formulation never produces back-edges.
	Bidirectional bool

	// CPULoad is the total node-side CPU cost; NetLoad the total cut
	// bandwidth in bytes/s; RAMLoad the total node-side memory footprint
	// (zero unless the spec prices RAM).
	CPULoad float64
	NetLoad float64
	RAMLoad float64

	// Objective is α·CPULoad + β·NetLoad.
	Objective float64

	// Stats reports on the ILP solve that produced the assignment.
	Stats SolveStats
}

// SolveStats carries solver telemetry (Figure 6's discover/prove split).
type SolveStats struct {
	// Solver names the backend that produced the assignment ("exact",
	// "lagrangian", "greedy", "race", …).
	Solver string

	// Gap is the relative optimality gap at termination: 0 when optimality
	// was proved, positive when a node or gap limit (or the ctx) stopped
	// the search with an incumbent, or when a heuristic backend bounded its
	// answer against a dual bound. Negative means no bound is known (the
	// greedy baseline).
	Gap float64

	Feasible       bool
	Nodes          int
	CutoffPruned   int     // subtrees discarded against an external race bound
	DiscoverTime   float64 // seconds until the final incumbent
	ProveTime      float64 // seconds until optimality was proved
	ClustersBefore int     // movable vertices before preprocessing
	ClustersAfter  int     // problem vertices after preprocessing
	Variables      int
	Constraints    int
}

// NodeOperatorCount returns how many operators run on the node.
func (a *Assignment) NodeOperatorCount() int {
	n := 0
	for _, on := range a.OnNode {
		if on {
			n++
		}
	}
	return n
}

// Verify checks that the assignment is a legal single cut of the graph:
// placement constraints respected, no edge from server back to node, and
// recomputes loads. It returns an error describing the first violation.
func (a *Assignment) Verify(s *Spec) error {
	for id, p := range s.Class.Place {
		switch p {
		case dataflow.PinNode:
			if !a.OnNode[id] {
				return fmt.Errorf("core: node-pinned operator %s assigned to server", s.Graph.ByID(id))
			}
		case dataflow.PinServer:
			if a.OnNode[id] {
				return fmt.Errorf("core: server-pinned operator %s assigned to node", s.Graph.ByID(id))
			}
		}
	}
	cpu := 0.0
	for _, op := range s.Graph.Operators() {
		if a.OnNode[op.ID()] {
			cpu += s.opCPU(op.ID())
		}
	}
	net := 0.0
	for _, e := range s.Graph.Edges() {
		if a.OnNode[e.From.ID()] != a.OnNode[e.To.ID()] {
			if !a.OnNode[e.From.ID()] && !a.Bidirectional {
				return fmt.Errorf("core: edge %s flows from server back to node (single-crossing violation)", e)
			}
			net += s.edgeBW(e)
		}
	}
	const tol = 1e-6
	if s.CPUBudget > 0 && cpu > s.CPUBudget*(1+tol)+tol {
		return fmt.Errorf("core: CPU load %v exceeds budget %v", cpu, s.CPUBudget)
	}
	if s.NetBudget > 0 && net > s.NetBudget*(1+tol)+tol {
		return fmt.Errorf("core: network load %v exceeds budget %v", net, s.NetBudget)
	}
	if s.RAMBudget > 0 {
		ram := 0.0
		for _, op := range s.Graph.Operators() {
			if a.OnNode[op.ID()] {
				ram += s.RAM[op.ID()]
			}
		}
		if ram > s.RAMBudget*(1+tol)+tol {
			return fmt.Errorf("core: RAM load %v exceeds budget %v", ram, s.RAMBudget)
		}
	}
	if math.Abs(cpu-a.CPULoad) > tol*(1+cpu) || math.Abs(net-a.NetLoad) > tol*(1+net) {
		return fmt.Errorf("core: recorded loads (%v, %v) disagree with recomputation (%v, %v)",
			a.CPULoad, a.NetLoad, cpu, net)
	}
	return nil
}

// AssignmentFromOnNode materializes a full Assignment from an on-node set:
// cut edges in the graph's deterministic edge order, recomputed CPU /
// network / RAM loads, and the spec's objective. Every operator gets an
// explicit OnNode entry. It is the one extraction path shared by the exact
// ILP and the heuristic solver backends, so differently produced
// assignments compare byte-for-byte.
func AssignmentFromOnNode(s *Spec, onNode map[int]bool, bidirectional bool) *Assignment {
	asg := &Assignment{
		OnNode:        make(map[int]bool, s.Graph.NumOperators()),
		Bidirectional: bidirectional,
	}
	for _, op := range s.Graph.Operators() {
		on := onNode[op.ID()]
		asg.OnNode[op.ID()] = on
		if on {
			asg.CPULoad += s.OpCPU(op.ID())
			asg.RAMLoad += s.RAM[op.ID()]
		}
	}
	for _, e := range s.Graph.Edges() {
		cut := asg.OnNode[e.From.ID()] && !asg.OnNode[e.To.ID()] ||
			bidirectional && !asg.OnNode[e.From.ID()] && asg.OnNode[e.To.ID()]
		if cut {
			asg.CutEdges = append(asg.CutEdges, e)
			asg.NetLoad += s.EdgeBW(e)
		}
	}
	asg.Objective = s.Alpha*asg.CPULoad + s.Beta*asg.NetLoad
	return asg
}
