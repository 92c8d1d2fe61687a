package solver

import (
	"context"
	"fmt"
	"time"

	"wishbone/internal/core"
	"wishbone/internal/dataflow"
)

// Greedy is the cut-ordering baseline: it grows the node-side set one
// operator at a time — always a legal monotone cut, since an operator only
// becomes eligible once all of its upstream operators are on the node —
// choosing at each step the eligible operator whose move most reduces the
// radio load. Every set along that chain is a candidate cut; the best
// feasible one wins. O(V·E), no optimality bound (Stats.Gap = -1), and
// deterministic: ties break toward cheaper CPU, then lower operator ID.
//
// This is the paper's "try cutpoints in stream order" intuition
// generalized to DAGs; for linear pipelines it enumerates exactly the
// prefix cuts of §7.2's brute force. It has no formulation knobs or
// solve limits.
type Greedy struct{}

// Name returns "greedy".
func (Greedy) Name() string { return core.SolverGreedy }

// Solve enumerates the greedy cut chain and returns the best feasible cut.
func (g Greedy) Solve(ctx context.Context, s *core.Spec) (*core.Assignment, Stats, error) {
	start := time.Now()
	stats := Stats{Backend: core.SolverGreedy, Gap: -1}
	fail := func(err error) (*core.Assignment, Stats, error) {
		stats.Seconds = time.Since(start).Seconds()
		stats.Err = err.Error()
		return nil, stats, err
	}
	if err := s.Validate(); err != nil {
		return fail(err)
	}
	if err := ctx.Err(); err != nil {
		return fail(err)
	}

	ops := s.Graph.Operators()
	onNode := make(map[int]bool, len(ops))

	// Seed with the mandatory set: every node-pinned operator and its
	// ancestors (monotonicity drags upstream along). Anything smaller
	// violates pins, so candidates start here.
	order, err := s.Graph.TopoSort()
	if err != nil {
		return fail(err)
	}
	for i := len(order) - 1; i >= 0; i-- {
		op := order[i]
		if s.Class.Place[op.ID()] == dataflow.PinNode && !onNode[op.ID()] {
			onNode[op.ID()] = true
		}
		if onNode[op.ID()] {
			for _, e := range s.Graph.In(op) {
				onNode[e.From.ID()] = true
			}
		}
	}

	for id := range onNode {
		if s.Class.Place[id] == dataflow.PinServer {
			return fail(fmt.Errorf("solver: greedy: server-pinned operator %s is upstream of a node-pinned one: %w",
				s.Graph.ByID(id), &core.ErrInfeasible{Spec: s}))
		}
	}

	loads := func(on map[int]bool) (cpu, net, ram float64) {
		for _, op := range ops {
			if on[op.ID()] {
				cpu += s.OpCPU(op.ID())
				ram += s.RAM[op.ID()]
			}
		}
		for _, e := range s.Graph.Edges() {
			if on[e.From.ID()] && !on[e.To.ID()] {
				net += s.EdgeBW(e)
			}
		}
		return
	}
	fits := func(cpu, net, ram float64) bool {
		const tol = 1e-9
		return (s.CPUBudget <= 0 || cpu <= s.CPUBudget+tol) &&
			(s.NetBudget <= 0 || net <= s.NetBudget+tol) &&
			(s.RAMBudget <= 0 || ram <= s.RAMBudget+tol)
	}

	var best map[int]bool
	bestObj := 0.0
	consider := func(on map[int]bool) {
		stats.Iterations++
		cpu, net, ram := loads(on)
		if !fits(cpu, net, ram) {
			return
		}
		obj := s.Alpha*cpu + s.Beta*net
		if best == nil || obj < bestObj-1e-12 {
			best = make(map[int]bool, len(on))
			for k, v := range on {
				best[k] = v
			}
			bestObj = obj
		}
	}
	consider(onNode)

	// Grow the chain: among operators whose upstream is entirely on the
	// node, move the one with the lowest marginal radio cost.
	for {
		if err := ctx.Err(); err != nil {
			break // keep whatever candidates were evaluated
		}
		bestID, bestDNet, bestDCPU := -1, 0.0, 0.0
		for _, op := range ops {
			id := op.ID()
			if onNode[id] || s.Class.Place[id] == dataflow.PinServer {
				continue
			}
			ready := true
			inBW := 0.0
			for _, e := range s.Graph.In(op) {
				if !onNode[e.From.ID()] {
					ready = false
					break
				}
				inBW += s.EdgeBW(e)
			}
			if !ready {
				continue
			}
			outBW := 0.0
			for _, e := range s.Graph.Out(op) {
				if !onNode[e.To.ID()] {
					outBW += s.EdgeBW(e)
				}
			}
			dNet, dCPU := outBW-inBW, s.OpCPU(id)
			if bestID == -1 || dNet < bestDNet-1e-12 ||
				(dNet <= bestDNet+1e-12 && dCPU < bestDCPU-1e-12) {
				bestID, bestDNet, bestDCPU = id, dNet, dCPU
			}
		}
		if bestID == -1 {
			break
		}
		onNode[bestID] = true
		consider(onNode)
	}

	stats.Seconds = time.Since(start).Seconds()
	if best == nil {
		// Distinguish interruption from a completed-but-empty search: an
		// infeasibility error from an interrupted solve would make rate
		// searches treat the probe as proven-infeasible.
		if cerr := ctx.Err(); cerr != nil {
			return fail(cerr)
		}
		err := fmt.Errorf("solver: greedy found no feasible cut: %w", &core.ErrInfeasible{Spec: s})
		stats.Err = err.Error()
		return nil, stats, err
	}
	asg := core.AssignmentFromOnNode(s, best, false)
	asg.Stats = core.SolveStats{
		Solver:         core.SolverGreedy,
		Gap:            -1,
		Feasible:       true,
		Nodes:          stats.Iterations,
		ClustersBefore: s.Graph.NumOperators(),
		ClustersAfter:  s.Graph.NumOperators(),
		DiscoverTime:   stats.Seconds,
		ProveTime:      stats.Seconds,
	}
	stats.Feasible = true
	stats.Objective = asg.Objective
	return asg, stats, nil
}
