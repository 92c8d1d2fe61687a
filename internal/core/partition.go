package core

import (
	"context"
	"fmt"

	"wishbone/internal/dataflow"
	"wishbone/internal/ilp"
)

// Options control the Partition call.
type Options struct {
	// Formulation selects the ILP encoding (default Restricted).
	Formulation Formulation

	// Preprocess enables the §4.1 search-space reduction (default on in
	// DefaultOptions; the ablation bench turns it off).
	Preprocess bool

	// Solver limits (zero values mean unlimited / exact proof). A
	// wall-clock budget is a ctx deadline, not an option.
	GapTol   float64
	MaxNodes int
}

// DefaultOptions returns the paper-default options: restricted formulation
// with preprocessing enabled and no solver limits.
func DefaultOptions() Options {
	return Options{Formulation: Restricted, Preprocess: true}
}

// ErrInfeasible is returned by Partition when no cut satisfies the budgets;
// AutoPartitionWith then falls back to the §4.3 rate search to compute how
// far the data rate must drop.
type ErrInfeasible struct {
	Spec *Spec
}

// Error describes the failure and the remedy the paper prescribes (§1:
// switch platforms, reduce rates/sensors, or run overloaded).
func (e *ErrInfeasible) Error() string {
	return fmt.Sprintf(
		"core: no feasible partition within budgets (cpu ≤ %g, net ≤ %g); "+
			"reduce the input data rate (see AutoPartitionWith), use a more powerful platform, or accept overload",
		e.Spec.CPUBudget, e.Spec.NetBudget)
}

// Partition solves the partitioning problem exactly and returns the optimal
// assignment. It returns *ErrInfeasible when the budgets cannot be met.
//
// ctx interrupts the branch-and-bound search (alongside Options.MaxNodes
// and GapTol): when the search stops early with a feasible incumbent in
// hand, Partition returns that incumbent with its proven optimality gap
// recorded in Stats.Gap instead of an error; cancellation before any
// incumbent exists returns ctx's error.
func Partition(ctx context.Context, s *Spec, opts Options) (*Assignment, error) {
	return partition(ctx, s, opts, nil)
}

// partition is Partition with an optional external upper bound: bound
// reads a feasible α·cpu + β·net objective some other backend already
// holds (the race incumbent), which the branch-and-bound prunes against.
// Only the Restricted formulation uses it, where the ILP objective equals
// the assignment objective exactly.
func partition(ctx context.Context, s *Spec, opts Options, bound func() (float64, bool)) (*Assignment, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	red := buildReduced(s, opts.Preprocess)

	m := ilp.NewModel()
	nClusters := len(red.clusters)

	// One binary indicator per cluster: 1 = node, 0 = server (eq. 1).
	fv := make([]ilp.Var, nClusters)
	for i, c := range red.clusters {
		v := m.AddBinary(fmt.Sprintf("f_%d", i))
		switch c.place {
		case dataflow.PinNode:
			m.SetBounds(v, 1, 1)
		case dataflow.PinServer:
			m.SetBounds(v, 0, 0)
		}
		fv[i] = v
	}

	// CPU budget: Σ f_c·cpu_c ≤ C (eq. 2), plus α·cpu in the objective.
	var cpuTerms []ilp.Term
	for i, c := range red.clusters {
		if c.cpu == 0 {
			continue
		}
		cpuTerms = append(cpuTerms, ilp.Term{Var: fv[i], Coef: c.cpu})
		m.AddObjCoef(fv[i], s.Alpha*c.cpu)
	}
	if s.CPUBudget > 0 && len(cpuTerms) > 0 {
		m.AddConstraint("cpu_budget", cpuTerms, ilp.LE, s.CPUBudget)
	}

	// RAM budget: Σ f_c·ram_c ≤ R (§4.2.1's "additional constraints for
	// RAM usage (assuming static allocation) or code storage").
	if s.RAMBudget > 0 && len(s.RAM) > 0 {
		var ramTerms []ilp.Term
		for i, c := range red.clusters {
			var ram float64
			for _, id := range c.ops {
				ram += s.RAM[id]
			}
			if ram > 0 {
				ramTerms = append(ramTerms, ilp.Term{Var: fv[i], Coef: ram})
			}
		}
		if len(ramTerms) > 0 {
			m.AddConstraint("ram_budget", ramTerms, ilp.LE, s.RAMBudget)
		}
	}

	// Network load and edge constraints.
	var netTerms []ilp.Term
	switch opts.Formulation {
	case Restricted:
		// f_u − f_v ≥ 0 on every edge (eq. 6); net = Σ (f_u−f_v)·r (eq. 7).
		for _, e := range red.edges {
			m.AddConstraint(fmt.Sprintf("mono_%d_%d", e.from, e.to),
				[]ilp.Term{{Var: fv[e.from], Coef: 1}, {Var: fv[e.to], Coef: -1}},
				ilp.GE, 0)
			netTerms = append(netTerms,
				ilp.Term{Var: fv[e.from], Coef: e.bw},
				ilp.Term{Var: fv[e.to], Coef: -e.bw})
			m.AddObjCoef(fv[e.from], s.Beta*e.bw)
			m.AddObjCoef(fv[e.to], -s.Beta*e.bw)
		}
	case General:
		// e_uv, e'_uv ≥ 0 with f_u−f_v+e_uv ≥ 0 and f_v−f_u+e'_uv ≥ 0
		// (eq. 3); net = Σ (e_uv+e'_uv)·r (eq. 4). The objective must put
		// nonzero weight on the edge variables or a cut edge's e-values
		// could sit at zero and evade the net budget; with β=0 a tiny
		// weight (too small to affect the real objective) pins them.
		eCoef := s.Beta
		if eCoef == 0 && s.NetBudget > 0 {
			eCoef = 1e-9
		}
		for _, e := range red.edges {
			euv := m.AddVar(fmt.Sprintf("e_%d_%d", e.from, e.to), 0, 1, false)
			epv := m.AddVar(fmt.Sprintf("ep_%d_%d", e.from, e.to), 0, 1, false)
			m.AddConstraint(fmt.Sprintf("cutA_%d_%d", e.from, e.to),
				[]ilp.Term{{Var: fv[e.from], Coef: 1}, {Var: fv[e.to], Coef: -1}, {Var: euv, Coef: 1}},
				ilp.GE, 0)
			m.AddConstraint(fmt.Sprintf("cutB_%d_%d", e.from, e.to),
				[]ilp.Term{{Var: fv[e.to], Coef: 1}, {Var: fv[e.from], Coef: -1}, {Var: epv, Coef: 1}},
				ilp.GE, 0)
			netTerms = append(netTerms,
				ilp.Term{Var: euv, Coef: e.bw},
				ilp.Term{Var: epv, Coef: e.bw})
			m.SetObjCoef(euv, eCoef*e.bw)
			m.SetObjCoef(epv, eCoef*e.bw)
		}
	default:
		return nil, fmt.Errorf("core: unknown formulation %d", opts.Formulation)
	}
	if s.NetBudget > 0 && len(netTerms) > 0 {
		// net < N (eq. 4); encoded as ≤ since loads are continuous.
		m.AddConstraint("net_budget", netTerms, ilp.LE, s.NetBudget)
	}

	// For the restricted formulation a fractional relaxation rounds to a
	// feasible cut by sending every not-fully-on-node operator to the
	// server: monotonicity is preserved (ancestors of a variable at 1 are
	// at 1) and both budgets can only decrease. This gives branch-and-bound
	// an incumbent at every node, which prunes the symmetric subtrees that
	// otherwise dominate solve time on many-channel applications.
	var rounder func(*ilp.Model, []float64) []float64
	if opts.Formulation == Restricted {
		rounder = func(_ *ilp.Model, x []float64) []float64 {
			out := make([]float64, len(x))
			for i, v := range x {
				if v >= 1-1e-9 {
					out[i] = 1
				}
			}
			return out
		}
	}

	// The external cutoff shares objective space with the model only in
	// the Restricted formulation (General's tiny edge-variable weights
	// shift the model objective above α·cpu + β·net, which would make an
	// assignment-space bound unsound there).
	var cutoff func() (float64, bool)
	if opts.Formulation == Restricted {
		cutoff = bound
	}
	res, err := ilp.Solve(ctx, m, ilp.Options{
		GapTol:   opts.GapTol,
		MaxNodes: opts.MaxNodes,
		Rounder:  rounder,
		Cutoff:   cutoff,
	})
	if err != nil {
		return nil, err
	}
	stats := SolveStats{
		Solver:         SolverExact,
		Nodes:          res.Nodes,
		CutoffPruned:   res.CutoffPruned,
		DiscoverTime:   res.DiscoverTime.Seconds(),
		ProveTime:      res.ProveTime.Seconds(),
		ClustersBefore: s.Graph.NumOperators(),
		ClustersAfter:  nClusters,
		Variables:      m.NumVars(),
		Constraints:    m.NumConstraints(),
	}
	switch res.Status {
	case ilp.StatusOptimal:
		// fall through to extraction with a proved (zero) gap
	case ilp.StatusFeasible:
		// Interrupted by a limit or by ctx with an incumbent: return
		// it and record how far from proved-optimal it may be.
		stats.Gap = res.Gap
	case ilp.StatusInfeasible:
		return &Assignment{Stats: stats}, &ErrInfeasible{Spec: s}
	default:
		return nil, fmt.Errorf("core: solver failed with status %v", res.Status)
	}
	stats.Feasible = true

	onNode := make(map[int]bool, s.Graph.NumOperators())
	for i, c := range red.clusters {
		on := res.X[fv[i]] > 0.5
		for _, id := range c.ops {
			onNode[id] = on
		}
	}
	asg := AssignmentFromOnNode(s, onNode, opts.Formulation == General)
	asg.Stats = stats
	return asg, nil
}
