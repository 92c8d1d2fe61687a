package solver

import (
	"context"
	"fmt"
	"math"
	"time"

	"wishbone/internal/core"
	"wishbone/internal/dataflow"
)

// Lagrangian is the §9-style relaxation backend: instead of enforcing the
// CPU / network / RAM budgets as hard ILP constraints, it prices them into
// the objective with nonnegative multipliers λ and solves
//
//	L(λ) = min over monotone cuts of
//	       (α+λc)·cpu + (β+λn)·net + λr·ram − λc·C − λn·N − λr·R
//
// For monotone (single-crossing) cuts the relaxed objective is linear over
// ancestor-closed vertex sets — cut bandwidth telescopes into per-vertex
// out-minus-in coefficients — so each subproblem is a minimum-closure
// problem solved exactly by max-flow (see maxflow.go). Subgradient steps
// on the budget violations drive λ; every iterate is repaired to a
// feasible cut when needed (peeling maximal on-node operators until the
// budgets hold), and the best feasible cut seen is returned.
//
// Because every L(λ) is a true lower bound on the optimum (weak duality),
// the answer carries a proven optimality gap in Stats — unlike greedy.
// It does not prove infeasibility: a no-feasible-cut error only means this
// backend found none.
type Lagrangian struct {
	Opts core.Options

	// MaxIter bounds subgradient iterations (default 120).
	MaxIter int
}

// NewLagrangian returns the relaxation backend.
func NewLagrangian(opts core.Options) *Lagrangian { return &Lagrangian{Opts: opts} }

// Name returns "lagrangian".
func (*Lagrangian) Name() string { return core.SolverLagrangian }

// lagProblem is the dense working form of a spec.
type lagProblem struct {
	s     *core.Spec
	ops   []*dataflow.Operator
	index map[int]int // operator ID → dense index
	edges [][2]int    // dense (from, to)
	edgeW []float64
	inc   [][]int // per vertex: indices of its in- and out-edges, in edge order
	cpu   []float64
	ram   []float64
	force []int8 // +1 node-pinned, -1 server-pinned

	out    []bool // repair's cut
	succOn []int  // repair's on-node successor counts
}

func newLagProblem(s *core.Spec) *lagProblem {
	p := &lagProblem{s: s, ops: s.Graph.Operators(), index: map[int]int{}}
	for i, op := range p.ops {
		p.index[op.ID()] = i
	}
	n := len(p.ops)
	p.cpu = make([]float64, n)
	p.ram = make([]float64, n)
	p.force = make([]int8, n)
	p.succOn = make([]int, n)
	for i, op := range p.ops {
		p.cpu[i] = s.OpCPU(op.ID())
		p.ram[i] = s.RAM[op.ID()]
		switch s.Class.Place[op.ID()] {
		case dataflow.PinNode:
			p.force[i] = 1
		case dataflow.PinServer:
			p.force[i] = -1
		}
	}
	p.inc = make([][]int, n)
	for k, e := range s.Graph.Edges() {
		from, to := p.index[e.From.ID()], p.index[e.To.ID()]
		p.edges = append(p.edges, [2]int{from, to})
		p.edgeW = append(p.edgeW, s.EdgeBW(e))
		p.inc[from] = append(p.inc[from], k)
		p.inc[to] = append(p.inc[to], k)
	}
	return p
}

// loads computes a selection's CPU, cut-bandwidth, and RAM loads.
func (p *lagProblem) loads(sel []bool) (cpu, net, ram float64) {
	for i := range sel {
		if sel[i] {
			cpu += p.cpu[i]
			ram += p.ram[i]
		}
	}
	for k, e := range p.edges {
		if sel[e[0]] && !sel[e[1]] {
			net += p.edgeW[k]
		}
	}
	return
}

func (p *lagProblem) feasible(cpu, net, ram float64) bool {
	const tol = 1e-9
	s := p.s
	return (s.CPUBudget <= 0 || cpu <= s.CPUBudget+tol) &&
		(s.NetBudget <= 0 || net <= s.NetBudget+tol) &&
		(s.RAMBudget <= 0 || ram <= s.RAMBudget+tol)
}

// repair peels maximal on-node movable operators (every successor already
// off-node, so removal keeps the cut monotone) until the budgets hold,
// preferring the peel that most reduces the total relative violation. It
// returns nil when no feasible cut is reachable this way. The repaired
// cut lives in p's storage until the next repair.
func (p *lagProblem) repair(sel []bool) []bool {
	p.out = append(p.out[:0], sel...)
	out := p.out
	succOn := p.succOn // on-node successors per vertex
	for {
		cpu, net, ram := p.loads(out)
		if p.feasible(cpu, net, ram) {
			return out
		}
		viol := func(cpu, net, ram float64) float64 {
			v := 0.0
			if b := p.s.CPUBudget; b > 0 && cpu > b {
				v += (cpu - b) / b
			}
			if b := p.s.NetBudget; b > 0 && net > b {
				v += (net - b) / b
			}
			if b := p.s.RAMBudget; b > 0 && ram > b {
				v += (ram - b) / b
			}
			return v
		}
		cur := viol(cpu, net, ram)
		for i := range succOn {
			succOn[i] = 0
		}
		for _, e := range p.edges {
			if out[e[0]] && out[e[1]] {
				succOn[e[0]]++
			}
		}
		best, bestScore := -1, math.Inf(1)
		for i := range out {
			if !out[i] || p.force[i] == 1 || succOn[i] > 0 {
				continue
			}
			// Removing i: its on-node in-edges become cut, its cut
			// out-edges heal.
			dNet := 0.0
			for _, k := range p.inc[i] {
				e := p.edges[k]
				if e[1] == i && out[e[0]] {
					dNet += p.edgeW[k]
				}
				if e[0] == i && !out[e[1]] {
					dNet -= p.edgeW[k]
				}
			}
			score := viol(cpu-p.cpu[i], net+dNet, ram-p.ram[i])
			if score < bestScore-1e-12 {
				bestScore, best = score, i
			}
		}
		// Peel as long as the violation does not grow: the set strictly
		// shrinks every round, so this terminates, and an equal-violation
		// peel can unlock a violating predecessor.
		if best == -1 || bestScore > cur+1e-12 {
			return nil // stuck: every removable peel makes things worse
		}
		out[best] = false
	}
}

// Solve runs the dual-ascent loop: price the budgets into the objective,
// solve each priced subproblem exactly as a minimum closure, repair
// iterates to feasible cuts, and move the multipliers by a subgradient
// step. Every iterate's dual value is a true lower bound, so the answer
// carries a proven gap (Restricted formulation only).
func (l *Lagrangian) Solve(ctx context.Context, s *core.Spec, lim Limits) (*core.Assignment, Stats, error) {
	start := time.Now()
	stats := Stats{Backend: core.SolverLagrangian, Gap: -1}
	fail := func(err error) (*core.Assignment, Stats, error) {
		stats.Seconds = time.Since(start).Seconds()
		stats.Err = err.Error()
		return nil, stats, err
	}
	if err := s.Validate(); err != nil {
		return fail(err)
	}
	p := newLagProblem(s)
	n := len(p.ops)

	maxIter := l.MaxIter
	if maxIter <= 0 {
		maxIter = 120
	}
	deadline := time.Time{}
	if lim.TimeLimit > 0 {
		deadline = start.Add(lim.TimeLimit)
	}
	gapTol := lim.GapTol
	if gapTol <= 0 {
		gapTol = 1e-4
	}

	// Multipliers (λcpu, λnet, λram), only for budgets that exist: an
	// absent budget's subgradient component stays 0, and so does its λ.
	useCPU := s.CPUBudget > 0
	useNet := s.NetBudget > 0
	useRAM := s.RAMBudget > 0 && len(s.RAM) > 0
	var lam [3]float64
	// Polyak step length θ·(ub−dual)/‖g‖² when an upper bound exists, a
	// divergent series otherwise; θ halves after 8 non-improving
	// iterations.
	theta, since := 2.0, 0

	var bestSel []bool
	bestObj := math.Inf(1)
	bestDual := math.Inf(-1)
	w := make([]float64, n)
	var net flowNet

	// Combinatorial duals usually carry an intrinsic gap the gap test can
	// never close; stop once the dual has made no meaningful gain for a
	// while, so Iterations measures time-to-converged-bound rather than
	// always hitting maxIter. The window is longer than θ's 8-iteration
	// halving period, so slow ascent gets at least two step-length
	// reductions before being called stalled.
	const stallLimit = 16
	lastGain := 0

	record := func(sel []bool) {
		cpu, net, ram := p.loads(sel)
		if !p.feasible(cpu, net, ram) {
			return
		}
		if obj := s.Alpha*cpu + s.Beta*net; obj < bestObj-1e-12 {
			bestObj = obj
			bestSel = append([]bool(nil), sel...)
			lim.Incumbent.Offer(obj)
		}
	}

	for iter := 0; iter < maxIter; iter++ {
		if ctx.Err() != nil {
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		stats.Iterations = iter + 1

		// Vertex prices: objective + priced budgets; cut bandwidth
		// telescopes to out-minus-in per vertex over monotone cuts.
		for i := range w {
			w[i] = (s.Alpha+lam[0])*p.cpu[i] + lam[2]*p.ram[i]
		}
		for k, e := range p.edges {
			w[e[0]] += (s.Beta + lam[1]) * p.edgeW[k]
			w[e[1]] -= (s.Beta + lam[1]) * p.edgeW[k]
		}
		sel, inner := net.minClosure(n, p.edges, w, p.force)
		dual := inner - lam[0]*s.CPUBudget - lam[1]*s.NetBudget
		if useRAM {
			dual -= lam[2] * s.RAMBudget
		}
		improved := dual > bestDual+1e-12
		if improved {
			if dual > bestDual+1e-9*math.Max(1, math.Abs(bestDual)) {
				lastGain = iter
			}
			bestDual = dual
		}

		record(sel)
		if repaired := p.repair(sel); repaired != nil {
			record(repaired)
		}

		// Converged? The shared incumbent can close the gap for us.
		ub := bestObj
		if sharedUB, ok := lim.Incumbent.Best(); ok && sharedUB < ub {
			ub = sharedUB
		}
		if !math.IsInf(ub, 1) && ub-bestDual <= gapTol*math.Max(1, math.Abs(ub)) {
			break
		}
		if iter-lastGain >= stallLimit {
			break // dual has flatlined; more steps only burn time
		}

		// Multiplier step on the budget violations.
		cpu, net, ram := p.loads(sel)
		var g [3]float64
		if useCPU {
			g[0] = cpu - s.CPUBudget
		}
		if useNet {
			g[1] = net - s.NetBudget
		}
		if useRAM {
			g[2] = ram - s.RAMBudget
		}
		norm := g[0]*g[0] + g[1]*g[1] + g[2]*g[2]
		if norm <= 1e-18 {
			break // relaxed optimum satisfies the budgets exactly
		}
		if improved {
			since = 0
		} else if since++; since >= 8 {
			theta /= 2
			since = 0
		}
		var step float64
		if !math.IsInf(ub, 1) {
			step = theta * math.Max(1e-9, ub-dual) / norm
		} else {
			step = theta * (math.Abs(dual) + 1) / (norm * float64(iter+1))
		}
		for i := range lam {
			lam[i] = math.Max(0, lam[i]+step*g[i])
		}
	}

	stats.Seconds = time.Since(start).Seconds()
	if bestDual > math.Inf(-1) && l.Opts.Formulation != core.General {
		stats.Bound = bestDual
	}
	if bestSel == nil {
		// An interrupted search is not evidence of infeasibility.
		if cerr := ctx.Err(); cerr != nil {
			return fail(cerr)
		}
		err := fmt.Errorf("solver: lagrangian found no feasible cut in %d iterations: %w",
			stats.Iterations, &core.ErrInfeasible{Spec: s})
		stats.Err = err.Error()
		return nil, stats, err
	}

	onNode := make(map[int]bool, n)
	for i, op := range p.ops {
		onNode[op.ID()] = bestSel[i]
	}
	asg := core.AssignmentFromOnNode(s, onNode, false)
	// The dual bounds the *restricted* (single-crossing) problem; under
	// the General formulation bidirectional cuts may beat it, so no gap
	// can be claimed there.
	gap := -1.0
	if !math.IsInf(bestDual, -1) && l.Opts.Formulation != core.General {
		gap = math.Max(0, (asg.Objective-bestDual)/math.Max(1, math.Abs(asg.Objective)))
	}
	asg.Stats = core.SolveStats{
		Solver:         core.SolverLagrangian,
		Gap:            gap,
		Feasible:       true,
		Nodes:          stats.Iterations,
		ClustersBefore: n,
		ClustersAfter:  n,
		DiscoverTime:   stats.Seconds,
		ProveTime:      stats.Seconds,
	}
	if err := asg.Verify(s); err != nil {
		return fail(fmt.Errorf("solver: lagrangian produced an invalid cut: %w", err))
	}
	stats.Feasible = true
	stats.Objective = asg.Objective
	stats.Gap = gap
	// Never claim Optimal: a raced optimality claim cancels the exact
	// backend, and ties must stay exact's to win (float-exact duality
	// closure is not a proof worth that trade).
	return asg, stats, nil
}
