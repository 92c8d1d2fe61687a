package ilp

import (
	"container/heap"
	"context"
	"math"
	"time"
)

// Status is the outcome of a Solve call.
type Status int

const (
	// StatusOptimal means an optimal solution was found and proved.
	StatusOptimal Status = iota
	// StatusFeasible means an incumbent exists but optimality was not
	// proved: the node cap or gap tolerance was reached, or ctx ended the
	// search.
	StatusFeasible
	// StatusInfeasible means the problem has no feasible solution.
	StatusInfeasible
	// StatusUnbounded means the relaxation is unbounded.
	StatusUnbounded
	// StatusError covers numerical failure or malformed input.
	StatusError
	// StatusNodeLimit means MaxNodes stopped the search before it found
	// an incumbent: neither a solution nor a proof that none exists.
	StatusNodeLimit
)

// String returns a human-readable status.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusNodeLimit:
		return "node limit"
	default:
		return "error"
	}
}

// Options control the branch-and-bound search. A search stops on these
// counts or on its ctx; wall-clock budgets are ctx deadlines.
type Options struct {
	// MaxNodes bounds the number of branch-and-bound nodes; zero means no
	// limit.
	MaxNodes int
	// GapTol stops the search when (incumbent − bestBound)/max(1,|incumbent|)
	// falls below this value; zero demands a full optimality proof. This is
	// the paper's "approximate lower bound … termination condition" (§7.1).
	GapTol float64
	// Rounder optionally converts a fractional relaxation solution into a
	// candidate integer solution using problem structure (Wishbone's
	// partitioner rounds fractional placements toward the server, which is
	// always feasible for monotone cuts). Candidates are checked against
	// the model before being accepted as incumbents, so an unsound rounder
	// costs time but never correctness.
	Rounder func(m *Model, x []float64) []float64
}

// intTol is the integrality tolerance.
const intTol = 1e-6

// Result reports the outcome of a Solve.
type Result struct {
	Status    Status
	X         []float64 // solution in model space (nil unless incumbent found)
	Objective float64

	// DiscoverTime is when the final incumbent was found, relative to the
	// start of the solve; ProveTime is when the search finished (optimality
	// proof or gap closure). These are the two curves of Figure 6.
	DiscoverTime time.Duration
	ProveTime    time.Duration

	// Nodes is the number of branch-and-bound nodes solved.
	Nodes int

	// BestBound is the proven lower bound (for minimization) at
	// termination; Gap is the final relative gap.
	BestBound float64
	Gap       float64
}

// bbNode is one node of the search tree: a set of tightened variable
// bounds, represented as a chain to the root to keep nodes small.
type bbNode struct {
	parent   *bbNode
	v        Var
	lo, hi   float64
	bound    float64 // parent LP objective: a valid bound for this subtree
	depth    int
	seq      int // push order: the deterministic last-resort tiebreak
	hasFixes bool
}

// apply writes the node's bound chain onto the model.
func (n *bbNode) apply(m *Model) {
	for cur := n; cur != nil && cur.hasFixes; cur = cur.parent {
		m.SetBounds(cur.v, cur.lo, cur.hi)
	}
}

type nodeHeap []*bbNode

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound // best-bound first (minimization)
	}
	if h[i].depth != h[j].depth {
		return h[i].depth > h[j].depth // deeper first to find incumbents sooner
	}
	// Total order: push sequence breaks exact ties, so tied nodes pop
	// first-pushed first rather than in whatever order container/heap's
	// sifts leave them. The node counts TestExactSolvePinned and the
	// benchmark's solver.iterations.exact pin follow from this order.
	return h[i].seq < h[j].seq
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(*bbNode)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Solve runs branch-and-bound on the model, minimizing its objective.
//
// The search is interruptible: it checks ctx between branch-and-bound
// nodes. When interrupted — by cancellation, a ctx deadline, or MaxNodes —
// with a feasible incumbent in hand, Solve returns StatusFeasible with the
// incumbent and its proven gap rather than an error. A ctx interruption
// before any incumbent exists surfaces ctx.Err(); MaxNodes before any
// incumbent exists returns StatusNodeLimit.
func Solve(ctx context.Context, m *Model, opts Options) (*Result, error) {
	return search(ctx, m, opts, (*tableau).iterate)
}

// search is Solve with the simplex's pivot loop as a parameter (the tests
// run their dense oracle through it). One relaxation and one work model
// serve every node: a node's LP reuses the previous node's rows.
func search(ctx context.Context, m *Model, opts Options, iterate func(*tableau, []float64, int) lpStatus) (*Result, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return &Result{Status: StatusError}, err
	}
	res := &Result{Status: StatusInfeasible, BestBound: math.Inf(-1)}

	lp := &relaxation{iterate: iterate}
	work := m.Clone()
	status, x, obj, err := lp.solve(work)
	if err != nil {
		return &Result{Status: StatusError}, err
	}
	switch status {
	case StatusInfeasible:
		res.ProveTime = time.Since(start)
		return res, nil
	case StatusUnbounded:
		res.Status = StatusUnbounded
		res.ProveTime = time.Since(start)
		return res, nil
	}

	var (
		incumbent    []float64
		incumbentObj = math.Inf(1)
		h            = &nodeHeap{}
	)
	// tryIncumbent installs cand if it is feasible and improves.
	tryIncumbent := func(cand []float64) {
		if cand == nil {
			return
		}
		if ok, _ := m.Feasible(cand, 1e-6); !ok {
			return
		}
		if v := fractionalVar(m, cand, intTol); v != -1 {
			return
		}
		obj := m.EvalObjective(cand)
		if obj < incumbentObj-1e-12 {
			incumbent = roundIntegers(m, cand, intTol)
			incumbentObj = obj
			res.DiscoverTime = time.Since(start)
		}
	}

	root := &bbNode{bound: obj}
	// Root might already be integral.
	if v := fractionalVar(m, x, intTol); v == -1 {
		incumbent = roundIntegers(m, x, intTol)
		incumbentObj = m.EvalObjective(incumbent)
		res.DiscoverTime = time.Since(start)
	} else {
		if opts.Rounder != nil {
			tryIncumbent(opts.Rounder(m, x))
		}
		heap.Push(h, root)
		// The first pop re-solves the root relaxation; that cost is
		// negligible relative to the tree.
	}

	nodes := 1
	seq := 0
	proved := true
	canceled := false
	for h.Len() > 0 {
		if err := ctx.Err(); err != nil {
			proved = false
			canceled = true
			break
		}
		if opts.MaxNodes > 0 && nodes >= opts.MaxNodes {
			proved = false
			break
		}
		node := heap.Pop(h).(*bbNode)
		if node.bound >= incumbentObj-1e-9 {
			continue // pruned by bound
		}
		if opts.GapTol > 0 && !math.IsInf(incumbentObj, 1) {
			gap := (incumbentObj - node.bound) / math.Max(1, math.Abs(incumbentObj))
			if gap <= opts.GapTol {
				proved = false // stopped by gap, not full proof
				break
			}
		}

		// Solve this node's relaxation.
		work.vars = append(work.vars[:0], m.vars...)
		node.apply(work)
		status, x, obj, err := lp.solve(work)
		if err != nil {
			return &Result{Status: StatusError}, err
		}
		nodes++
		if status != StatusOptimal {
			continue // infeasible subtree (unbounded cannot appear below a bounded root)
		}
		bound := obj
		if bound >= incumbentObj-1e-9 {
			continue
		}
		fv := fractionalVar(work, x, intTol)
		if fv != -1 && opts.Rounder != nil {
			tryIncumbent(opts.Rounder(work, x))
			if node.bound >= incumbentObj-1e-9 {
				continue // the rounded incumbent closed this subtree
			}
		}
		if fv == -1 {
			cand := roundIntegers(work, x, intTol)
			candObj := m.EvalObjective(cand)
			if candObj < incumbentObj-1e-12 {
				incumbent = cand
				incumbentObj = candObj
				res.DiscoverTime = time.Since(start)
			}
			continue
		}

		// Branch on the fractional variable: floor and ceil children.
		lo, hi := work.Bounds(fv)
		xf := x[fv]
		down := &bbNode{
			parent: node, v: fv, lo: lo, hi: math.Floor(xf),
			bound: bound, depth: node.depth + 1, hasFixes: true,
		}
		up := &bbNode{
			parent: node, v: fv, lo: math.Ceil(xf), hi: hi,
			bound: bound, depth: node.depth + 1, hasFixes: true,
		}
		if down.hi >= down.lo-1e-9 {
			seq++
			down.seq = seq
			heap.Push(h, down)
		}
		if up.lo <= up.hi+1e-9 {
			seq++
			up.seq = seq
			heap.Push(h, up)
		}
	}

	res.Nodes = nodes
	res.ProveTime = time.Since(start)

	// Best remaining bound.
	best := incumbentObj
	for _, n := range *h {
		if n.bound < best {
			best = n.bound
		}
	}
	res.BestBound = best

	if incumbent == nil {
		if canceled {
			res.Status = StatusError
			return res, ctx.Err()
		}
		if !proved {
			res.Status = StatusNodeLimit
			return res, nil
		}
		res.Status = StatusInfeasible
		return res, nil
	}
	res.X = incumbent
	res.Objective = incumbentObj
	if proved || incumbentObj-best <= 1e-9 {
		res.Status = StatusOptimal
	} else {
		res.Status = StatusFeasible
	}
	res.Gap = (incumbentObj - best) / math.Max(1, math.Abs(incumbentObj))
	return res, nil
}

// fractionalVar returns the integer variable with the most fractional value
// (closest to 0.5), or -1 if all integer variables are integral within tol.
func fractionalVar(m *Model, x []float64, tol float64) Var {
	best := Var(-1)
	bestDist := tol
	for j := range x {
		v := Var(j)
		if !m.vars[j].integer {
			continue
		}
		frac := x[j] - math.Floor(x[j])
		// Prefer the most fractional variable (distance from integrality).
		if dist := math.Min(frac, 1-frac); dist > bestDist {
			best = v
			bestDist = dist
		}
	}
	return best
}

// roundIntegers snaps near-integral integer variables to exact integers.
func roundIntegers(m *Model, x []float64, tol float64) []float64 {
	out := append([]float64(nil), x...)
	for j := range out {
		if m.vars[j].integer {
			r := math.Round(out[j])
			if math.Abs(out[j]-r) <= 10*tol {
				out[j] = r
			}
		}
	}
	return out
}
