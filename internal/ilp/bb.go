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
	// proved within the limits (time, nodes, or gap tolerance reached).
	StatusFeasible
	// StatusInfeasible means the problem has no feasible solution.
	StatusInfeasible
	// StatusUnbounded means the relaxation is unbounded.
	StatusUnbounded
	// StatusError covers numerical failure or malformed input.
	StatusError
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
	default:
		return "error"
	}
}

// Options control the branch-and-bound search.
type Options struct {
	// TimeLimit bounds total solve time; zero means no limit.
	TimeLimit time.Duration
	// MaxNodes bounds the number of branch-and-bound nodes; zero means no
	// limit.
	MaxNodes int
	// GapTol stops the search when (incumbent − bestBound)/max(1,|incumbent|)
	// falls below this value; zero demands a full optimality proof. This is
	// the paper's "approximate lower bound … termination condition" (§7.1).
	GapTol float64
	// IntTol is the integrality tolerance (default 1e-6).
	IntTol float64
	// Rounder optionally converts a fractional relaxation solution into a
	// candidate integer solution using problem structure (Wishbone's
	// partitioner rounds fractional placements toward the server, which is
	// always feasible for monotone cuts). Candidates are checked against
	// the model before being accepted as incumbents, so an unsound rounder
	// costs time but never correctness.
	Rounder func(m *Model, x []float64) []float64

	// Cutoff optionally reads an external upper bound: the objective (in
	// model space) of a feasible solution some other solver already holds —
	// a racing heuristic's incumbent. Children whose relaxation bound
	// cannot beat it by more than the cutoff margin (1e-6, wider than any
	// tie tolerance) are never pushed, and stale nodes above it are
	// dropped at pop. Because the external bound is a feasible objective
	// of the same problem, it is never below the optimum; best-bound
	// search pops bounds in nondecreasing order and the optimum's path has
	// bounds at most the optimum, so every pruned node would anyway have
	// been discarded against the final incumbent after the winner was
	// installed. The returned X is therefore byte-identical to an
	// un-cut-off solve; only heap work (Result.CutoffPruned) and memory
	// shrink. The callback may tighten over time; it must never report a
	// value below a feasible objective.
	Cutoff func() (float64, bool)
}

// cutoffMargin is how far a subtree's bound must exceed the external
// cutoff before it is pruned. It is wider than the race's tie tolerance
// (1e-9) so equal-objective ties still surface the exact solution.
const cutoffMargin = 1e-6

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

	// Nodes is the number of branch-and-bound nodes solved; SimplexIters
	// is unused padding for future reporting.
	Nodes int

	// CutoffPruned counts subtrees discarded against the external
	// Options.Cutoff bound (never pushed, or dropped at pop).
	CutoffPruned int

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
	// Total order: push sequence breaks exact ties, so the exploration
	// order of surviving nodes cannot depend on which other nodes an
	// external cutoff pruned (container/heap is not otherwise stable).
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

// Solve runs branch-and-bound on the model. Maximization models are
// handled by the relaxation layer; the search logic always sees
// minimization bounds.
//
// The search is interruptible: it checks ctx between branch-and-bound
// nodes (and folds any ctx deadline into the effective time limit). When
// interrupted — by cancellation, deadline, TimeLimit, or MaxNodes — with a
// feasible incumbent in hand, Solve returns StatusFeasible with the
// incumbent and its proven gap rather than an error; only an interruption
// before any incumbent exists surfaces ctx.Err().
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
	// Fold a ctx deadline into the time limit so both interrupt the same
	// way: incumbent-with-gap when one exists.
	timeLimit := opts.TimeLimit
	if deadline, ok := ctx.Deadline(); ok {
		if d := time.Until(deadline); timeLimit == 0 || d < timeLimit {
			timeLimit = d
		}
	}
	intTol := opts.IntTol
	if intTol == 0 {
		intTol = 1e-6
	}
	minimize := m.Direction() == Minimize
	// Internal bound comparisons are on the minimization scale.
	scale := 1.0
	if !minimize {
		scale = -1
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
		incumbentObj = math.Inf(1) // minimization scale
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
		obj := scale * m.EvalObjective(cand)
		if obj < incumbentObj-1e-12 {
			incumbent = roundIntegers(m, cand, intTol)
			incumbentObj = obj
			res.DiscoverTime = time.Since(start)
		}
	}

	root := &bbNode{bound: scale * obj}
	// Root might already be integral.
	if v := fractionalVar(m, x, intTol); v == -1 {
		incumbent = roundIntegers(m, x, intTol)
		incumbentObj = scale * m.EvalObjective(incumbent)
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
		if timeLimit > 0 && time.Since(start) > timeLimit {
			proved = false
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
		if opts.Cutoff != nil {
			if co, ok := opts.Cutoff(); ok && node.bound > scale*co+cutoffMargin {
				res.CutoffPruned++
				continue // pruned by the external (raced) incumbent
			}
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
		bound := scale * obj
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
			candObj := scale * m.EvalObjective(cand)
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
		// An external cutoff keeps doomed children out of the heap
		// entirely; their pops could only ever have been discarded.
		cutChild := func(b float64) bool {
			if opts.Cutoff == nil {
				return false
			}
			co, ok := opts.Cutoff()
			return ok && b > scale*co+cutoffMargin
		}
		if down.hi >= down.lo-1e-9 {
			if cutChild(down.bound) {
				res.CutoffPruned++
			} else {
				seq++
				down.seq = seq
				heap.Push(h, down)
			}
		}
		if up.lo <= up.hi+1e-9 {
			if cutChild(up.bound) {
				res.CutoffPruned++
			} else {
				seq++
				up.seq = seq
				heap.Push(h, up)
			}
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
	res.BestBound = scale * best

	if incumbent == nil {
		if canceled {
			res.Status = StatusError
			return res, ctx.Err()
		}
		if !proved {
			res.Status = StatusError
			return res, nil
		}
		res.Status = StatusInfeasible
		return res, nil
	}
	res.X = incumbent
	res.Objective = scale * incumbentObj
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
