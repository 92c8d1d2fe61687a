package ilp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// iterateDense is the simplex loop with the dense pivot: every column of
// every row and of the reduced costs is updated, zeros included. It is
// the oracle of the sparse pivot the package ships; TestPivotDifferential
// holds the two to the same statuses, iteration counts, solutions and
// node counts.
func iterateDense(tb *tableau, c []float64, maxIters int) lpStatus {
	red := tb.reducedCosts(c)
	degen := 0
	bland := false

	for ; tb.iters < maxIters; tb.iters++ {
		enter := -1
		best := eps
		for j := 0; j < tb.n; j++ {
			if tb.stat[j] == inBasis || tb.u[j] == 0 {
				continue
			}
			var score float64
			if tb.stat[j] == atLower && red[j] < -eps {
				score = -red[j]
			} else if tb.stat[j] == atUpper && red[j] > eps {
				score = red[j]
			} else {
				continue
			}
			if bland {
				enter = j
				break
			}
			if score > best {
				best = score
				enter = j
			}
		}
		if enter == -1 {
			return lpOptimal
		}

		sign := 1.0
		if tb.stat[enter] == atUpper {
			sign = -1
		}

		tMax := tb.u[enter]
		leave := -1
		leaveAt := atLower
		for i := 0; i < tb.m; i++ {
			g := sign * tb.t[i][enter]
			var lim float64
			var at varStatus
			switch {
			case g > eps:
				lim = tb.xB[i] / g
				at = atLower
			case g < -eps:
				ub := tb.u[tb.basis[i]]
				if math.IsInf(ub, 1) {
					continue
				}
				lim = (ub - tb.xB[i]) / (-g)
				at = atUpper
			default:
				continue
			}
			if lim < 0 {
				lim = 0
			}
			better := lim < tMax-eps
			tied := !better && lim < tMax+eps && leave != -1
			if better || (tied && bland && tb.basis[i] < tb.basis[leave]) {
				tMax = lim
				leave = i
				leaveAt = at
			}
		}
		if math.IsInf(tMax, 1) {
			return lpUnbounded
		}
		if tMax < 0 {
			tMax = 0
		}

		if tMax <= eps {
			degen++
			if degen > maxDegen {
				bland = true
			}
		} else {
			degen = 0
			bland = false
		}

		if leave == -1 {
			for i := 0; i < tb.m; i++ {
				tb.xB[i] -= sign * tb.t[i][enter] * tMax
			}
			if tb.stat[enter] == atLower {
				tb.stat[enter] = atUpper
			} else {
				tb.stat[enter] = atLower
			}
			continue
		}

		for i := 0; i < tb.m; i++ {
			if i != leave {
				tb.xB[i] -= sign * tb.t[i][enter] * tMax
			}
		}
		var enterVal float64
		if tb.stat[enter] == atLower {
			enterVal = tMax
		} else {
			enterVal = tb.u[enter] - tMax
		}

		out := tb.basis[leave]
		tb.stat[out] = leaveAt
		tb.stat[enter] = inBasis
		tb.basis[leave] = enter
		tb.xB[leave] = enterVal

		pr := tb.t[leave]
		pv := pr[enter]
		inv := 1.0 / pv
		for j := 0; j < tb.n; j++ {
			pr[j] *= inv
		}
		pr[enter] = 1
		for i := 0; i < tb.m; i++ {
			if i == leave {
				continue
			}
			f := tb.t[i][enter]
			if f == 0 {
				continue
			}
			row := tb.t[i]
			for j := 0; j < tb.n; j++ {
				row[j] -= f * pr[j]
			}
			row[enter] = 0
		}
		f := red[enter]
		if f != 0 {
			for j := 0; j < tb.n; j++ {
				red[j] -= f * pr[j]
			}
		}
		red[enter] = 0
	}
	return lpIterLimit
}

// monotoneProgram draws a partitioning-shaped program like the ones the
// planner writes (§4.2, Restricted formulation): one binary per operator
// of a random layered DAG, f_u ≥ f_v on every edge, a CPU budget, an
// optional cut-bandwidth budget, pinned sources and sink, and an
// objective of CPU plus cut bandwidth.
func monotoneProgram(rng *rand.Rand) *Model {
	n := 4 + rng.Intn(12)
	m := NewModel()
	f := make([]Var, n)
	cpu := make([]Term, 0, n)
	for i := range f {
		f[i] = m.AddBinary(fmt.Sprintf("f_%d", i))
		c := float64(1 + rng.Intn(5))
		cpu = append(cpu, Term{f[i], c})
		m.AddObjCoef(f[i], float64(rng.Intn(2))*c)
	}
	m.SetBounds(f[0], 1, 1)
	m.SetBounds(f[n-1], 0, 0)
	var net []Term
	for u := 0; u < n-1; u++ {
		for v := u + 1; v < n; v++ {
			if v != u+1 && rng.Float64() >= 0.25 {
				continue
			}
			bw := float64(1 + rng.Intn(9))
			m.AddConstraint("mono", []Term{{f[u], 1}, {f[v], -1}}, GE, 0)
			net = append(net, Term{f[u], bw}, Term{f[v], -bw})
			m.AddObjCoef(f[u], bw)
			m.AddObjCoef(f[v], -bw)
		}
	}
	m.AddConstraint("cpu_budget", cpu, LE, float64(1+rng.Intn(3*n)))
	if rng.Intn(2) == 0 {
		m.AddConstraint("net_budget", net, LE, float64(3+rng.Intn(20)))
	}
	return m
}

// mixedProgram draws a general mixed-integer program: shifted and
// negative lower bounds, integer and continuous columns, and LE/GE/EQ
// rows whose shifted right-hand sides are often negative, so phase 1 and
// its artificial columns run on most nodes.
func mixedProgram(rng *rand.Rand) *Model {
	n := 3 + rng.Intn(8)
	m := NewModel()
	for j := 0; j < n; j++ {
		lo := float64(rng.Intn(7) - 3)
		v := m.AddVar("x", lo, lo+float64(1+rng.Intn(6)), rng.Intn(3) != 0)
		m.SetObjCoef(v, float64(rng.Intn(21)-10)+rng.Float64())
	}
	if rng.Intn(2) == 0 { // maximize: minimize the negation
		for j := range m.vars {
			m.vars[j].obj = -m.vars[j].obj
		}
	}
	for k := 0; k < 1+rng.Intn(2*n); k++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				terms = append(terms, Term{Var(j), float64(rng.Intn(13)-6) + 0.5*float64(rng.Intn(2))})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{Var(rng.Intn(n)), 1})
		}
		m.AddConstraint("r", terms, []Sense{LE, GE, EQ}[rng.Intn(3)], float64(rng.Intn(21)-10))
	}
	return m
}

// pivotTrace is everything one solve exposes: the outcome and every LP
// phase's iteration count, node by node.
type pivotTrace struct {
	res   *Result
	err   error
	iters []int
}

func solveTraced(m *Model, iterate func(*tableau, []float64, int) lpStatus) pivotTrace {
	var tr pivotTrace
	counted := func(tb *tableau, c []float64, maxIters int) lpStatus {
		s := iterate(tb, c, maxIters)
		tr.iters = append(tr.iters, int(s), tb.iters)
		return s
	}
	// A node cap, not a clock, bounds the few mixed programs whose
	// searches run long, so both pivots stop at the same node.
	tr.res, tr.err = search(context.Background(), m, Options{MaxNodes: 3000}, counted)
	return tr
}

// sameFloats compares value for value; == treats +0 and −0 as equal,
// which is the one difference a skipped x −= f·0 may leave.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPivotDifferential runs the package's seeded random LPs and binary
// programs, partitioning-shaped programs and general mixed-integer ones
// through the shipped sparse pivot and the dense oracle: every LP phase of
// every branch-and-bound node must take the same iterations to the same
// status, and the searches must end in the same status, node count,
// incumbent, objective, bound and gap.
func TestPivotDifferential(t *testing.T) {
	type gen struct {
		name   string
		seed   int64
		trials int
		draw   func(*rand.Rand) *Model
	}
	gens := []gen{
		{"lp2", 7, 80, randomLP2},
		{"binary", 42, 120, randomBinaryProgram},
		{"monotone", 2020, 150, monotoneProgram},
		{"mixed", 99, 150, mixedProgram},
		{"knapsack", 5, 1, func(*rand.Rand) *Model { return hardKnapsack(20, 5) }},
	}
	nodes := 0
	for _, g := range gens {
		rng := rand.New(rand.NewSource(g.seed))
		for trial := 0; trial < g.trials; trial++ {
			m := g.draw(rng)
			sparse, dense := solveTraced(m, (*tableau).iterate), solveTraced(m, iterateDense)
			if (sparse.err == nil) != (dense.err == nil) {
				t.Fatalf("%s %d: errors %v vs dense %v", g.name, trial, sparse.err, dense.err)
			}
			if fmt.Sprint(sparse.iters) != fmt.Sprint(dense.iters) {
				t.Fatalf("%s %d: (status, iterations) per phase %v, dense %v", g.name, trial, sparse.iters, dense.iters)
			}
			a, b := sparse.res, dense.res
			if a.Status != b.Status || a.Nodes != b.Nodes || !sameFloats(a.X, b.X) ||
				a.Objective != b.Objective || a.BestBound != b.BestBound || a.Gap != b.Gap {
				t.Fatalf("%s %d: sparse %v %d nodes x=%v obj %v bound %v gap %v\n dense %v %d nodes x=%v obj %v bound %v gap %v",
					g.name, trial, a.Status, a.Nodes, a.X, a.Objective, a.BestBound, a.Gap,
					b.Status, b.Nodes, b.X, b.Objective, b.BestBound, b.Gap)
			}
			nodes += a.Nodes
		}
	}
	t.Logf("%d branch-and-bound nodes, identical", nodes)
}

// gridProgram is a multi-row knapsack wide enough that one tableau (rows ×
// columns) dwarfs a branch-and-bound node's own bookkeeping.
func gridProgram(rows, cols int) *Model {
	rng := rand.New(rand.NewSource(11))
	m := NewModel()
	for j := 0; j < cols; j++ {
		m.SetObjCoef(m.AddBinary("x"), -(50 + 10*rng.Float64()))
	}
	for i := 0; i < rows; i++ {
		terms := make([]Term, cols)
		for j := range terms {
			terms[j] = Term{Var(j), 10 + 10*rng.Float64()}
		}
		m.AddConstraint("cap", terms, LE, 15*float64(cols)/2)
	}
	return m
}

// TestSolveReusesTableau: one search keeps one slab of tableau rows, so
// the bytes a solve allocates grow with its node count by much less than
// one rows × columns grid of float64 per node (each node used to clone
// the model, build fresh rows and copy every row twice).
func TestSolveReusesTableau(t *testing.T) {
	const rows, cols = 24, 24
	m := gridProgram(rows, cols)
	measure := func(maxNodes int) (bytes, allocs float64, nodes int) {
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, func() {
			res, err := Solve(context.Background(), m, Options{MaxNodes: maxNodes})
			if err != nil {
				t.Fatal(err)
			}
			nodes = res.Nodes
		})
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1), allocs, nodes
	}
	b1, a1, n1 := measure(10)
	b2, a2, n2 := measure(200)
	if n2-n1 < 100 {
		t.Fatalf("node limits reached only %d and %d nodes", n1, n2)
	}
	grid := float64(8 * rows * (rows + cols)) // rows × (structurals + slacks)
	perNode := (b2 - b1) / float64(n2-n1)
	t.Logf("%d → %d nodes: %.0f → %.0f B, %.0f → %.0f allocs; %.0f B per node, grid %.0f B",
		n1, n2, b1, b2, a1, a2, perNode, grid)
	if perNode >= grid/4 {
		t.Errorf("each extra node allocates %.0f B, a quarter grid is %.0f B", perNode, grid/4)
	}
}
