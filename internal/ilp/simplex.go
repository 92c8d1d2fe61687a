package ilp

import (
	"fmt"
	"math"
)

// lpStatus is the outcome of a linear-relaxation solve.
type lpStatus int

const (
	lpOptimal lpStatus = iota
	lpInfeasible
	lpUnbounded
	lpIterLimit
)

func (s lpStatus) String() string {
	switch s {
	case lpOptimal:
		return "optimal"
	case lpInfeasible:
		return "infeasible"
	case lpUnbounded:
		return "unbounded"
	default:
		return "iteration-limit"
	}
}

const (
	eps        = 1e-9
	feasTol    = 1e-7
	maxDegen   = 200  // consecutive degenerate pivots before Bland's rule
	iterFactor = 200  // iteration cap = iterFactor * (m + n)
	minIters   = 5000 // floor on the iteration cap
)

// standard is a model in computational standard form:
//
//	minimize  c·y + objConst
//	subject to  A·y = b,  0 ≤ y ≤ u
//
// where y are the shifted structural variables followed by slacks. Lower
// bounds are shifted to zero (y_j = x_j − lo_j); GE rows are negated to LE
// before slacks are added, so every slack has bounds [0, +inf) except EQ
// rows, which get no slack.
//
// The rows are laid out at tableau width: after the n structural and slack
// columns come the artificials newTableau will need (one per EQ row and per
// row whose b is negative), so the tableau pivots on these rows in place.
// A standard's slices are reused by the next standardize into it.
type standard struct {
	m, n     int // rows, columns (structurals + slacks)
	nStruct  int // structural variable count
	nArt     int // artificial columns after the n real ones
	a        [][]float64
	slab     []float64 // backing store of a
	b        []float64
	c        []float64 // costs at tableau width (artificials 0)
	u        []float64 // upper bounds at tableau width (math.Inf(1) when unbounded)
	slack    []int     // slack column of each row, -1 for EQ rows
	objConst float64
	lo       []float64 // original lower bounds of structurals (for unshifting)
	x        []float64 // model-space solution of the last solve
}

// grow returns s resized to n, reallocating only when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// standardize converts a Model to standard form in st. It returns an error
// for malformed bounds (lo > hi).
func standardize(m *Model, st *standard) error {
	ns := len(m.vars)
	st.nStruct = ns
	st.lo = grow(st.lo, ns)

	for j, v := range m.vars {
		if v.lo > v.hi+eps {
			return fmt.Errorf("ilp: variable %s has lo %g > hi %g", v.name, v.lo, v.hi)
		}
		st.lo[j] = v.lo
	}

	// z = Σ obj_j·x_j with x_j = lo_j + y_j, so in shifted space
	// z = Σ obj_j·lo_j + Σ obj_j·y_j, and objConst is the first sum.

	// Slacks (one per inequality row), right-hand sides with the lower
	// bounds shifted in, and the rows that will need an artificial.
	st.m = len(m.constraints)
	st.b = grow(st.b, st.m)
	st.slack = grow(st.slack, st.m)
	nSlack, nArt := 0, 0
	for i, con := range m.constraints {
		rhs := con.RHS
		for _, t := range con.Terms {
			rhs -= t.Coef * m.vars[t.Var].lo
		}
		st.slack[i] = -1
		switch con.Sense {
		case GE:
			rhs *= -1 // negate to LE
			fallthrough
		case LE:
			st.slack[i] = ns + nSlack
			nSlack++
		}
		if st.slack[i] < 0 || rhs < 0 {
			nArt++
		}
		st.b[i] = rhs
	}
	st.n = ns + nSlack
	st.nArt = nArt
	w := st.n + nArt

	st.c = grow(st.c, w)
	st.u = grow(st.u, w)
	st.objConst = 0
	for j, v := range m.vars {
		st.c[j] = v.obj
		st.u[j] = v.hi - v.lo
		st.objConst += v.obj * v.lo
	}
	for j := ns; j < w; j++ {
		st.c[j] = 0
		st.u[j] = math.Inf(1)
	}

	// Sized once for the widest tableau (an artificial on every row), the
	// slab serves every node of a search without regrowing.
	if cap(st.slab) < st.m*w {
		st.slab = make([]float64, 0, st.m*(st.n+st.m))
	}
	st.slab = st.slab[:st.m*w]
	clear(st.slab)
	st.a = grow(st.a, st.m)
	for i, con := range m.constraints {
		row := st.slab[i*w : (i+1)*w : (i+1)*w]
		for _, t := range con.Terms {
			row[t.Var] += t.Coef
		}
		if con.Sense == GE {
			for j := range row[:st.n] {
				row[j] *= -1
			}
		}
		if k := st.slack[i]; k >= 0 {
			row[k] = 1
		}
		st.a[i] = row
	}
	return nil
}

// unshift converts a standard-form solution back to model-space values for
// the structural variables, in st.x.
func (st *standard) unshift(y []float64) []float64 {
	st.x = grow(st.x, st.nStruct)
	for j := 0; j < st.nStruct; j++ {
		st.x[j] = y[j] + st.lo[j]
	}
	return st.x
}

// varStatus is the position of a nonbasic variable.
type varStatus uint8

const (
	atLower varStatus = iota
	atUpper
	inBasis
)

// tableau is the dense working state of the bounded-variable simplex. It
// pivots on its standard form's rows in place; its own slices are reused
// by the next newTableau into it.
type tableau struct {
	m, n  int // rows, total columns including artificials
	nReal int // structurals + slacks (artificials have index ≥ nReal)
	t     [][]float64
	xB    []float64 // current values of basic variables
	basis []int     // basis[i] = column basic in row i
	stat  []varStatus
	u     []float64 // bounds including artificials (u=0 after phase 1)
	iters int

	cost, red, cb, y []float64 // phase-1 costs and iterate/solution scratch
	nz               []int     // nonzero columns of the pivot row
}

// newTableau sets tb up over st with artificial variables for every row
// that lacks a natural basic slack (EQ rows, and rows whose RHS was
// negative after normalization).
func newTableau(st *standard, tb *tableau) {
	m, n := st.m, st.n
	*tb = tableau{
		m: m, n: n + st.nArt, nReal: n, t: st.a, xB: st.b, u: st.u,
		basis: grow(tb.basis, m), stat: grow(tb.stat, n+st.nArt),
		cost: tb.cost, red: tb.red, cb: tb.cb, y: tb.y, nz: tb.nz,
	}
	clear(tb.stat)

	// Normalize b ≥ 0 by negating rows; a negated row's slack has
	// coefficient −1 and cannot start basic.
	art := n
	for i, row := range tb.t {
		j := st.slack[i]
		if tb.xB[i] < 0 {
			for k := range row[:n] {
				row[k] = -row[k]
			}
			tb.xB[i] = -tb.xB[i]
			j = -1
		}
		if j < 0 {
			row[art] = 1
			j = art
			art++
		}
		tb.basis[i] = j
		tb.stat[j] = inBasis
	}
}

// solution extracts all column values.
func (tb *tableau) solution() []float64 {
	tb.y = grow(tb.y, tb.n)
	y := tb.y
	for j := 0; j < tb.n; j++ {
		switch tb.stat[j] {
		case atUpper:
			y[j] = tb.u[j]
		default:
			y[j] = 0
		}
	}
	for i, j := range tb.basis {
		y[j] = tb.xB[i]
	}
	return y
}

// reducedCosts computes c̄ = c − c_B·T for the given cost vector (length
// tb.n; artificial costs included).
func (tb *tableau) reducedCosts(c []float64) []float64 {
	tb.cb = grow(tb.cb, tb.m)
	cb := tb.cb
	for i, j := range tb.basis {
		cb[i] = c[j]
	}
	tb.red = grow(tb.red, tb.n)
	red := tb.red
	copy(red, c)
	for i := 0; i < tb.m; i++ {
		if cb[i] == 0 {
			continue
		}
		row := tb.t[i]
		for j := 0; j < tb.n; j++ {
			red[j] -= cb[i] * row[j]
		}
	}
	for _, j := range tb.basis {
		red[j] = 0
	}
	return red
}

// iterate runs bounded-variable primal simplex with cost vector c until
// optimality, unboundedness, or the iteration cap. The reduced-cost vector
// is maintained incrementally.
func (tb *tableau) iterate(c []float64, maxIters int) lpStatus {
	red := tb.reducedCosts(c)
	degen := 0
	bland := false

	for ; tb.iters < maxIters; tb.iters++ {
		// Entering variable: nonbasic at lower with negative reduced cost,
		// or at upper with positive reduced cost.
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

		// Ratio test: the entering variable moves distance t from its
		// current bound. Basic variables change by −sign·T[i][enter]·t.
		tMax := tb.u[enter] // bound-flip distance (may be +inf)
		leave := -1
		leaveAt := atLower
		for i := 0; i < tb.m; i++ {
			g := sign * tb.t[i][enter]
			var lim float64
			var at varStatus
			switch {
			case g > eps:
				// basic i decreases toward 0
				lim = tb.xB[i] / g
				at = atLower
			case g < -eps:
				// basic i increases toward its upper bound
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
			// Bound flip: the entering variable crosses to its other bound
			// without any basic variable blocking.
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

		// Update basic values for the step, then pivot.
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

		// Pivot the tableau on (leave, enter). Only the pivot row's nonzero
		// columns change the other rows and the reduced costs: the skipped
		// x −= f·0 could only flip the sign of a zero, never a value.
		pr := tb.t[leave]
		inv := 1.0 / pr[enter]
		nz := tb.nz[:0]
		for j := range pr {
			pr[j] *= inv
			if pr[j] != 0 {
				nz = append(nz, j)
			}
		}
		tb.nz = nz
		pr[enter] = 1
		for i, row := range tb.t {
			f := row[enter]
			if i == leave || f == 0 {
				continue
			}
			for _, j := range nz {
				row[j] -= f * pr[j]
			}
			row[enter] = 0
		}
		if f := red[enter]; f != 0 {
			for _, j := range nz {
				red[j] -= f * pr[j]
			}
		}
		red[enter] = 0
	}
	return lpIterLimit
}

// solveLP solves the standard-form LP on tb with the given pivot loop. On
// lpOptimal it returns the structural solution (model space, in st.x) and
// objective value.
func solveLP(st *standard, tb *tableau, iterate func(*tableau, []float64, int) lpStatus) (lpStatus, []float64, float64) {
	newTableau(st, tb)
	maxIters := iterFactor * (tb.m + tb.n)
	if maxIters < minIters {
		maxIters = minIters
	}

	// Phase 1: minimize the sum of artificials.
	if tb.nReal < tb.n {
		tb.cost = grow(tb.cost, tb.n)
		c1 := tb.cost
		for j := range c1 {
			c1[j] = 0
			if j >= tb.nReal {
				c1[j] = 1
			}
		}
		status := iterate(tb, c1, maxIters)
		if status == lpIterLimit {
			return lpIterLimit, nil, 0
		}
		sum := 0.0
		for i, j := range tb.basis {
			if j >= tb.nReal {
				sum += tb.xB[i]
			}
		}
		if sum > feasTol {
			return lpInfeasible, nil, 0
		}
		// Lock artificials at zero so they can never re-enter or grow.
		for j := tb.nReal; j < tb.n; j++ {
			tb.u[j] = 0
		}
	}

	// Phase 2: the real objective (artificial costs zero).
	status := iterate(tb, st.c, maxIters)
	if status != lpOptimal {
		return status, nil, 0
	}

	y := tb.solution()
	obj := st.objConst
	for j := 0; j < st.n; j++ {
		obj += st.c[j] * y[j]
	}
	x := st.unshift(y)
	return lpOptimal, x, obj
}

// relaxation is the storage a sequence of LP solves shares: Solve keeps one
// for its whole branch-and-bound, so a node costs no new rows.
type relaxation struct {
	st      standard
	tb      tableau
	iterate func(*tableau, []float64, int) lpStatus
}

// solve solves the linear relaxation of m (ignoring integrality). The
// returned solution aliases the relaxation's storage until the next solve.
func (r *relaxation) solve(m *Model) (Status, []float64, float64, error) {
	if err := standardize(m, &r.st); err != nil {
		return StatusError, nil, 0, err
	}
	status, x, obj := solveLP(&r.st, &r.tb, r.iterate)
	switch status {
	case lpOptimal:
		return StatusOptimal, x, obj, nil
	case lpInfeasible:
		return StatusInfeasible, nil, 0, nil
	case lpUnbounded:
		return StatusUnbounded, nil, 0, nil
	default:
		return StatusError, nil, 0, fmt.Errorf("ilp: simplex iteration limit exceeded")
	}
}
