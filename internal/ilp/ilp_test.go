package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"
)

func solveOrDie(t *testing.T, m *Model) *Result {
	t.Helper()
	res, err := Solve(context.Background(), m, Options{TimeLimit: 30 * time.Second})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return res
}

func TestLPSimpleMin(t *testing.T) {
	// min x + y  s.t. x + 2y >= 4, 3x + y >= 6, x,y >= 0
	m := NewModel()
	x := m.AddVar("x", 0, math.Inf(1), false)
	y := m.AddVar("y", 0, math.Inf(1), false)
	m.SetObjCoef(x, 1)
	m.SetObjCoef(y, 1)
	m.AddConstraint("c1", []Term{{x, 1}, {y, 2}}, GE, 4)
	m.AddConstraint("c2", []Term{{x, 3}, {y, 1}}, GE, 6)
	st, sol, obj, err := SolveLP(m)
	if err != nil || st != StatusOptimal {
		t.Fatalf("status=%v err=%v", st, err)
	}
	// Optimum at intersection: x=8/5, y=6/5, obj=14/5.
	if math.Abs(obj-2.8) > 1e-6 {
		t.Fatalf("obj=%v want 2.8 (sol=%v)", obj, sol)
	}
}

func TestLPMaximize(t *testing.T) {
	// max 3x + 2y  s.t. x + y <= 4, x + 3y <= 6, 0 <= x,y
	m := NewModel()
	x := m.AddVar("x", 0, math.Inf(1), false)
	y := m.AddVar("y", 0, math.Inf(1), false)
	m.SetDirection(Maximize)
	m.SetObjCoef(x, 3)
	m.SetObjCoef(y, 2)
	m.AddConstraint("c1", []Term{{x, 1}, {y, 1}}, LE, 4)
	m.AddConstraint("c2", []Term{{x, 1}, {y, 3}}, LE, 6)
	st, sol, obj, err := SolveLP(m)
	if err != nil || st != StatusOptimal {
		t.Fatalf("status=%v err=%v", st, err)
	}
	if math.Abs(obj-12) > 1e-6 { // x=4, y=0
		t.Fatalf("obj=%v want 12 (sol=%v)", obj, sol)
	}
}

func TestLPBoundsShift(t *testing.T) {
	// min x with 2 <= x <= 5 and x >= 3 → x=3.
	m := NewModel()
	x := m.AddVar("x", 2, 5, false)
	m.SetObjCoef(x, 1)
	m.AddConstraint("c", []Term{{x, 1}}, GE, 3)
	st, sol, obj, err := SolveLP(m)
	if err != nil || st != StatusOptimal {
		t.Fatalf("status=%v err=%v", st, err)
	}
	if math.Abs(sol[0]-3) > 1e-6 || math.Abs(obj-3) > 1e-6 {
		t.Fatalf("sol=%v obj=%v want x=3", sol, obj)
	}
}

func TestLPUpperBoundActive(t *testing.T) {
	// max x + y with x <= 2, y <= 3 as variable bounds only.
	m := NewModel()
	x := m.AddVar("x", 0, 2, false)
	y := m.AddVar("y", 0, 3, false)
	m.SetDirection(Maximize)
	m.SetObjCoef(x, 1)
	m.SetObjCoef(y, 1)
	m.AddConstraint("cap", []Term{{x, 1}, {y, 1}}, LE, 10)
	st, sol, obj, err := SolveLP(m)
	if err != nil || st != StatusOptimal {
		t.Fatalf("status=%v err=%v", st, err)
	}
	if math.Abs(obj-5) > 1e-6 {
		t.Fatalf("obj=%v want 5 (sol=%v)", obj, sol)
	}
}

func TestLPInfeasible(t *testing.T) {
	m := NewModel()
	x := m.AddVar("x", 0, 1, false)
	m.AddConstraint("lo", []Term{{x, 1}}, GE, 2)
	st, _, _, err := SolveLP(m)
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusInfeasible {
		t.Fatalf("status=%v want infeasible", st)
	}
}

func TestLPUnbounded(t *testing.T) {
	m := NewModel()
	x := m.AddVar("x", 0, math.Inf(1), false)
	m.SetObjCoef(x, -1) // min -x, x unbounded above
	st, _, _, err := SolveLP(m)
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusUnbounded {
		t.Fatalf("status=%v want unbounded", st)
	}
}

func TestLPEquality(t *testing.T) {
	// min x + y s.t. x + y = 3, x - y = 1 → x=2, y=1.
	m := NewModel()
	x := m.AddVar("x", 0, math.Inf(1), false)
	y := m.AddVar("y", 0, math.Inf(1), false)
	m.SetObjCoef(x, 1)
	m.SetObjCoef(y, 1)
	m.AddConstraint("sum", []Term{{x, 1}, {y, 1}}, EQ, 3)
	m.AddConstraint("diff", []Term{{x, 1}, {y, -1}}, EQ, 1)
	st, sol, _, err := SolveLP(m)
	if err != nil || st != StatusOptimal {
		t.Fatalf("status=%v err=%v", st, err)
	}
	if math.Abs(sol[0]-2) > 1e-6 || math.Abs(sol[1]-1) > 1e-6 {
		t.Fatalf("sol=%v want [2 1]", sol)
	}
}

func TestILPKnapsack(t *testing.T) {
	// max 10a + 13b + 7c  s.t. 3a + 4b + 2c <= 6, binary.
	// Best: a+c (17, weight 5) vs b+c (20, weight 6) → b+c.
	m := NewModel()
	a := m.AddBinary("a")
	b := m.AddBinary("b")
	c := m.AddBinary("c")
	m.SetDirection(Maximize)
	m.SetObjCoef(a, 10)
	m.SetObjCoef(b, 13)
	m.SetObjCoef(c, 7)
	m.AddConstraint("w", []Term{{a, 3}, {b, 4}, {c, 2}}, LE, 6)
	res := solveOrDie(t, m)
	if res.Status != StatusOptimal {
		t.Fatalf("status=%v", res.Status)
	}
	if math.Abs(res.Objective-20) > 1e-6 {
		t.Fatalf("obj=%v want 20 (x=%v)", res.Objective, res.X)
	}
}

func TestILPInfeasible(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a")
	b := m.AddBinary("b")
	m.AddConstraint("c1", []Term{{a, 1}, {b, 1}}, GE, 3)
	res := solveOrDie(t, m)
	if res.Status != StatusInfeasible {
		t.Fatalf("status=%v want infeasible", res.Status)
	}
}

func TestILPFixedVariable(t *testing.T) {
	m := NewModel()
	a := m.AddVar("a", 1, 1, true) // fixed at 1
	b := m.AddBinary("b")
	m.SetObjCoef(a, 5)
	m.SetObjCoef(b, 1)
	m.AddConstraint("c", []Term{{a, 1}, {b, 1}}, GE, 2)
	res := solveOrDie(t, m)
	if res.Status != StatusOptimal || math.Abs(res.Objective-6) > 1e-6 {
		t.Fatalf("status=%v obj=%v want optimal 6", res.Status, res.Objective)
	}
	if res.X[0] != 1 || res.X[1] != 1 {
		t.Fatalf("x=%v want [1 1]", res.X)
	}
}

func TestILPTimesPopulated(t *testing.T) {
	m := NewModel()
	a := m.AddBinary("a")
	m.SetObjCoef(a, 1)
	m.AddConstraint("c", []Term{{a, 1}}, GE, 1)
	res := solveOrDie(t, m)
	if res.Status != StatusOptimal {
		t.Fatalf("status=%v", res.Status)
	}
	if res.ProveTime < res.DiscoverTime {
		t.Fatalf("prove %v < discover %v", res.ProveTime, res.DiscoverTime)
	}
}

// bruteForceBinary enumerates all assignments of the binary variables and
// returns the best feasible objective, or NaN if none is feasible. All
// variables of m must be binary.
func bruteForceBinary(m *Model, minimize bool) float64 {
	n := m.NumVars()
	best := math.NaN()
	x := make([]float64, n)
	for mask := 0; mask < 1<<n; mask++ {
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				x[j] = 1
			} else {
				x[j] = 0
			}
		}
		ok, _ := m.Feasible(x, 1e-9)
		if !ok {
			continue
		}
		z := m.EvalObjective(x)
		if math.IsNaN(best) || (minimize && z < best) || (!minimize && z > best) {
			best = z
		}
	}
	return best
}

// randomBinaryProgram draws a small binary program: 2..10 binaries, 1..5
// LE/GE/EQ rows with small integer coefficients, either direction.
func randomBinaryProgram(rng *rand.Rand) *Model {
	n := 2 + rng.Intn(9) // 2..10 binaries
	m := NewModel()
	for j := 0; j < n; j++ {
		v := m.AddBinary("b")
		m.SetObjCoef(v, float64(rng.Intn(21)-10))
	}
	if rng.Intn(2) != 0 {
		m.SetDirection(Maximize)
	}
	nCons := 1 + rng.Intn(5)
	for k := 0; k < nCons; k++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 0 {
				terms = append(terms, Term{Var(j), float64(rng.Intn(11) - 5)})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{Var(rng.Intn(n)), 1})
		}
		sense := []Sense{LE, GE, EQ}[rng.Intn(3)]
		rhs := float64(rng.Intn(15) - 7)
		m.AddConstraint("r", terms, sense, rhs)
	}
	return m
}

// TestILPAgainstBruteForce is the core correctness property: on random
// small binary programs, branch-and-bound must agree exactly with
// exhaustive enumeration, both on feasibility and on the optimal value.
func TestILPAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 120; trial++ {
		m := randomBinaryProgram(rng)
		minimize := m.Direction() == Minimize
		want := bruteForceBinary(m, minimize)
		res, err := Solve(context.Background(), m, Options{TimeLimit: 20 * time.Second})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.IsNaN(want) {
			if res.Status != StatusInfeasible {
				t.Fatalf("trial %d: got %v (obj %v), brute force says infeasible",
					trial, res.Status, res.Objective)
			}
			continue
		}
		if res.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v, want optimal (brute force obj %v)",
				trial, res.Status, want)
		}
		if math.Abs(res.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: obj %v, brute force %v (x=%v)",
				trial, res.Objective, want, res.X)
		}
		if ok, name := m.Feasible(res.X, 1e-6); !ok {
			t.Fatalf("trial %d: solver solution violates %q", trial, name)
		}
	}
}

// randomLP2 draws a 2-variable LP over the box [0,10]²: 1..4 LE rows with
// small integer coefficients and a small integer objective.
func randomLP2(rng *rand.Rand) *Model {
	m := NewModel()
	x := m.AddVar("x", 0, 10, false)
	y := m.AddVar("y", 0, 10, false)
	m.SetObjCoef(x, float64(rng.Intn(11)-5))
	m.SetObjCoef(y, float64(rng.Intn(11)-5))
	nCons := 1 + rng.Intn(4)
	for k := 0; k < nCons; k++ {
		a, b, rhs := float64(rng.Intn(9)-4), float64(rng.Intn(9)-4), float64(rng.Intn(21)-5)
		m.AddConstraint("c", []Term{{x, a}, {y, b}}, LE, rhs)
	}
	return m
}

// TestLPAgainstVertexEnum checks the LP solver on random 2-variable
// problems by enumerating constraint intersections.
func TestLPAgainstVertexEnum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 80; trial++ {
		m := randomLP2(rng)
		cx, cy := m.vars[0].obj, m.vars[1].obj
		type cons struct{ a, b, rhs float64 }
		var cs []cons
		for _, c := range m.constraints {
			cs = append(cs, cons{c.Terms[0].Coef, c.Terms[1].Coef, c.RHS})
		}
		// Candidate vertices: intersections of all pairs of constraint
		// lines plus the box corners and axis intersections.
		feas := func(px, py float64) bool {
			if px < -1e-9 || px > 10+1e-9 || py < -1e-9 || py > 10+1e-9 {
				return false
			}
			for _, c := range cs {
				if c.a*px+c.b*py > c.rhs+1e-9 {
					return false
				}
			}
			return true
		}
		lines := [][3]float64{{1, 0, 0}, {1, 0, 10}, {0, 1, 0}, {0, 1, 10}}
		for _, c := range cs {
			lines = append(lines, [3]float64{c.a, c.b, c.rhs})
		}
		best := math.NaN()
		for i := 0; i < len(lines); i++ {
			for j := i + 1; j < len(lines); j++ {
				a1, b1, r1 := lines[i][0], lines[i][1], lines[i][2]
				a2, b2, r2 := lines[j][0], lines[j][1], lines[j][2]
				det := a1*b2 - a2*b1
				if math.Abs(det) < 1e-12 {
					continue
				}
				px := (r1*b2 - r2*b1) / det
				py := (a1*r2 - a2*r1) / det
				if feas(px, py) {
					z := cx*px + cy*py
					if math.IsNaN(best) || z < best {
						best = z
					}
				}
			}
		}
		st, _, obj, err := SolveLP(m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.IsNaN(best) {
			if st != StatusInfeasible {
				t.Fatalf("trial %d: status %v, vertex enum says infeasible", trial, st)
			}
			continue
		}
		if st != StatusOptimal {
			t.Fatalf("trial %d: status %v want optimal (best %v)", trial, st, best)
		}
		if math.Abs(obj-best) > 1e-6 {
			t.Fatalf("trial %d: obj %v want %v", trial, obj, best)
		}
	}
}

func TestModelCloneIsolation(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x")
	c := m.Clone()
	c.SetBounds(x, 1, 1)
	if lo, _ := m.Bounds(x); lo != 0 {
		t.Fatal("Clone shares bound storage with original")
	}
}
