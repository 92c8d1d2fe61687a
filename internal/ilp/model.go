// Package ilp is a from-scratch integer linear programming solver: a
// two-phase primal simplex with variable bounds for linear relaxations,
// and branch-and-bound for integrality.
//
// It plays the role of lp_solve in the paper ("uses branch-and-bound to
// solve integer-constrained problems, like ours, and the Simplex algorithm
// to solve linear programming problems", §4.2.1 fn.3). Pure Go keeps the
// module dependency-free; problem sizes after Wishbone's preprocessing
// (§4.1) are small enough for a dense tableau.
//
// The solver distinguishes the time at which the optimal solution was
// *discovered* (last incumbent improvement) from the time it was *proved*
// optimal (search exhausted or gap closed) — the two CDFs of the paper's
// Figure 6.
//
// Storage is reused per search: every branch-and-bound node standardizes
// into the same slab of tableau rows and one work model, and a pivot
// updates only the pivot row's nonzero columns. The arithmetic is that of
// a fresh dense tableau per node — the same operations on the same values
// in the same order, short of the skipped x −= f·0, which can flip only
// the sign of a zero — so statuses, iteration and node counts, solutions
// and objectives are unchanged. The dense pivot is kept in the tests as
// the oracle.
package ilp

import "fmt"

// Sense is the direction of a constraint.
type Sense int

const (
	// LE is a ≤ constraint.
	LE Sense = iota
	// GE is a ≥ constraint.
	GE
	// EQ is an = constraint.
	EQ
)

// String returns "<=", ">=" or "=".
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "="
	}
}

// Var identifies a decision variable in a Model.
type Var int

// Term is one coefficient·variable product in a linear expression.
type Term struct {
	Var  Var
	Coef float64
}

// Constraint is a linear constraint Σ terms (sense) RHS.
type Constraint struct {
	Terms []Term
	Sense Sense
	RHS   float64
	Name  string
}

type varInfo struct {
	name    string
	lo, hi  float64
	integer bool
	obj     float64
}

// Model is a mixed-integer linear program under construction; Solve
// minimizes its objective. The zero value is an empty model ready for use.
type Model struct {
	vars        []varInfo
	constraints []Constraint
}

// NewModel returns an empty minimization model.
func NewModel() *Model { return &Model{} }

// AddVar adds a variable with bounds [lo, hi]; integer marks it as
// integrality-constrained. It returns the variable's handle.
func (m *Model) AddVar(name string, lo, hi float64, integer bool) Var {
	m.vars = append(m.vars, varInfo{name: name, lo: lo, hi: hi, integer: integer})
	return Var(len(m.vars) - 1)
}

// AddBinary adds a 0/1 integer variable.
func (m *Model) AddBinary(name string) Var { return m.AddVar(name, 0, 1, true) }

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.vars) }

// NumConstraints returns the number of constraints.
func (m *Model) NumConstraints() int { return len(m.constraints) }

// Bounds returns the bounds of v.
func (m *Model) Bounds(v Var) (lo, hi float64) { return m.vars[v].lo, m.vars[v].hi }

// SetBounds replaces the bounds of v (branch-and-bound uses this on cloned
// models; callers may use it to fix variables).
func (m *Model) SetBounds(v Var, lo, hi float64) {
	m.vars[v].lo, m.vars[v].hi = lo, hi
}

// SetObjCoef sets the objective coefficient of v.
func (m *Model) SetObjCoef(v Var, c float64) { m.vars[v].obj = c }

// AddObjCoef adds c to the objective coefficient of v.
func (m *Model) AddObjCoef(v Var, c float64) { m.vars[v].obj += c }

// AddConstraint adds Σ terms (sense) rhs and returns its index.
func (m *Model) AddConstraint(name string, terms []Term, sense Sense, rhs float64) int {
	for _, t := range terms {
		if int(t.Var) < 0 || int(t.Var) >= len(m.vars) {
			panic(fmt.Sprintf("ilp: constraint %q references unknown variable %d", name, t.Var))
		}
	}
	m.constraints = append(m.constraints, Constraint{
		Terms: terms, Sense: sense, RHS: rhs, Name: name,
	})
	return len(m.constraints) - 1
}

// Clone returns a deep copy of the model. Constraint term slices are shared
// (they are never mutated); variable bounds and objective are copied.
func (m *Model) Clone() *Model {
	c := &Model{
		vars:        append([]varInfo(nil), m.vars...),
		constraints: m.constraints, // immutable after creation
	}
	return c
}

// EvalObjective computes the objective value of an assignment.
func (m *Model) EvalObjective(x []float64) float64 {
	var z float64
	for i, v := range m.vars {
		z += v.obj * x[i]
	}
	return z
}

// Feasible reports whether x satisfies all constraints and bounds within
// tol, and returns the name of the first violated constraint otherwise.
func (m *Model) Feasible(x []float64, tol float64) (bool, string) {
	for i, v := range m.vars {
		if x[i] < v.lo-tol || x[i] > v.hi+tol {
			return false, fmt.Sprintf("bounds of %s", v.name)
		}
	}
	for _, c := range m.constraints {
		lhs := 0.0
		for _, t := range c.Terms {
			lhs += t.Coef * x[t.Var]
		}
		switch c.Sense {
		case LE:
			if lhs > c.RHS+tol {
				return false, c.Name
			}
		case GE:
			if lhs < c.RHS-tol {
				return false, c.Name
			}
		case EQ:
			if lhs < c.RHS-tol || lhs > c.RHS+tol {
				return false, c.Name
			}
		}
	}
	return true, ""
}
