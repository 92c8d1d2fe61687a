package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"wishbone/internal/dataflow"
	"wishbone/internal/ilp"
)

// recordingSolver is the exact backend that remembers every spec it was
// asked to solve, so a test sees each probe of the §4.3 rate search.
type recordingSolver struct {
	Exact
	specs *[]*Spec
}

func (r recordingSolver) Solve(ctx context.Context, s *Spec, lim Limits) (*Assignment, BackendStats, error) {
	*r.specs = append(*r.specs, s)
	return r.Exact.Solve(ctx, s, lim)
}

// restrictedModel writes the ILP Partition solves for s under
// DefaultOptions (Restricted formulation, §4.1 preprocessing, no RAM
// budget): one binary per cluster (eq. 1), the CPU budget (eq. 2), the
// monotone edge rows (eq. 6) and the network budget (eq. 7), plus the
// round-toward-server heuristic.
func restrictedModel(s *Spec) (*ilp.Model, ilp.Options) {
	red := buildReduced(s, true)
	m := ilp.NewModel()
	fv := make([]ilp.Var, len(red.clusters))
	var cpuTerms []ilp.Term
	for i, c := range red.clusters {
		fv[i] = m.AddBinary(fmt.Sprintf("f_%d", i))
		switch c.place {
		case dataflow.PinNode:
			m.SetBounds(fv[i], 1, 1)
		case dataflow.PinServer:
			m.SetBounds(fv[i], 0, 0)
		}
	}
	for i, c := range red.clusters {
		if c.cpu != 0 {
			cpuTerms = append(cpuTerms, ilp.Term{Var: fv[i], Coef: c.cpu})
			m.AddObjCoef(fv[i], s.Alpha*c.cpu)
		}
	}
	if s.CPUBudget > 0 && len(cpuTerms) > 0 {
		m.AddConstraint("cpu_budget", cpuTerms, ilp.LE, s.CPUBudget)
	}
	var netTerms []ilp.Term
	for _, e := range red.edges {
		m.AddConstraint(fmt.Sprintf("mono_%d_%d", e.from, e.to),
			[]ilp.Term{{Var: fv[e.from], Coef: 1}, {Var: fv[e.to], Coef: -1}}, ilp.GE, 0)
		netTerms = append(netTerms, ilp.Term{Var: fv[e.from], Coef: e.bw}, ilp.Term{Var: fv[e.to], Coef: -e.bw})
		m.AddObjCoef(fv[e.from], s.Beta*e.bw)
		m.AddObjCoef(fv[e.to], -s.Beta*e.bw)
	}
	if s.NetBudget > 0 && len(netTerms) > 0 {
		m.AddConstraint("net_budget", netTerms, ilp.LE, s.NetBudget)
	}
	return m, ilp.Options{Rounder: func(_ *ilp.Model, x []float64) []float64 {
		out := make([]float64, len(x))
		for i, v := range x {
			if v >= 1-1e-9 {
				out[i] = 1
			}
		}
		return out
	}}
}

// pinSolve renders one ILP outcome as "status nodes objbits x", with x
// one '0'/'1' per variable (±0 both read '0'; any other value fails).
func pinSolve(t *testing.T, res *ilp.Result) string {
	t.Helper()
	var x strings.Builder
	for _, v := range res.X {
		switch v {
		case 0:
			x.WriteByte('0')
		case 1:
			x.WriteByte('1')
		default:
			t.Fatalf("non-binary incumbent value %v", v)
		}
	}
	if res.X == nil {
		x.WriteByte('-')
	}
	return fmt.Sprintf("%v %d %016x %s", res.Status, res.Nodes, math.Float64bits(res.Objective), x.String())
}

// TestExactSolvePinned guards the exact backend's arithmetic: every ILP
// AutoPartition solves — the full-rate probe and each §4.3 rate-search
// probe — over the Fig. 3 budgets and the 50 seeded random specs of
// TestSolverLagrangianIterationsPinned, pinned by status, branch-and-bound
// node count, the objective's bits and the incumbent. A change to the
// simplex's pivot order, its tolerances, the branching rule or the §4.1
// clustering moves these. Each probe's node count is also checked against
// the one Partition reported for it, so the model above cannot drift from
// the one Partition writes.
func TestExactSolvePinned(t *testing.T) {
	var specs []*Spec
	_, fig3 := fig3Graph(t)
	for _, budget := range []float64{2, 3, 4} {
		s := *fig3
		s.CPUBudget = budget
		specs = append(specs, &s)
	}
	rng := rand.New(rand.NewSource(2020))
	for len(specs) < len(exactPinned) {
		specs = append(specs, randomSpec(rng))
	}
	ctx := context.Background()
	for i, spec := range specs {
		var probes []*Spec
		auto, err := AutoPartitionWith(ctx, spec, 1, 0.005, Limits{}, recordingSolver{Exact{Opts: DefaultOptions()}, &probes})
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		var got []string
		for k, p := range probes {
			m, opts := restrictedModel(p)
			res, err := ilp.Solve(ctx, m, opts)
			if err != nil {
				t.Fatalf("spec %d probe %d: %v", i, k, err)
			}
			if res.Nodes != auto.Solves[k].Iterations {
				t.Fatalf("spec %d probe %d: model solved in %d nodes, Partition reported %d",
					i, k, res.Nodes, auto.Solves[k].Iterations)
			}
			got = append(got, pinSolve(t, res))
		}
		if want := exactPinned[i]; strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("spec %d:\n got %q\nwant %q", i, got, want)
		}
	}
}

// exactPinned is recorded at the commit before the solve path reused its
// storage: one entry per AutoPartition probe, in probe order.
var exactPinned = [][]string{
	{ // 0
		"optimal 1 4020000000000000 110000",
	},
	{ // 1
		"optimal 1 4018000000000000 110100",
	},
	{ // 2
		"optimal 4 4014000000000000 111100",
	},
	{ // 3
		"optimal 1 4028000000000000 100101",
	},
	{ // 4
		"optimal 1 4037000000000000 110010000",
	},
	{ // 5
		"infeasible 0 0000000000000000 -",
		"optimal 1 401c000000000000 100",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
	},
	{ // 6
		"optimal 1 403d000000000000 110010",
	},
	{ // 7
		"optimal 1 401c000000000000 10010000",
	},
	{ // 8
		"optimal 4 4035000000000000 10000000",
	},
	{ // 9
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"optimal 1 4012800000000000 110000",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
	},
	{ // 10
		"infeasible 0 0000000000000000 -",
		"optimal 1 402c000000000000 10010000",
		"optimal 1 4035000000000000 10010000",
		"infeasible 0 0000000000000000 -",
		"optimal 4 4036c00000000000 10011000",
		"optimal 4 4037a00000000000 10011000",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"optimal 4 4037bc0000000000 10011000",
	},
	{ // 11
		"infeasible 0 0000000000000000 -",
		"optimal 1 401c000000000000 10000",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
	},
	{ // 12
		"optimal 1 4026000000000000 1000000000",
	},
	{ // 13
		"optimal 1 4039000000000000 100000",
	},
	{ // 14
		"optimal 6 402e000000000000 11100",
	},
	{ // 15
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"optimal 1 4012000000000000 100",
		"optimal 1 401b000000000000 100",
		"infeasible 0 0000000000000000 -",
		"optimal 4 4020400000000000 101",
		"optimal 4 4020e00000000000 101",
		"infeasible 0 0000000000000000 -",
		"optimal 4 4021080000000000 101",
		"optimal 4 40211c0000000000 101",
	},
	{ // 16
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"optimal 1 3ff8000000000000 10",
		"infeasible 0 0000000000000000 -",
		"optimal 1 3ffe000000000000 10",
		"infeasible 0 0000000000000000 -",
		"optimal 1 3fff800000000000 10",
		"infeasible 0 0000000000000000 -",
		"optimal 1 3fffe00000000000 10",
		"infeasible 0 0000000000000000 -",
		"optimal 1 3ffff80000000000 10",
	},
	{ // 17
		"optimal 1 4008000000000000 11110",
	},
	{ // 18
		"infeasible 0 0000000000000000 -",
		"optimal 1 4024000000000000 1101",
		"optimal 1 402e000000000000 1101",
		"optimal 1 4031800000000000 1101",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"optimal 1 4031a80000000000 1101",
		"optimal 1 4031bc0000000000 1101",
	},
	{ // 19
		"infeasible 0 0000000000000000 -",
		"optimal 1 4021000000000000 110000",
		"optimal 1 4029800000000000 110000",
		"optimal 1 402dc00000000000 110000",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"optimal 1 402e480000000000 110000",
		"optimal 1 402e8c0000000000 110000",
		"infeasible 0 0000000000000000 -",
	},
	{ // 20
		"optimal 1 402c000000000000 100000",
	},
	{ // 21
		"optimal 1 4020000000000000 11011",
	},
	{ // 22
		"optimal 4 4028000000000000 100000000",
	},
	{ // 23
		"infeasible 0 0000000000000000 -",
		"optimal 1 400c000000000000 11101",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"optimal 1 400f800000000000 11101",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"optimal 1 400ff00000000000 11101",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
	},
	{ // 24
		"optimal 1 4035000000000000 1000000",
	},
	{ // 25
		"optimal 1 4024000000000000 11011",
	},
	{ // 26
		"optimal 1 4000000000000000 1110",
	},
	{ // 27
		"infeasible 0 0000000000000000 -",
		"infeasible 4 0000000000000000 -",
		"optimal 1 3ff4000000000000 111110",
		"optimal 1 3ffe000000000000 111110",
		"infeasible 4 0000000000000000 -",
		"infeasible 4 0000000000000000 -",
		"optimal 1 3fff400000000000 111110",
		"infeasible 4 0000000000000000 -",
		"infeasible 4 0000000000000000 -",
		"infeasible 4 0000000000000000 -",
	},
	{ // 28
		"infeasible 0 0000000000000000 -",
		"optimal 4 4018000000000000 1100",
		"infeasible 0 0000000000000000 -",
		"optimal 4 401e000000000000 1100",
		"infeasible 0 0000000000000000 -",
		"optimal 4 401f800000000000 1100",
		"infeasible 0 0000000000000000 -",
		"optimal 4 401fe00000000000 1100",
		"infeasible 0 0000000000000000 -",
		"optimal 4 401ff80000000000 1100",
	},
	{ // 29
		"optimal 1 4035000000000000 1100",
	},
	{ // 30
		"optimal 1 4022000000000000 100000",
	},
	{ // 31
		"optimal 1 4030000000000000 1101",
	},
	{ // 32
		"optimal 1 4038000000000000 11100",
	},
	{ // 33
		"optimal 1 4032000000000000 1110",
	},
	{ // 34
		"optimal 1 4030000000000000 100",
	},
	{ // 35
		"optimal 1 4032000000000000 100",
	},
	{ // 36
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"optimal 4 4014000000000000 1100",
		"infeasible 0 0000000000000000 -",
		"optimal 4 4019000000000000 1100",
		"infeasible 0 0000000000000000 -",
		"optimal 4 401a400000000000 1100",
		"infeasible 0 0000000000000000 -",
		"optimal 4 401a900000000000 1100",
		"infeasible 0 0000000000000000 -",
		"optimal 4 401aa40000000000 1100",
	},
	{ // 37
		"optimal 1 4024000000000000 100000000",
	},
	{ // 38
		"optimal 1 402c000000000000 11101",
	},
	{ // 39
		"infeasible 0 0000000000000000 -",
		"optimal 4 402e000000000000 10000",
		"infeasible 0 0000000000000000 -",
		"infeasible 6 0000000000000000 -",
		"optimal 4 4030e00000000000 10000",
		"optimal 4 4031d00000000000 10000",
		"optimal 4 4032480000000000 10000",
		"infeasible 6 0000000000000000 -",
		"optimal 4 4032660000000000 10000",
		"optimal 4 4032750000000000 10000",
	},
	{ // 40
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"optimal 1 400e000000000000 1110",
		"optimal 1 4016800000000000 1110",
		"optimal 1 401a400000000000 1110",
		"infeasible 0 0000000000000000 -",
		"optimal 1 401b300000000000 1110",
		"optimal 1 401ba80000000000 1110",
		"optimal 1 401be40000000000 1110",
		"infeasible 0 0000000000000000 -",
	},
	{ // 41
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"optimal 1 4015000000000000 1000000",
		"optimal 1 401f800000000000 1000000",
		"optimal 1 4022600000000000 1000000",
		"optimal 1 4023b00000000000 1000000",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"optimal 1 4023da0000000000 1000000",
		"optimal 1 4023ef0000000000 1000000",
	},
	{ // 42
		"optimal 1 4037000000000000 11010",
	},
	{ // 43
		"infeasible 0 0000000000000000 -",
		"optimal 1 402e000000000000 110001000",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"optimal 4 4031700000000000 110000000",
		"optimal 4 4032680000000000 110000000",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"optimal 4 4032870000000000 110000000",
		"optimal 4 4032968000000000 110000000",
	},
	{ // 44
		"optimal 1 4030000000000000 1100",
	},
	{ // 45
		"optimal 1 4034000000000000 1100",
	},
	{ // 46
		"infeasible 0 0000000000000000 -",
		"optimal 8 4030000000000000 1100000",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"optimal 8 4032000000000000 1100000",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
		"optimal 8 4032400000000000 1100000",
		"infeasible 0 0000000000000000 -",
		"infeasible 0 0000000000000000 -",
	},
	{ // 47
		"optimal 1 4018000000000000 10",
	},
	{ // 48
		"optimal 1 4032000000000000 10000",
	},
	{ // 49
		"optimal 1 4030000000000000 110",
	},
	{ // 50
		"infeasible 0 0000000000000000 -",
		"optimal 4 4028000000000000 110001",
		"infeasible 0 0000000000000000 -",
		"optimal 6 4030e00000000000 110000",
		"optimal 6 4032900000000000 110000",
		"optimal 6 4033680000000000 110000",
		"optimal 6 4033d40000000000 110000",
		"infeasible 6 0000000000000000 -",
		"optimal 6 4033ef0000000000 110000",
		"infeasible 6 0000000000000000 -",
	},
	{ // 51
		"optimal 6 4018000000000000 1010",
	},
	{ // 52
		"infeasible 0 0000000000000000 -",
		"optimal 1 402c000000000000 1100000",
		"infeasible 0 0000000000000000 -",
		"optimal 1 4031800000000000 1100000",
		"infeasible 0 0000000000000000 -",
		"optimal 1 4032600000000000 1100000",
		"infeasible 0 0000000000000000 -",
		"optimal 1 4032980000000000 1100000",
		"infeasible 0 0000000000000000 -",
		"optimal 1 4032a60000000000 1100000",
	},
}
