package experiments

import (
	"context"
	"fmt"
	"sort"

	"wishbone/internal/apps/eeg"
	"wishbone/internal/core"
	"wishbone/internal/dataflow"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
)

// EEGEnv is a profiled EEG application shared by the EEG experiments.
type EEGEnv struct {
	App    *eeg.App
	Report *profile.Report
	Class  *dataflow.Classification
}

// NewEEGEnv builds and profiles an EEG app with the given channel count
// (1 for Figure 5(a), 22 for Figure 6).
func NewEEGEnv(channels int, traceSeconds float64) (*EEGEnv, error) {
	app := eeg.NewWithChannels(channels)
	rep, err := profile.Run(app.Graph, app.SampleTrace(2009, traceSeconds))
	if err != nil {
		return nil, err
	}
	// The EEG evaluation requires relocating stateful filter operators, so
	// it runs in permissive mode (§2.1.1).
	cls, err := dataflow.Classify(app.Graph, dataflow.Permissive)
	if err != nil {
		return nil, err
	}
	return &EEGEnv{App: app, Report: rep, Class: cls}, nil
}

// Spec builds the partitioning problem for p, with the CPU fully available
// and no network cap (α=0, β=1: "minimize network bandwidth subject to not
// exceeding CPU capacity", §7.1).
func (e *EEGEnv) Spec(p *platform.Platform) *core.Spec {
	spec := profile.BuildSpec(e.Class, e.Report, p)
	spec.NetBudget = 0
	spec.Alpha, spec.Beta = 0, 1
	return spec
}

// Fig5aRow is one (platform, rate) point: the size of the optimal node
// partition.
type Fig5aRow struct {
	Platform     string
	RateMultiple float64
	OpsOnNode    int
}

// Fig5aRates are the input-rate multiples Figure 5(a) sweeps.
var Fig5aRates = []float64{0.25, 0.5, 1, 2, 3, 4, 6, 8, 12, 16, 20}

// Fig5a sweeps the input rate on a single EEG channel and reports how many
// operators fit in the optimal node partition on each platform.
func Fig5a(e *EEGEnv, rates []float64, platforms []*platform.Platform) ([]Fig5aRow, error) {
	var rows []Fig5aRow
	for _, p := range platforms {
		base := e.Spec(p)
		for _, r := range rates {
			asg, err := core.Partition(context.Background(), base.Scaled(r), core.DefaultOptions())
			if err != nil {
				if core.IsInfeasible(err) {
					rows = append(rows, Fig5aRow{Platform: p.Name, RateMultiple: r, OpsOnNode: 0})
					continue
				}
				return nil, err
			}
			rows = append(rows, Fig5aRow{
				Platform: p.Name, RateMultiple: r, OpsOnNode: asg.NodeOperatorCount(),
			})
		}
	}
	return rows, nil
}

// Fig5aTable renders Fig5a.
func Fig5aTable(rows []Fig5aRow) *Table {
	t := &Table{
		Title:  "Figure 5(a): operators in optimal node partition vs input rate (1 EEG channel)",
		Header: []string{"platform", "rate ×", "ops on node"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Platform, f2(r.RateMultiple), fmt.Sprint(r.OpsOnNode)})
	}
	return t
}

// fig6MaxNodes caps each large-scale EEG solve by branch-and-bound node
// count. Every cap from 100 to 1000 returns the same incumbent and gap for
// the 22-channel problem at rate 1.0; 100 keeps a solve near one second,
// and it still stops most Figure 6 invocations on the cap rather than on a
// proof, which is the discover/prove contrast the figure shows.
const fig6MaxNodes = 100

// DefaultFig6Options returns the solver configuration used for the
// large-scale EEG experiments: exact search until the relative gap falls
// below 0.2%, capped at fig6MaxNodes branch-and-bound nodes per
// invocation. This matches the paper's §7.1 remedy for long proof times
// ("an approximate lower bound to establish a termination condition"); on
// this symmetric 22-channel problem lp_solve itself needed up to 12
// minutes for full proofs. A node cap, unlike a wall-clock one, returns
// the same answer on every machine.
func DefaultFig6Options() core.Options {
	o := core.DefaultOptions()
	o.GapTol = 0.002
	o.MaxNodes = fig6MaxNodes
	return o
}

// Fig6Point is one solver invocation's timing.
type Fig6Point struct {
	RateMultiple float64
	DiscoverSec  float64
	ProveSec     float64
	Nodes        int
	Feasible     bool
}

// Fig6 invokes the partitioner across a linear sweep of data rates on the
// full EEG application ("2100 times, linearly varying the data rate to
// cover everything from 'everything fits easily' to 'nothing fits'") and
// records the time to discover and the time to prove the optimal solution.
// The number of invocations is a parameter: the paper used 2100; smaller
// counts preserve the CDF shape at a fraction of the cost.
// Like lp_solve in the paper, exact proofs can take minutes on the
// full-size symmetric problem; opts can carry a GapTol/MaxNodes to use the
// paper's "approximate lower bound … termination condition" (§7.1).
func Fig6(e *EEGEnv, invocations int, loRate, hiRate float64, opts core.Options) ([]Fig6Point, error) {
	spec := e.Spec(platform.TMoteSky())
	var pts []Fig6Point
	for i := 0; i < invocations; i++ {
		r := loRate + (hiRate-loRate)*float64(i)/float64(max(1, invocations-1))
		asg, err := core.Partition(context.Background(), spec.Scaled(r), opts)
		if err != nil {
			if !core.IsInfeasible(err) {
				return nil, err
			}
			pts = append(pts, Fig6Point{RateMultiple: r, Feasible: false})
			continue
		}
		pts = append(pts, Fig6Point{
			RateMultiple: r,
			DiscoverSec:  asg.Stats.DiscoverTime,
			ProveSec:     asg.Stats.ProveTime,
			Nodes:        asg.Stats.Nodes,
			Feasible:     true,
		})
	}
	return pts, nil
}

// CDF returns the p-th percentiles (p in 0..100 step 5) of xs.
func CDF(xs []float64) []struct{ Pct, Value float64 } {
	if len(xs) == 0 {
		return nil
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var out []struct{ Pct, Value float64 }
	for p := 0; p <= 100; p += 5 {
		idx := p * (len(s) - 1) / 100
		out = append(out, struct{ Pct, Value float64 }{float64(p), s[idx]})
	}
	return out
}

// Fig6Table renders the discover/prove CDFs.
func Fig6Table(pts []Fig6Point) *Table {
	var disc, prove []float64
	for _, p := range pts {
		if p.Feasible {
			disc = append(disc, p.DiscoverSec)
			prove = append(prove, p.ProveSec)
		}
	}
	t := &Table{
		Title:  "Figure 6: CDF of solver runtime (full EEG app)",
		Header: []string{"percentile", "discover s", "prove s"},
	}
	dc, pc := CDF(disc), CDF(prove)
	for i := range dc {
		t.Rows = append(t.Rows, []string{f1(dc[i].Pct), f3(dc[i].Value), f3(pc[i].Value)})
	}
	return t
}

// ILPScaleResult reports the §4.2 claim that graphs with >1000 operators
// partition in seconds. Objective and Gap show how far from proved-optimal
// a capped solve stopped.
type ILPScaleResult struct {
	Operators      int
	ClustersAfter  int
	Variables      int
	Constraints    int
	SolveSeconds   float64
	SolverBBNodes  int
	Objective      float64
	Gap            float64
	FeasiblySolved bool
}

// ILPScale partitions the full 22-channel EEG application once and reports
// problem size and solve time.
func ILPScale(e *EEGEnv, opts core.Options) (*ILPScaleResult, error) {
	spec := e.Spec(platform.TMoteSky())
	asg, err := core.Partition(context.Background(), spec.Scaled(1.0), opts)
	if err != nil {
		if !core.IsInfeasible(err) {
			return nil, err
		}
		return &ILPScaleResult{Operators: e.App.Graph.NumOperators()}, nil
	}
	return &ILPScaleResult{
		Operators:      e.App.Graph.NumOperators(),
		ClustersAfter:  asg.Stats.ClustersAfter,
		Variables:      asg.Stats.Variables,
		Constraints:    asg.Stats.Constraints,
		SolveSeconds:   asg.Stats.ProveTime,
		SolverBBNodes:  asg.Stats.Nodes,
		Objective:      asg.Objective,
		Gap:            asg.Stats.Gap,
		FeasiblySolved: true,
	}, nil
}

// Fig3Row is one CPU budget's optimal cut in the motivating example.
type Fig3Row struct {
	Budget    float64
	Bandwidth float64
	OnNode    int
}

// Fig3 reproduces the motivating example: a 6-operator graph whose optimal
// cut bandwidth steps 8→6→5 as the budget grows 2→3→4, with the cut shape
// flipping between chains.
func Fig3() ([]Fig3Row, error) {
	g := dataflow.New()
	u1 := g.Add(&dataflow.Operator{Name: "u1", NS: dataflow.NSNode})
	u2 := g.Add(&dataflow.Operator{Name: "u2", NS: dataflow.NSNode})
	m1 := g.Add(&dataflow.Operator{Name: "m1", NS: dataflow.NSNode})
	m2 := g.Add(&dataflow.Operator{Name: "m2", NS: dataflow.NSNode})
	n1 := g.Add(&dataflow.Operator{Name: "n1", NS: dataflow.NSNode})
	sink := g.Add(&dataflow.Operator{Name: "sink", NS: dataflow.NSServer, SideEffect: true})
	e1 := g.Connect(u1, m1, 0)
	e2 := g.Connect(m1, n1, 0)
	e3 := g.Connect(n1, sink, 0)
	e4 := g.Connect(u2, m2, 0)
	e5 := g.Connect(m2, sink, 1)
	cls, err := dataflow.Classify(g, dataflow.Conservative)
	if err != nil {
		return nil, err
	}
	spec := &core.Spec{
		Graph: g, Class: cls,
		CPU: map[int]core.OpCost{
			u1.ID(): {Mean: 1}, u2.ID(): {Mean: 1},
			m1.ID(): {Mean: 1}, m2.ID(): {Mean: 1}, n1.ID(): {Mean: 2},
		},
		Bandwidth: map[*dataflow.Edge]core.EdgeCost{
			e1: {Mean: 4}, e2: {Mean: 3}, e3: {Mean: 1}, e4: {Mean: 4}, e5: {Mean: 2},
		},
		Alpha: 0, Beta: 1,
	}
	var rows []Fig3Row
	for _, budget := range []float64{2, 3, 4} {
		s := *spec
		s.CPUBudget = budget
		asg, err := core.Partition(context.Background(), &s, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig3Row{Budget: budget, Bandwidth: asg.NetLoad, OnNode: asg.NodeOperatorCount()})
	}
	return rows, nil
}

// Fig3Table renders Fig3.
func Fig3Table(rows []Fig3Row) *Table {
	t := &Table{
		Title:  "Figure 3: optimal cut vs CPU budget (motivating example)",
		Header: []string{"budget", "cut bandwidth", "ops on node"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{f1(r.Budget), f1(r.Bandwidth), fmt.Sprint(r.OnNode)})
	}
	return t
}
