package experiments

import (
	"context"
	"fmt"
	"sort"

	"wishbone/internal/core"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
	"wishbone/internal/solver"
)

// The replan experiment evaluates the online control plane: how a
// drifting deployment's load signal recovers after the mid-stream
// re-partition.

// RecoveryRow is one priced window of a drift-injected controlled run.
type RecoveryRow struct {
	Window   int
	Observed float64 // EWMA offered load, bytes/sec
	Planned  float64 // load the current cut is planned for
	RelErr   float64
	Event    string // "replan (moved N)" on the window a handoff landed in
}

// ReplanRecovery runs the speech deployment through a ControlledSession
// with drift injected at mid-run (arrival density triples) and reports the
// control loop's window-by-window trajectory: the observed EWMA load
// climbing away from the planned baseline, the replan firing after the
// hysteresis interval, and the baseline re-anchoring — the recovery — on
// the greedy re-plan's cut.
func ReplanRecovery(nodes int, duration float64) ([]RecoveryRow, *runtime.Result, error) {
	se, err := NewSpeechEnv()
	if err != nil {
		return nil, nil, err
	}
	cfg := runtime.Config{
		Graph: se.App.Graph, OnNode: se.CutpointOnNode(4), Platform: platform.Gumstix(),
		Nodes: nodes, Duration: duration, Seed: 17, WindowSeconds: 2,
	}

	// Materialize the per-node streams and inject drift: past mid-run each
	// arrival is offered with two echoes slightly later.
	type feedItem struct {
		node int
		a    runtime.Arrival
	}
	var feed []feedItem
	for n := 0; n < nodes; n++ {
		st, err := runtime.InputStream([]profile.Input{se.App.SampleTrace(int64(900+n), 2.0)}, 1, duration)
		if err != nil {
			return nil, nil, err
		}
		for a, ok := st.Next(); ok; a, ok = st.Next() {
			feed = append(feed, feedItem{node: n, a: a})
			if a.Time > duration/2 {
				for d := 1; d <= 2; d++ {
					e := a
					e.Time += float64(d) * 0.01
					feed = append(feed, feedItem{node: n, a: e})
				}
			}
		}
	}
	sort.SliceStable(feed, func(i, j int) bool {
		if feed[i].a.Time != feed[j].a.Time {
			return feed[i].a.Time < feed[j].a.Time
		}
		return feed[i].node < feed[j].node
	})

	// The planner re-solves the profiled spec at the drift multiple with
	// the greedy backend — the same §4.3 linear re-pricing the partition
	// service performs.
	spec := se.Spec(cfg.Platform)
	planner := func(multiple float64) (*runtime.Plan, error) {
		sv, err := solver.New(core.SolverGreedy, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		res, err := core.AutoPartitionWith(context.Background(), spec, multiple, 0.005, core.Limits{}, sv)
		if err != nil || res.Assignment == nil {
			return nil, nil // keep the incumbent cut
		}
		return &runtime.Plan{OnNode: res.Assignment.OnNode, Solver: res.Assignment.Stats.Solver}, nil
	}
	policy := runtime.ReplanPolicy{Threshold: 0.5, Hysteresis: 2, Decay: 0.5, MaxReplans: 1}
	cs, err := runtime.NewControlledSession(cfg, policy, 0, planner)
	if err != nil {
		return nil, nil, err
	}

	// Poll the loop after every offer: each time the window counter
	// advances, record the profile it just folded in — this survives the
	// handoff, which swaps the inner session but keeps the loop.
	var rows []RecoveryRow
	seen, replans := 0, 0
	record := func() {
		loop := cs.Loop()
		if loop.Windows() == seen {
			return
		}
		seen = loop.Windows()
		row := RecoveryRow{Window: seen, Observed: loop.Observed(), Planned: loop.Baseline()}
		if row.Planned > 0 {
			d := row.Observed - row.Planned
			if d < 0 {
				d = -d
			}
			row.RelErr = d / row.Planned
		}
		if evs := cs.Events(); len(evs) > replans {
			replans = len(evs)
			row.Event = fmt.Sprintf("replan (moved %d)", len(evs[len(evs)-1].Moved))
		}
		rows = append(rows, row)
	}
	for _, f := range feed {
		if err := cs.Offer(f.node, f.a); err != nil {
			return nil, nil, err
		}
		record()
	}
	res, err := cs.Close()
	if err != nil {
		return nil, nil, err
	}
	record()
	return rows, res, nil
}

// ReplanRecoveryTable renders ReplanRecovery.
func ReplanRecoveryTable(rows []RecoveryRow) *Table {
	t := &Table{
		Title:  "Replan recovery: control-loop trajectory under 3× mid-run drift",
		Header: []string{"window", "observed B/s", "planned B/s", "rel err", "event"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.Window),
			fmt.Sprintf("%.0f", r.Observed),
			fmt.Sprintf("%.0f", r.Planned),
			fmt.Sprintf("%.2f", r.RelErr),
			r.Event,
		})
	}
	return t
}
