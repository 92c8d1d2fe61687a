package experiments

import (
	"fmt"
	"math"

	"wishbone/internal/netsim"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
)

// The recovery experiments evaluate the fault-tolerance machinery: how
// many windows the coordinator replays to restore a host that dies
// mid-run (as a function of checkpoint cadence and failure point), and
// how quickly node churn — failures the control plane only sees as load
// drift — fires the drift→replan loop.

// HostRecoveryRow is one (checkpoint cadence, failure window) point of
// the host-failure recovery sweep.
type HostRecoveryRow struct {
	Every      int  // checkpoint cadence, flushed windows per checkpoint
	KillAt     int  // ComputeWindow call on which the host died (1-based)
	Recoveries int  // recoveries the coordinator performed
	Replayed   int  // tail windows replayed into the replacement host
	Identical  bool // recovered Result byte-identical to the clean run
}

// fuseDriver kills the wrapped driver's ComputeWindow on its Nth call —
// once — with an error the coordinator classifies as host loss.
type fuseDriver struct {
	runtime.HostDriver
	left  int
	fired bool
}

func (d *fuseDriver) ComputeWindow(span float64, arrivals []runtime.HostArrival) (*runtime.WindowReport, error) {
	if !d.fired {
		d.left--
		if d.left <= 0 {
			d.fired = true
			return nil, fmt.Errorf("experiments: injected host crash: %w", runtime.ErrHostDown)
		}
	}
	return d.HostDriver.ComputeWindow(span, arrivals)
}

// HostFailureRecovery runs a two-host distributed speech deployment once
// per (cadence, failure-window) pair, crashing host 0 at that window and
// recovering it through the per-boundary checkpoint + tail-replay
// protocol onto a fresh local host. Every recovered Result must be
// byte-identical to the uninterrupted run; what varies is the replay
// cost — the tail length the cadence left behind.
func HostFailureRecovery(e *SpeechEnv, nodes int, seconds float64, cadences, killAts []int) ([]HostRecoveryRow, error) {
	cfg := runtime.Config{
		Graph:         e.App.Graph,
		OnNode:        e.CutpointOnNode(4),
		Platform:      platform.Gumstix(),
		Nodes:         nodes,
		Duration:      seconds,
		Seed:          int64(nodes),
		WindowSeconds: 2,
		ArrivalSource: func(nodeID int) (runtime.Stream, error) {
			return runtime.InputStream(
				[]profile.Input{e.App.SampleTrace(int64(9000+nodeID), 2.0)}, 1, seconds)
		},
	}
	if !runtime.Distributable(cfg) {
		return nil, fmt.Errorf("experiments: host-failure recovery needs a cut without global server state")
	}
	ref, err := runtime.Run(cfg)
	if err != nil {
		return nil, err
	}
	if ref.MsgsSent == 0 {
		return nil, fmt.Errorf("experiments: degenerate reference run: %+v", *ref)
	}

	var rows []HostRecoveryRow
	for _, every := range cadences {
		for _, killAt := range killAts {
			row, err := hostFailurePoint(cfg, every, killAt, ref)
			if err != nil {
				return nil, fmt.Errorf("experiments: every=%d killAt=%d: %w", every, killAt, err)
			}
			rows = append(rows, *row)
		}
	}
	return rows, nil
}

// hostFailurePoint measures one (cadence, failure window) pair.
func hostFailurePoint(cfg runtime.Config, every, killAt int, ref *runtime.Result) (*HostRecoveryRow, error) {
	parts := runtime.PartitionOrigins(cfg.Nodes, 2)
	hosts := make([]runtime.HostBinding, 0, len(parts))
	abort := func() {
		for _, b := range hosts {
			b.Driver.Abort()
		}
	}
	for hi, origins := range parts {
		sh, err := runtime.NewShardHost(cfg, origins)
		if err != nil {
			abort()
			return nil, err
		}
		var d runtime.HostDriver = sh
		if hi == 0 {
			d = &fuseDriver{HostDriver: d, left: killAt}
		}
		hosts = append(hosts, runtime.HostBinding{Driver: d, Origins: origins})
	}
	ds, err := runtime.NewDistSession(cfg, hosts)
	if err != nil {
		abort()
		return nil, err
	}
	ds.EnableRecovery(&runtime.DistRecovery{
		Every: every,
		Reopen: func(host int, origins []int, ckpt []byte) (runtime.HostDriver, error) {
			var sh *runtime.ShardHost
			var err error
			if len(ckpt) > 0 {
				sh, err = runtime.RestoreShardHostCheckpoint(cfg, origins, ckpt)
			} else {
				sh, err = runtime.NewShardHost(cfg, origins)
			}
			if err != nil {
				return nil, err
			}
			return sh, nil
		},
	})
	if err := runtime.Feed(ds, &cfg); err != nil {
		ds.Abort()
		return nil, err
	}
	res, err := ds.Close()
	if err != nil {
		return nil, err
	}
	row := &HostRecoveryRow{Every: every, KillAt: killAt, Identical: *res == *ref}
	for _, ev := range ds.Recoveries() {
		row.Recoveries++
		row.Replayed += ev.Windows
	}
	if row.Recoveries == 0 {
		return nil, fmt.Errorf("the injected crash never fired")
	}
	return row, nil
}

// HostFailureRecoveryTable renders HostFailureRecovery.
func HostFailureRecoveryTable(nodes int, seconds float64, rows []HostRecoveryRow) *Table {
	t := &Table{
		Title: fmt.Sprintf("Host-failure recovery: speech, %d motes, %gs, host 0 of 2 killed mid-run",
			nodes, seconds),
		Header: []string{"ckpt every", "killed at window", "recoveries", "windows replayed", "identical"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.Every), fmt.Sprint(r.KillAt), fmt.Sprint(r.Recoveries),
			fmt.Sprint(r.Replayed), fmt.Sprint(r.Identical),
		})
	}
	return t
}

// ChurnRecoveryRow is one churn-rate point of the drift-detection sweep.
type ChurnRecoveryRow struct {
	MeanUp       float64 // mean seconds a node survives (MTTF)
	Crashed      int     // nodes whose first crash lands inside the run
	DetectWindow int     // window the first replan fired in (0 = never)
	RateMultiple float64 // load multiple the first replan solved for
	Replans      int
}

// ChurnRecovery sweeps the churn rate (mean time to node failure) over a
// steady speech deployment driven by the control loop: crashed nodes
// stop offering arrivals, the observed window load falls away from the
// planned baseline, and the drift detector replans once the EWMA leaves
// the band for the hysteresis interval. The table is the
// windows-to-recover trajectory: how many windows of a given churn rate
// the control plane needs before it reacts, with no coupling between the
// failure model and the controller beyond the load signal itself.
func ChurnRecovery(nodes int, seconds float64, meanUps []float64) ([]ChurnRecoveryRow, error) {
	se, err := NewSpeechEnv()
	if err != nil {
		return nil, err
	}
	var rows []ChurnRecoveryRow
	for _, mu := range meanUps {
		churn := &netsim.Churn{Seed: 23, MeanUp: mu}
		cfg := runtime.Config{
			Graph: se.App.Graph, OnNode: se.CutpointOnNode(4), Platform: platform.Gumstix(),
			Nodes: nodes, Duration: seconds, Seed: 29, WindowSeconds: 2,
			Scenario: &netsim.Scenario{Churn: churn},
			Inputs: func(nodeID int) []profile.Input {
				return []profile.Input{se.App.SampleTrace(int64(900+nodeID), 2.0)}
			},
		}
		row := ChurnRecoveryRow{MeanUp: mu}
		for n := 0; n < nodes; n++ {
			if churn.CrashTime(n) < seconds {
				row.Crashed++
			}
		}
		policy := runtime.ReplanPolicy{Threshold: 0.3, Hysteresis: 2, Decay: 0.5}
		planner := func(multiple float64) (*runtime.Plan, error) {
			return &runtime.Plan{OnNode: cfg.OnNode}, nil // observe, keep the cut
		}
		cs, err := runtime.NewControlledSession(cfg, policy, 0, planner)
		if err != nil {
			return nil, err
		}
		if err := runtime.Feed(cs, &cfg); err != nil {
			return nil, err
		}
		if _, err := cs.Close(); err != nil {
			return nil, err
		}
		if evs := cs.Events(); len(evs) > 0 {
			row.DetectWindow = int(math.Round(evs[0].Time / cfg.WindowSeconds))
			row.RateMultiple = evs[0].RateMultiple
			row.Replans = len(evs)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ChurnRecoveryTable renders ChurnRecovery.
func ChurnRecoveryTable(nodes int, seconds float64, rows []ChurnRecoveryRow) *Table {
	t := &Table{
		Title: fmt.Sprintf("Churn→replan: speech, %d motes, %gs, drift detection vs churn rate",
			nodes, seconds),
		Header: []string{"mean up s", "nodes crashed", "detect window", "rate multiple", "replans"},
	}
	for _, r := range rows {
		dw := "-"
		rm := "-"
		if r.DetectWindow > 0 {
			dw = fmt.Sprint(r.DetectWindow)
			rm = fmt.Sprintf("%.2f", r.RateMultiple)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", r.MeanUp), fmt.Sprint(r.Crashed), dw, rm, fmt.Sprint(r.Replans),
		})
	}
	return t
}
