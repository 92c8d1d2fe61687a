package experiments

import (
	"fmt"
	"time"

	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
)

// DistScalingRow is one host-count point of the distributed-scaling
// experiment: one speech simulation's origins split across in-process
// shard hosts driven through the coordinator's per-window barrier.
type DistScalingRow struct {
	Hosts        int
	NodesPerHost int // largest origin subset
	Windows      int
	WallMs       float64
	WindowMs     float64 // mean wall-clock per window barrier
	HostBusyMs   float64 // slowest host's total compute+deliver time
	Speedup      float64 // vs the first row's host count
	Identical    bool    // Result byte-identical to the single-host run
}

// timedDriver wraps a shard host's driver to count windows and meter the
// time spent inside its barrier calls; Close and Abort pass through the
// embedded driver.
type timedDriver struct {
	runtime.HostDriver
	windows int
	busy    time.Duration
}

func (d *timedDriver) ComputeWindow(span float64, arrivals []runtime.HostArrival) (*runtime.WindowReport, error) {
	d.windows++
	start := time.Now()
	rep, err := d.HostDriver.ComputeWindow(span, arrivals)
	d.busy += time.Since(start)
	return rep, err
}

func (d *timedDriver) DeliverWindow(ratio float64) error {
	start := time.Now()
	err := d.HostDriver.DeliverWindow(ratio)
	d.busy += time.Since(start)
	return err
}

// DistScaling runs one speech deployment — nodes motes at the paper's
// optimal cut (after filtBank), per-node synthetic traces, streaming
// windows — once per host count, splitting the origins round-robin
// across that many in-process shard hosts. Every placement must produce
// the byte-identical Result of the plain single-host streaming run;
// what varies is wall-clock: the node phase fans out across hosts while
// the coordinator keeps only the per-window ratio pricing.
//
// The hosts here are in-process runtime.ShardHosts bound directly as the
// drivers — the same code an HTTP peer runs behind /v1/shard, minus the
// network — so the table isolates barrier/aggregation cost from transport
// cost. Each host runs its node phase single-threaded (Workers=1): one
// host models one machine, so adding hosts — not cores within a host — is
// the variable under measurement.
func DistScaling(e *SpeechEnv, nodes int, seconds float64, hostCounts []int) ([]DistScalingRow, error) {
	if len(hostCounts) == 0 {
		return nil, fmt.Errorf("experiments: no host counts")
	}
	cfg := runtime.Config{
		Graph:         e.App.Graph,
		OnNode:        e.CutpointOnNode(4), // after filtBank
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
		return nil, fmt.Errorf("experiments: distributed scaling needs a cut without global server state")
	}
	ref, err := runtime.Run(cfg)
	if err != nil {
		return nil, err
	}
	if ref.MsgsSent == 0 || ref.ServerEmits == 0 {
		return nil, fmt.Errorf("experiments: degenerate reference run: %+v", *ref)
	}

	var rows []DistScalingRow
	for _, hc := range hostCounts {
		row, err := distScalingPoint(cfg, hc, ref)
		if err != nil {
			return nil, fmt.Errorf("experiments: %d hosts: %w", hc, err)
		}
		rows = append(rows, *row)
	}
	base := rows[0].WallMs
	for i := range rows {
		rows[i].Speedup = base / rows[i].WallMs
	}
	return rows, nil
}

// distScalingPoint measures one host count.
func distScalingPoint(cfg runtime.Config, hostCount int, ref *runtime.Result) (*DistScalingRow, error) {
	parts := runtime.PartitionOrigins(cfg.Nodes, hostCount)
	drivers := make([]*timedDriver, 0, len(parts))
	hosts := make([]runtime.HostBinding, 0, len(parts))
	abort := func() {
		for _, b := range hosts {
			b.Driver.Abort()
		}
	}
	hostCfg := cfg
	hostCfg.Workers = 1
	maxOrigins := 0
	for _, origins := range parts {
		sh, err := runtime.NewShardHost(hostCfg, origins)
		if err != nil {
			abort()
			return nil, err
		}
		d := &timedDriver{HostDriver: sh}
		drivers = append(drivers, d)
		hosts = append(hosts, runtime.HostBinding{Driver: d, Origins: origins})
		if len(origins) > maxOrigins {
			maxOrigins = len(origins)
		}
	}
	ds, err := runtime.NewDistSession(cfg, hosts)
	if err != nil {
		abort()
		return nil, err
	}
	start := time.Now()
	if err := runtime.Feed(ds, &cfg); err != nil {
		ds.Abort()
		return nil, err
	}
	res, err := ds.Close()
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)

	windows := 0
	busiest := time.Duration(0)
	for _, d := range drivers {
		if d.windows > windows {
			windows = d.windows
		}
		if d.busy > busiest {
			busiest = d.busy
		}
	}
	row := &DistScalingRow{
		Hosts:        len(parts),
		NodesPerHost: maxOrigins,
		Windows:      windows,
		WallMs:       float64(wall) / float64(time.Millisecond),
		HostBusyMs:   float64(busiest) / float64(time.Millisecond),
		Identical:    *res == *ref,
	}
	if windows > 0 {
		row.WindowMs = row.WallMs / float64(windows)
	}
	return row, nil
}

// DistScalingTable renders the distributed-scaling experiment.
func DistScalingTable(nodes int, seconds float64, rows []DistScalingRow) *Table {
	t := &Table{
		Title: fmt.Sprintf("Distributed scaling: speech, %d motes, %gs, cut after filtBank", nodes, seconds),
		Header: []string{"hosts", "nodes/host", "windows", "wall ms", "ms/window",
			"host busy ms", "speedup", "identical"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.Hosts), fmt.Sprint(r.NodesPerHost), fmt.Sprint(r.Windows),
			f1(r.WallMs), f2(r.WindowMs), f1(r.HostBusyMs), f2(r.Speedup),
			fmt.Sprint(r.Identical),
		})
	}
	return t
}
