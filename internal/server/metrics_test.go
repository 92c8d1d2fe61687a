package server

import (
	"context"
	"testing"
	"time"

	"wishbone/internal/core"
	"wishbone/internal/wire"
)

// TestMetricsSolverCounters pins the per-backend /v1/stats counters:
// runs, feasible answers and errors add up per backend, and the latency
// columns are the mean and max of its solves.
func TestMetricsSolverCounters(t *testing.T) {
	m := NewMetrics()
	obs := func(backend string, d time.Duration, feasible, errored bool, n int) {
		for i := 0; i < n; i++ {
			m.ObserveSolver(backend, d, feasible, errored)
		}
	}
	obs(core.SolverExact, 40*time.Millisecond, true, false, 3)
	obs(core.SolverExact, 5*time.Millisecond, true, false, 2)
	obs(core.SolverLagrangian, 2*time.Millisecond, true, false, 2)
	obs(core.SolverGreedy, 1*time.Millisecond, true, false, 2)
	obs(core.SolverGreedy, 4*time.Millisecond, false, true, 1)

	want := map[string]SolverSnapshot{
		core.SolverExact:      {Runs: 5, Feasible: 5, MeanMs: 26, MaxMs: 40},
		core.SolverLagrangian: {Runs: 2, Feasible: 2, MeanMs: 2, MaxMs: 2},
		core.SolverGreedy:     {Runs: 3, Feasible: 2, Errors: 1, MeanMs: 2, MaxMs: 4},
	}
	got := m.Snapshot(nil).Solvers
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d backends, want %d: %+v", len(got), len(want), got)
	}
	for backend, w := range want {
		if got[backend] != w {
			t.Errorf("%s: got %+v, want %+v", backend, got[backend], w)
		}
	}
}

// TestMetricsReplanCounters pins the /v1/stats replan surface: absent
// until a controlled session reports, then cumulative.
func TestMetricsReplanCounters(t *testing.T) {
	m := NewMetrics()
	if snap := m.Snapshot(nil); snap.Replan != nil {
		t.Fatalf("replan block should be omitted before any session: %+v", snap.Replan)
	}
	m.ObserveReplanSession(2, 5, 1)
	m.ObserveReplanSession(0, 0, 0)
	snap := m.Snapshot(nil)
	if snap.Replan == nil {
		t.Fatal("replan block missing after sessions reported")
	}
	want := ReplanSnapshot{Sessions: 2, Events: 2, Moves: 5, Kept: 1}
	if *snap.Replan != want {
		t.Fatalf("replan counters: got %+v, want %+v", *snap.Replan, want)
	}
}

// TestServerFuelStatsSurviveEviction pins /v1/stats fuel accounting across
// cache churn: a wscript graph's metering counters must not vanish when
// its cache entry is evicted by other tenants' traffic, and a rebuilt
// entry's fresh meters fold on top of the retired total instead of
// resetting it.
func TestServerFuelStatsSurviveEviction(t *testing.T) {
	svc, client := startServer(t, Config{CacheEntries: 3})
	ctx := context.Background()
	spec := wire.GraphSpec{App: "wscript", Source: wscriptStreamSrc}
	simReq := wire.SimulateRequest{
		Graph: spec, Trace: wire.TraceSpec{Seed: 7}, Platform: "TMoteSky",
		OnNode: wscriptCut(t), Nodes: 3, Duration: 16, Seed: 5,
	}
	resp, err := client.Simulate(ctx, simReq)
	if err != nil {
		t.Fatal(err)
	}
	before, ok := svc.Stats().Fuel[resp.GraphHash]
	if !ok || before.Fuel == 0 || before.Calls == 0 {
		t.Fatalf("no fuel telemetry after a metered run: %+v (ok=%v)", before, ok)
	}

	// An eeg profile inserts three cache keys (graph, profiling program,
	// report) into the 3-entry cache, evicting every wscript entry.
	if _, err := client.Profile(ctx, wire.ProfileRequest{
		Graph: wire.GraphSpec{App: "eeg", Channels: 1},
	}); err != nil {
		t.Fatal(err)
	}
	after, ok := svc.Stats().Fuel[resp.GraphHash]
	if !ok {
		t.Fatal("fuel telemetry vanished with the evicted cache entry")
	}
	if after != before {
		t.Fatalf("retired fuel counters drifted: before %+v, after %+v", before, after)
	}

	// A rerun rebuilds the entry; cumulative totals keep growing from the
	// retired baseline rather than restarting at the fresh meter.
	if _, err := client.Simulate(ctx, simReq); err != nil {
		t.Fatal(err)
	}
	again := svc.Stats().Fuel[resp.GraphHash]
	if again.Fuel != before.Fuel*2 || again.Calls != before.Calls*2 {
		t.Fatalf("rebuilt entry did not accumulate on the retired total: first %+v, cumulative %+v", before, again)
	}
}
