package server

import (
	"context"
	"testing"
	"time"

	"wishbone/internal/core"
	"wishbone/internal/wire"
)

// TestMetricsSolverChoices pins the auto-picker's ranking over
// per-(backend, formulation) history: win rate first, mean latency as the
// tie-break, then names for determinism.
func TestMetricsSolverChoices(t *testing.T) {
	m := NewMetrics()
	obs := func(backend, form string, d time.Duration, won bool, n int) {
		for i := 0; i < n; i++ {
			m.ObserveSolver(backend, form, d, true, won, false)
		}
	}
	// exact restricted/mean: 3 wins in 3 runs, slow.
	obs(core.SolverExact, "restricted/mean", 40*time.Millisecond, true, 3)
	// exact restricted/peak: 0 wins in 2 runs.
	obs(core.SolverExact, "restricted/peak", 5*time.Millisecond, false, 2)
	// lagrangian restricted/mean: 2 wins in 2 runs, fast — ties exact on win
	// rate, beats it on latency.
	obs(core.SolverLagrangian, "restricted/mean", 2*time.Millisecond, true, 2)
	// greedy restricted/mean: 1 win in 2 runs.
	obs(core.SolverGreedy, "restricted/mean", 1*time.Millisecond, true, 1)
	obs(core.SolverGreedy, "restricted/mean", 1*time.Millisecond, false, 1)

	got := m.SolverChoices(3)
	want := []SolverChoice{
		{Backend: core.SolverLagrangian, Formulation: "restricted/mean"},
		{Backend: core.SolverExact, Formulation: "restricted/mean"},
		{Backend: core.SolverGreedy, Formulation: "restricted/mean"},
	}
	if len(got) != len(want) {
		t.Fatalf("SolverChoices(3) returned %d entries: %+v", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("choice %d: got %+v, want %+v (full: %+v)", i, got[i], want[i], got)
		}
	}
	if all := m.SolverChoices(0); len(all) != 4 {
		t.Fatalf("SolverChoices(0) should return every pair with runs, got %d", len(all))
	}

	snap := m.Snapshot(nil)
	ex, ok := snap.Solvers[core.SolverExact]
	if !ok {
		t.Fatal("snapshot missing exact backend")
	}
	if ex.Runs != 5 || ex.Wins != 3 {
		t.Fatalf("exact aggregate: %+v", ex)
	}
	mean, ok := ex.ByFormulation["restricted/mean"]
	if !ok || mean.Runs != 3 || mean.Wins != 3 {
		t.Fatalf("exact restricted/mean split: %+v (ok=%v)", mean, ok)
	}
	peak, ok := ex.ByFormulation["restricted/peak"]
	if !ok || peak.Runs != 2 || peak.Wins != 0 {
		t.Fatalf("exact restricted/peak split: %+v (ok=%v)", peak, ok)
	}
}

// TestMetricsSolverChoicesLegacy pins the fallback for history recorded
// before formulation tags existed: a backend with no per-formulation split
// still ranks, with an empty Formulation.
func TestMetricsSolverChoicesLegacy(t *testing.T) {
	m := NewMetrics()
	m.ObserveSolver(core.SolverGreedy, "", time.Millisecond, true, true, false)
	got := m.SolverChoices(0)
	if len(got) != 1 || got[0] != (SolverChoice{Backend: core.SolverGreedy}) {
		t.Fatalf("legacy history should rank as bare backend, got %+v", got)
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
