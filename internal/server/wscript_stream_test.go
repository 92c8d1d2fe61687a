package server

import (
	"context"
	"errors"
	"net/http"
	"testing"

	"wishbone/internal/wire"
	"wishbone/internal/wscript"
)

// wscriptStreamSrc is the wscript deployment the streaming tests share: a
// stateful windowed-energy feature on the node. Rate 4 with window 4 and
// duration 16 keeps streaming ingestion event-identical to the batch path
// (rate divides window and duration; see TestStreamingMatchesBatchUniform
// in internal/runtime).
const wscriptStreamSrc = `
namespace Node {
  s = source("x", 4);
  feat = iterate v in s state { total = 0.0; n = 0; } {
    n = n + 1;
    total = total + v * v;
    if n % 4 == 0 { emit total / intToFloat(n); }
  };
}
main = feat;
`

// wscriptCut compiles the streaming source locally (operator IDs are
// stable across elaborations of the same spec) and returns the all-but-
// sink cut: every wscript operator executes node-side.
func wscriptCut(t *testing.T) []int {
	t.Helper()
	c, err := wscript.CompileOpts(wscriptStreamSrc, wscript.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for _, op := range c.Graph.Operators() {
		if op.ID() != c.Sink.ID() {
			ids = append(ids, op.ID())
		}
	}
	return ids
}

// wscriptFeeder replays the server's own synthetic trace for the spec as
// client-supplied arrivals: frames [from, to), one batch per time step
// with every node's arrival at that step, times i/rate — exactly the
// sequence runtime.InputStream generates from the same trace.
func wscriptFeeder(t *testing.T, spec wire.GraphSpec, trace wire.TraceSpec, nodes, from, to int) func() ([]wire.ArrivalWire, bool) {
	t.Helper()
	e := localEntry(t, spec)
	inputs := e.traces(traceDefaults(trace))
	if len(inputs) != 1 {
		t.Fatalf("want one source input, got %d", len(inputs))
	}
	in := inputs[0]
	period := 1 / in.Rate
	frame := from
	return func() ([]wire.ArrivalWire, bool) {
		if frame >= to {
			return nil, false
		}
		tArr := float64(frame) * period
		v := wireBytes(t, in.Events[frame%len(in.Events)])
		batch := make([]wire.ArrivalWire, 0, nodes)
		for n := 0; n < nodes; n++ {
			batch = append(batch, wire.ArrivalWire{Node: n, Time: tArr, Source: in.Source.ID(), Value: v})
		}
		frame++
		return batch, true
	}
}

// TestServerStreamWscriptBatchParity is the regression test for the lifted
// streaming restriction: a wscript graph streams through POST
// /v1/simulate/stream (the server used to reject it), and the streamed
// Result is byte-identical to POST /v1/simulate of the same trace.
func TestServerStreamWscriptBatchParity(t *testing.T) {
	spec := wire.GraphSpec{App: "wscript", Source: wscriptStreamSrc}
	trace := wire.TraceSpec{Seed: 7}
	onNode := wscriptCut(t)
	const (
		nodes    = 3
		duration = 16.0
		seed     = int64(5)
		window   = 4.0
	)
	_, client := startServer(t, Config{})
	ctx := context.Background()

	batch, err := client.Simulate(ctx, wire.SimulateRequest{
		Graph: spec, Trace: trace, Platform: "TMoteSky", OnNode: onNode,
		Nodes: nodes, Duration: duration, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := wireToResult(batch.Result)
	if ref.MsgsSent == 0 || ref.MsgsReceived == 0 {
		t.Fatalf("degenerate batch run: %+v", *ref)
	}

	totalFrames := int(duration * 4) // rate 4
	resp, err := client.SimulateStream(ctx, wire.SimulateStreamRequest{
		Graph: spec, Trace: trace, Platform: "TMoteSky", OnNode: onNode,
		Nodes: nodes, Duration: duration, Seed: seed, WindowSeconds: window,
	}, wscriptFeeder(t, spec, trace, nodes, 0, totalFrames))
	if err != nil {
		t.Fatal(err)
	}
	if got := wireToResult(resp.Result); *got != *ref {
		t.Fatalf("streamed wscript run diverges from batch:\nbatch:  %+v\nstream: %+v", *ref, *got)
	}
}

// TestServerStreamWscriptSnapshotResume pins snapshot/resume for wscript
// sessions: the VM operator state (accumulators, cumulative fuel) rides in
// the session snapshot, so a stream frozen mid-run on one server and
// resumed on a fresh server finishes with the byte-identical Result of an
// uninterrupted stream.
func TestServerStreamWscriptSnapshotResume(t *testing.T) {
	spec := wire.GraphSpec{App: "wscript", Source: wscriptStreamSrc}
	trace := wire.TraceSpec{Seed: 7}
	req := wire.SimulateStreamRequest{
		Graph: spec, Trace: trace, Platform: "TMoteSky", OnNode: wscriptCut(t),
		Nodes: 3, Duration: 16, Seed: 5, WindowSeconds: 4,
	}
	const totalFrames = 64
	ctx := context.Background()

	_, refClient := startServer(t, Config{})
	refResp, err := refClient.SimulateStream(ctx, req, wscriptFeeder(t, spec, trace, req.Nodes, 0, totalFrames))
	if err != nil {
		t.Fatal(err)
	}
	ref := wireToResult(refResp.Result)
	if ref.MsgsSent == 0 || ref.MsgsReceived == 0 {
		t.Fatalf("degenerate reference run: %+v", *ref)
	}

	// Cut mid-window so buffered arrivals and mid-accumulation VM state
	// both travel in the snapshot.
	_, clientA := startServer(t, Config{})
	cut := totalFrames/2 + 1
	snap, err := clientA.SimulateStreamSnapshot(ctx, req, wscriptFeeder(t, spec, trace, req.Nodes, 0, cut))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}

	_, clientB := startServer(t, Config{})
	resumeReq := req
	resumeReq.Resume = snap
	resp, err := clientB.SimulateStream(ctx, resumeReq, wscriptFeeder(t, spec, trace, req.Nodes, cut, totalFrames))
	if err != nil {
		t.Fatal(err)
	}
	if got := wireToResult(resp.Result); *got != *ref {
		t.Fatalf("resumed wscript stream diverges:\nref: %+v\ngot: %+v", *ref, *got)
	}
}

// TestServerWscriptLimits pins per-tenant metering end to end: a tenant
// streaming under a tiny fuel budget gets a typed 422 ("fuel_exhausted"),
// while an unlimited tenant of the same program on the same server — a
// distinct cache entry — runs to completion; /v1/stats then reports the
// graph's consumed fuel and the trip.
func TestServerWscriptLimits(t *testing.T) {
	spec := wire.GraphSpec{App: "wscript", Source: wscriptStreamSrc}
	trace := wire.TraceSpec{Seed: 7}
	req := wire.SimulateStreamRequest{
		Graph: spec, Trace: trace, Platform: "TMoteSky", OnNode: wscriptCut(t),
		Nodes: 3, Duration: 16, Seed: 5, WindowSeconds: 4,
	}
	svc, client := startServer(t, Config{})
	ctx := context.Background()

	limited := req
	limited.Limits = &wire.LimitsWire{Fuel: 3}
	_, err := client.SimulateStream(ctx, limited, wscriptFeeder(t, spec, trace, req.Nodes, 0, 64))
	if err == nil {
		t.Fatal("stream under a 3-op fuel budget succeeded")
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %T: %v", err, err)
	}
	if apiErr.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (%v)", apiErr.StatusCode, apiErr)
	}
	if apiErr.Code != "fuel_exhausted" {
		t.Fatalf("error code %q, want %q (%v)", apiErr.Code, "fuel_exhausted", apiErr)
	}

	// The unlimited tenant is untouched by the limited tenant's budget.
	resp, err := client.SimulateStream(ctx, req, wscriptFeeder(t, spec, trace, req.Nodes, 0, 64))
	if err != nil {
		t.Fatalf("unlimited tenant failed after another tenant's budget trip: %v", err)
	}
	if got := wireToResult(resp.Result); got.ProcessedEvents == 0 || got.MsgsReceived == 0 {
		t.Fatalf("degenerate unlimited run: %+v", *got)
	}

	snap := svc.Stats()
	if len(snap.Fuel) == 0 {
		t.Fatal("stats report no fuel telemetry after metered runs")
	}
	var total FuelSnapshot
	for _, f := range snap.Fuel {
		total.Fuel += f.Fuel
		total.Calls += f.Calls
		total.FuelTrips += f.FuelTrips
	}
	if total.Fuel == 0 || total.Calls == 0 {
		t.Fatalf("stats fuel counters degenerate: %+v", total)
	}
	if total.FuelTrips == 0 {
		t.Fatalf("stats missed the fuel trip: %+v", total)
	}

	// Batch simulate under the budget maps to the same typed 422.
	_, err = client.Simulate(ctx, wire.SimulateRequest{
		Graph: spec, Trace: trace, Platform: "TMoteSky", OnNode: req.OnNode,
		Nodes: 3, Duration: 16, Seed: 5, Limits: &wire.LimitsWire{Fuel: 3},
	})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity || apiErr.Code != "fuel_exhausted" {
		t.Fatalf("batch simulate under budget: want typed 422 fuel_exhausted, got %v", err)
	}

	// Distinct traces fan the batch node phase out over the worker pool; a
	// trip on a pool goroutine is the same typed 422, and the server is
	// still there for the next request (at the parent commit the panic
	// escaped past the handler and took the whole process down).
	_, pooled := startServer(t, Config{SimWorkers: 2})
	distinct := wire.SimulateRequest{
		Graph: spec, Trace: trace, Platform: "TMoteSky", OnNode: req.OnNode,
		Nodes: 3, Duration: 16, Seed: 5, DistinctTraces: true,
	}
	limitedDistinct := distinct
	limitedDistinct.Limits = &wire.LimitsWire{Fuel: 3}
	_, err = pooled.Simulate(ctx, limitedDistinct)
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity || apiErr.Code != "fuel_exhausted" {
		t.Fatalf("distinct-trace simulate under budget: want typed 422 fuel_exhausted, got %v", err)
	}
	if _, err := pooled.Simulate(ctx, distinct); err != nil {
		t.Fatalf("server did not answer after a pool-goroutine budget trip: %v", err)
	}

	// Limits on a graph with no VM work functions are a 400, not a
	// silently ignored knob.
	_, err = client.Simulate(ctx, wire.SimulateRequest{
		Graph: wire.GraphSpec{App: "speech"}, Platform: "TMoteSky",
		Nodes: 1, Duration: 2, Limits: &wire.LimitsWire{Fuel: 100},
	})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("limits on a built-in app: want 400, got %v", err)
	}
}
