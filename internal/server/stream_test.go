package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
	"wishbone/internal/wire"
)

// TestServerSimulateStreamParity streams a client-supplied speech trace
// through POST /v1/simulate/stream and asserts the result is
// byte-identical to an in-process streaming run of the same arrivals —
// the JSON float64 round trip is exact, and the server's re-elaborated
// graph is structurally identical to a local one.
func TestServerSimulateStreamParity(t *testing.T) {
	spec := wire.GraphSpec{App: "speech"}
	e := localEntry(t, spec)
	trace := e.traces(wire.TraceSpec{Seed: 42, Seconds: 2})
	src := trace[0].Source

	// Cut after the sixth pipeline stage, by operator ID (IDs are stable
	// across elaborations of the same spec).
	var onNodeIDs []int
	onNode := make(map[int]bool)
	for _, op := range e.graph.Operators() {
		onNode[op.ID()] = false
	}
	count := 0
	for _, op := range e.graph.Operators() {
		if count >= 6 {
			break
		}
		onNodeIDs = append(onNodeIDs, op.ID())
		onNode[op.ID()] = true
		count++
	}

	const (
		nodes    = 3
		duration = 8.0
		seed     = int64(5)
		window   = 2.0
		shards   = 2
	)

	// In-process streaming reference over the same graph and arrivals.
	local, err := runtime.Run(runtime.Config{
		Graph:         e.graph,
		OnNode:        onNode,
		Platform:      platform.Gumstix(),
		Nodes:         nodes,
		Duration:      duration,
		Seed:          seed,
		Shards:        shards,
		WindowSeconds: window,
		ArrivalSource: func(nodeID int) (runtime.Stream, error) {
			return runtime.InputStream([]profile.Input{trace[0]}, 1, duration)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Remote: stream the same arrivals as chunked JSON, one time step per
	// batch (all nodes' arrivals at that step, in node order).
	_, client := startServer(t, Config{})
	frame := 0
	period := 1 / trace[0].Rate
	next := func() ([]wire.ArrivalWire, bool) {
		tArr := float64(frame) * period
		if tArr >= duration {
			return nil, false
		}
		v := wireBytes(t, trace[0].Events[frame%len(trace[0].Events)])
		batch := make([]wire.ArrivalWire, 0, nodes)
		for n := 0; n < nodes; n++ {
			batch = append(batch, wire.ArrivalWire{Node: n, Time: tArr, Source: src.ID(), Type: "i16s", Value: v})
		}
		frame++
		return batch, true
	}
	resp, err := client.SimulateStream(context.Background(), wire.SimulateStreamRequest{
		Graph:         spec,
		Platform:      "Gumstix",
		OnNode:        onNodeIDs,
		Nodes:         nodes,
		Duration:      duration,
		Seed:          seed,
		Shards:        shards,
		WindowSeconds: window,
	}, next)
	if err != nil {
		t.Fatal(err)
	}
	remote := wireToResult(resp.Result)
	if *remote != *local {
		t.Fatalf("streamed result diverges from in-process streaming run:\nlocal:  %+v\nremote: %+v",
			*local, *remote)
	}
	if remote.MsgsSent == 0 || remote.ServerEmits == 0 {
		t.Fatalf("degenerate streamed run: %+v", *remote)
	}

	// A second identical request rides entirely on cached Programs.
	frame = 0
	resp2, err := client.SimulateStream(context.Background(), wire.SimulateStreamRequest{
		Graph:         spec,
		Platform:      "Gumstix",
		OnNode:        onNodeIDs,
		Nodes:         nodes,
		Duration:      duration,
		Seed:          seed,
		Shards:        shards,
		WindowSeconds: window,
	}, next)
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.CacheHit {
		t.Fatal("second identical stream request missed the program cache")
	}
	if *wireToResult(resp2.Result) != *local {
		t.Fatal("cached-program streamed run diverges")
	}
}

// TestServerStreamSnapshotResume pins the resumable-session protocol: a
// stream cut short by a snapshot chunk on one server, resumed on a
// completely separate server (fresh process state, shared nothing) and
// fed the rest of the trace, must produce the byte-identical Result of
// an uninterrupted stream.
func TestServerStreamSnapshotResume(t *testing.T) {
	spec := wire.GraphSpec{App: "speech"}
	e := localEntry(t, spec)
	trace := e.traces(wire.TraceSpec{Seed: 42, Seconds: 2})
	src := trace[0].Source
	var onNodeIDs []int
	for i, op := range e.graph.Operators() {
		if i >= 6 {
			break
		}
		onNodeIDs = append(onNodeIDs, op.ID())
	}
	const (
		nodes    = 3
		duration = 8.0
		seed     = int64(5)
		window   = 2.0
		shards   = 2
	)
	req := wire.SimulateStreamRequest{
		Graph:         spec,
		Platform:      "Gumstix",
		OnNode:        onNodeIDs,
		Nodes:         nodes,
		Duration:      duration,
		Seed:          seed,
		Shards:        shards,
		WindowSeconds: window,
	}
	period := 1 / trace[0].Rate
	totalFrames := int(duration / period)
	feeder := func(from, to int) func() ([]wire.ArrivalWire, bool) {
		frame := from
		return func() ([]wire.ArrivalWire, bool) {
			if frame >= to {
				return nil, false
			}
			tArr := float64(frame) * period
			v := wireBytes(t, trace[0].Events[frame%len(trace[0].Events)])
			batch := make([]wire.ArrivalWire, 0, nodes)
			for n := 0; n < nodes; n++ {
				batch = append(batch, wire.ArrivalWire{Node: n, Time: tArr, Source: src.ID(), Type: "i16s", Value: v})
			}
			frame++
			return batch, true
		}
	}

	// Uninterrupted reference on its own server.
	_, refClient := startServer(t, Config{})
	ctx := context.Background()
	refResp, err := refClient.SimulateStream(ctx, req, feeder(0, totalFrames))
	if err != nil {
		t.Fatal(err)
	}
	ref := wireToResult(refResp.Result)
	if ref.MsgsSent == 0 || ref.ServerEmits == 0 {
		t.Fatalf("degenerate reference run: %+v", *ref)
	}

	// First half on server A, frozen mid-stream (mid-window, too: the cut
	// lands inside a window so the buffered tail travels in the snapshot).
	_, clientA := startServer(t, Config{})
	cut := totalFrames/2 + 1
	snap, err := clientA.SimulateStreamSnapshot(ctx, req, feeder(0, cut))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}

	// Second half on server B — a different host as far as the protocol is
	// concerned.
	_, clientB := startServer(t, Config{})
	resumeReq := req
	resumeReq.Resume = snap
	resp, err := clientB.SimulateStream(ctx, resumeReq, feeder(cut, totalFrames))
	if err != nil {
		t.Fatal(err)
	}
	if got := wireToResult(resp.Result); *got != *ref {
		t.Fatalf("resumed stream diverges from uninterrupted run:\nref: %+v\ngot: %+v", *ref, *got)
	}

	// A mismatched resume (different seed → different run identity) is a
	// 4xx, not a silent wrong answer.
	badReq := resumeReq
	badReq.Seed = seed + 1
	if _, err := clientB.SimulateStream(ctx, badReq, feeder(cut, totalFrames)); err == nil {
		t.Fatal("resume under a mismatched config succeeded")
	}
}

// TestServerSimulateStreamRejectsBadArrivals pins the endpoint's input
// validation: unknown source operators and time-disordered arrivals are
// 4xx errors, not crashes.
func TestServerSimulateStreamRejectsBadArrivals(t *testing.T) {
	_, client := startServer(t, Config{})
	spec := wire.GraphSpec{App: "speech"}
	e := localEntry(t, spec)
	src := e.traces(wire.TraceSpec{Seed: 1, Seconds: 1})[0].Source
	var onNodeIDs []int
	for i, op := range e.graph.Operators() {
		if i >= 6 {
			break
		}
		onNodeIDs = append(onNodeIDs, op.ID())
	}
	req := wire.SimulateStreamRequest{
		Graph: spec, Platform: "TMoteSky", OnNode: onNodeIDs,
		Nodes: 1, Duration: 2,
	}

	sent := false
	badOp := func() ([]wire.ArrivalWire, bool) {
		if sent {
			return nil, false
		}
		sent = true
		return []wire.ArrivalWire{{Node: 0, Time: 0, Source: 9999, Value: wireBytes(t, 1.0)}}, true
	}
	if _, err := client.SimulateStream(context.Background(), req, badOp); err == nil {
		t.Fatal("unknown source operator must fail the stream")
	}

	midOp := onNodeIDs[2] // mid-pipeline, not a source
	sentMid := false
	midGraph := func() ([]wire.ArrivalWire, bool) {
		if sentMid {
			return nil, false
		}
		sentMid = true
		return []wire.ArrivalWire{{Node: 0, Time: 0, Source: midOp, Value: wireBytes(t, []float64{1})}}, true
	}
	if _, err := client.SimulateStream(context.Background(), req, midGraph); err == nil {
		t.Fatal("injection at a non-source operator must fail the stream")
	}

	times := []float64{0.5, 0.1}
	i := 0
	disordered := func() ([]wire.ArrivalWire, bool) {
		if i >= len(times) {
			return nil, false
		}
		a := wire.ArrivalWire{Node: 0, Time: times[i], Source: src.ID(), Value: wireBytes(t, []float64{1})}
		i++
		return []wire.ArrivalWire{a}, true
	}
	if _, err := client.SimulateStream(context.Background(), req, disordered); err == nil {
		t.Fatal("time-disordered arrivals must fail the stream")
	}
}

// TestServerSimulateStreamFinalWindowPanic pins that a work-function panic
// on a client's arrival is a 400 whichever window runs it. One 50-sample
// speech frame, with the whole pipeline on the server, makes a 32-bin
// spectrum the mel bank indexes past; the only window runs inside the
// session's Close, and its panic — an ErrBadArrival like any other — must
// not come back as the engine's 500.
func TestServerSimulateStreamFinalWindowPanic(t *testing.T) {
	_, client := startServer(t, Config{})
	spec := wire.GraphSpec{App: "speech"}
	src := localEntry(t, spec).traces(wire.TraceSpec{Seed: 1, Seconds: 1})[0].Source
	req := wire.SimulateStreamRequest{
		Graph: spec, Platform: "TMoteSky", OnNode: []int{src.ID()},
		Nodes: 1, Duration: 2,
	}
	sent := false
	short := func() ([]wire.ArrivalWire, bool) {
		if sent {
			return nil, false
		}
		sent = true
		return []wire.ArrivalWire{{Node: 0, Time: 0, Source: src.ID(), Type: "i16s", Value: wireBytes(t, make([]int16, 50))}}, true
	}
	_, err := client.SimulateStream(context.Background(), req, short)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("a work-function panic in the final window: want 400, got %v", err)
	}
}

// TestServerSimulateStreamBackpressure pins the firehose bound: a tenant
// pouring arrivals into one ingestion window past Config.StreamMaxBuffered
// is shed with 429 and code "backpressure" (a typed *APIError), freeing
// the job slot instead of buffering without bound.
func TestServerSimulateStreamBackpressure(t *testing.T) {
	_, client := startServer(t, Config{StreamMaxBuffered: 16})
	spec := wire.GraphSpec{App: "speech"}
	e := localEntry(t, spec)
	src := e.traces(wire.TraceSpec{Seed: 1, Seconds: 1})[0].Source
	var onNodeIDs []int
	for i, op := range e.graph.Operators() {
		if i >= 6 {
			break
		}
		onNodeIDs = append(onNodeIDs, op.ID())
	}
	req := wire.SimulateStreamRequest{
		Graph: spec, Platform: "TMoteSky", OnNode: onNodeIDs,
		Nodes: 1, Duration: 100, WindowSeconds: 100,
	}
	sent := 0
	firehose := func() ([]wire.ArrivalWire, bool) {
		// All arrivals land in one window (t advances microscopically),
		// so the buffer can only grow until the server sheds the stream.
		if sent >= 64 {
			return nil, false
		}
		batch := make([]wire.ArrivalWire, 8)
		for i := range batch {
			batch[i] = wire.ArrivalWire{
				Node: 0, Time: float64(sent) * 1e-6, Source: src.ID(),
				Value: wireBytes(t, []float64{1}),
			}
			sent++
		}
		return batch, true
	}
	_, err := client.SimulateStream(context.Background(), req, firehose)
	if err == nil {
		t.Fatal("a firehose past the window-buffer bound must fail the stream")
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %T: %v", err, err)
	}
	if apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%v)", apiErr.StatusCode, apiErr)
	}
	if apiErr.Code != "backpressure" {
		t.Fatalf("error code %q, want %q (%v)", apiErr.Code, "backpressure", apiErr)
	}

	// A well-paced stream on the same server still succeeds: the same
	// arrival count, but advancing simulated time so windows keep
	// flushing and the buffer never nears the bound.
	pacedReq := req
	pacedReq.Duration = 40
	pacedReq.WindowSeconds = 1
	events := e.traces(wire.TraceSpec{Seed: 1, Seconds: 1})[0].Events
	i := 0
	paced := func() ([]wire.ArrivalWire, bool) {
		if i >= 40 {
			return nil, false
		}
		a := wire.ArrivalWire{
			Node: 0, Time: float64(i), Source: src.ID(),
			Type: "i16s", Value: wireBytes(t, events[i%len(events)]),
		}
		i++
		return []wire.ArrivalWire{a}, true
	}
	if _, err := client.SimulateStream(context.Background(), pacedReq, paced); err != nil {
		t.Fatalf("well-paced stream rejected: %v", err)
	}
}

// TestStreamIdleReleasesSlot: a streaming upload that sends its header and
// then nothing is cut at the body idle bound with a typed 408 (code
// "idle"), and the job slot it held goes to the plain simulate queued
// behind it; an upload that keeps sending runs past the bound in total and
// still succeeds.
func TestStreamIdleReleasesSlot(t *testing.T) {
	const idle = 300 * time.Millisecond
	svc := New(Config{MaxJobs: 1})
	svc.bodyIdle = idle
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, ts.Client())

	spec := wire.GraphSpec{App: "speech"}
	e := localEntry(t, spec)
	trace := e.traces(wire.TraceSpec{Seed: 1, Seconds: 2})[0]
	src := trace.Source.ID()
	req := wire.SimulateStreamRequest{
		Graph: spec, Platform: "TMoteSky", OnNode: []int{src}, Nodes: 1, Duration: 2, WindowSeconds: 1,
	}

	pr, pw := io.Pipe()
	t.Cleanup(func() { pw.Close() })
	stalled := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/simulate/stream", "application/json", pr)
		if err == nil {
			err = apiError(resp)
			resp.Body.Close()
		}
		stalled <- err
	}()
	if _, err := pw.Write(wireBytes(t, req)); err != nil {
		t.Fatal(err)
	}
	for svc.Stats().InFlightJobs == 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	if _, err := client.Simulate(ctx, wire.SimulateRequest{
		Graph: spec, Platform: "TMoteSky", OnNode: []int{src}, Nodes: 1, Duration: 2,
	}); err != nil {
		t.Fatalf("simulate behind a stalled stream: %v (after %v)", err, time.Since(start))
	}
	select {
	case err := <-stalled:
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusRequestTimeout || apiErr.Code != "idle" {
			t.Fatalf("stalled stream: want typed 408 idle, got %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("stalled stream got no answer")
	}

	// Ten arrivals a third of the bound apart: three bounds in total, never
	// one bound of silence.
	i := 0
	resp, err := client.SimulateStream(context.Background(), req, func() ([]wire.ArrivalWire, bool) {
		if i == 10 {
			return nil, false
		}
		time.Sleep(idle / 3)
		a := wire.ArrivalWire{Node: 0, Time: float64(i) / 10, Source: src, Type: "i16s",
			Value: wireBytes(t, trace.Events[i%len(trace.Events)])}
		i++
		return []wire.ArrivalWire{a}, true
	})
	if err != nil {
		t.Fatalf("progressing stream longer than the idle bound: %v", err)
	}
	if resp.Result.MsgsSent == 0 {
		t.Fatalf("degenerate progressing stream: %+v", resp.Result)
	}
}
