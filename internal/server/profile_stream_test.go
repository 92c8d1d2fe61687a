package server

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"wishbone/internal/profile"
	"wishbone/internal/wire"
)

// TestServerProfileStream pins POST /v1/profile/stream: profiling a
// client-streamed trace with an explicit rate is byte-identical to an
// in-process profile.Run over the same events — the JSON round trip of
// i16 frames is exact, and the report is computed from the client's
// arrivals, not the synthetic trace.
func TestServerProfileStream(t *testing.T) {
	spec := wire.GraphSpec{App: "speech"}
	e := localEntry(t, spec)
	trace := e.traces(wire.TraceSpec{Seed: 42, Seconds: 2})[0]
	_, client := startServer(t, Config{})
	ctx := context.Background()

	feeder := func() func() ([]wire.ArrivalWire, bool) {
		i := 0
		return func() ([]wire.ArrivalWire, bool) {
			if i >= len(trace.Events) {
				return nil, false
			}
			a := wire.ArrivalWire{
				Node: 0, Time: float64(i) / trace.Rate, Source: trace.Source.ID(),
				Type: "i16s", Value: wireBytes(t, trace.Events[i]),
			}
			i++
			return []wire.ArrivalWire{a}, true
		}
	}

	resp, err := client.ProfileStream(ctx,
		wire.ProfileStreamRequest{Graph: spec, Rate: trace.Rate}, feeder())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := profile.Run(e.graph, []profile.Input{trace})
	if err != nil {
		t.Fatal(err)
	}
	if string(wireBytes(t, resp.Report)) != string(wireBytes(t, wire.NewReportWire(rep))) {
		t.Fatalf("streamed profile diverges from in-process profile.Run over the same trace\nserver: %.200s",
			wireBytes(t, resp.Report))
	}

	// Without an explicit rate the server estimates it from the arrival
	// span; the report is still well-formed (non-degenerate costs), just
	// not bit-pinned to the synthetic trace's exact rate.
	est, err := client.ProfileStream(ctx, wire.ProfileStreamRequest{Graph: spec}, feeder())
	if err != nil {
		t.Fatal(err)
	}
	if est.Report == nil || len(est.Report.Ops) == 0 {
		t.Fatalf("estimated-rate profile degenerate: %+v", est)
	}

	// A stream with no arrivals has no trace to profile: 4xx, not a crash.
	empty := func() ([]wire.ArrivalWire, bool) { return nil, false }
	if _, err := client.ProfileStream(ctx, wire.ProfileStreamRequest{Graph: spec}, empty); err == nil {
		t.Fatal("empty profile stream succeeded")
	}

	// Injection at a non-source operator is rejected like in simulate
	// streams.
	var midOp int
	for i, op := range e.graph.Operators() {
		if i == 3 {
			midOp = op.ID()
		}
	}
	sent := false
	mid := func() ([]wire.ArrivalWire, bool) {
		if sent {
			return nil, false
		}
		sent = true
		return []wire.ArrivalWire{{Node: 0, Time: 0, Source: midOp, Value: wireBytes(t, []float64{1})}}, true
	}
	if _, err := client.ProfileStream(ctx, wire.ProfileStreamRequest{Graph: spec}, mid); err == nil {
		t.Fatal("profile stream accepted arrivals at a non-source operator")
	}

	// The snapshot directive belongs to simulate/stream: on a profile
	// stream it is a 400, not a silent end of the trace before the
	// arrivals that follow it.
	var body []byte
	next := feeder()
	for _, chunk := range []wire.StreamChunk{{}, {Snapshot: true}, {}} {
		if !chunk.Snapshot {
			chunk.Arrivals, _ = next()
		}
		body = append(body, wireBytes(t, chunk)...)
	}
	apiErr := postRaw(t, client, "/v1/profile/stream", strings.NewReader(`{"graph":{"app":"speech"}}`+string(body)))
	if apiErr == nil || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("profile stream with a snapshot chunk: want 400, got %v", apiErr)
	}
}
