package server

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	goruntime "runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"wishbone/internal/runtime"
	"wishbone/internal/wire"
)

// shardWindowBatch is one window's worth of arrivals, wire-encoded.
type shardWindowBatch struct {
	span     float64
	arrivals []wire.ShardArrivalWire
}

// speechShardWindows materializes the speech app's arrivals grouped into
// fixed windows, nodes ascending within a window (the coordinator's
// shipping order).
func speechShardWindows(t *testing.T, e *entry, nodes int, duration, span float64) []shardWindowBatch {
	t.Helper()
	inputs := e.traces(traceDefaults(wire.TraceSpec{Seed: 11, Seconds: duration}))
	if len(inputs) == 0 {
		t.Fatal("speech graph has no trace inputs")
	}
	n := int(duration / span)
	batches := make([]shardWindowBatch, n)
	for i := range batches {
		batches[i].span = span
	}
	for node := 0; node < nodes; node++ {
		st, err := runtime.InputStream(inputs, 1, duration)
		if err != nil {
			t.Fatal(err)
		}
		for a, ok := st.Next(); ok; a, ok = st.Next() {
			w := int(a.Time / span)
			if w >= n {
				continue
			}
			data, err := wire.Marshal(a.Value)
			if err != nil {
				t.Fatal(err)
			}
			batches[w].arrivals = append(batches[w].arrivals, wire.ShardArrivalWire{
				Node: node, Time: a.Time, Source: a.Source.ID(), Value: data,
			})
		}
	}
	for i := range batches {
		// Nodes ascending, stable in time within a node.
		sort.SliceStable(batches[i].arrivals, func(a, b int) bool {
			return batches[i].arrivals[a].Node < batches[i].arrivals[b].Node
		})
	}
	return batches
}

// TestShardRetryDedupe pins the at-most-once reply cache: a session
// whose every compute and deliver is issued twice (the coordinator
// retrying after a lost response) must answer the duplicate from cache —
// identical response bytes — and close with counters identical to a
// session that never saw a retry.
func TestShardRetryDedupe(t *testing.T) {
	_, client := startServer(t, Config{})
	ctx := context.Background()
	spec := wire.GraphSpec{App: "speech"}
	e := localEntry(t, spec)

	var onNode []int
	for i, op := range e.graph.Operators() {
		if i < 6 {
			onNode = append(onNode, op.ID())
		}
	}
	const nodes, duration, span = 4, 8.0, 2.0
	origins := []int{0, 1, 2, 3}
	open := func() string {
		resp, err := client.ShardOpen(ctx, wire.ShardOpenRequest{
			Graph: spec, Platform: "Gumstix", OnNode: onNode,
			Nodes: nodes, Duration: duration, Seed: 7, Origins: origins,
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Session
	}
	batches := speechShardWindows(t, e, nodes, duration, span)

	runSession := func(retry bool) *wire.ShardCloseResponse {
		session := open()
		for wi, b := range batches {
			req := wire.ShardComputeRequest{
				Session: session, Window: int64(wi + 1), Span: b.span, Arrivals: b.arrivals,
			}
			rep, err := client.ShardCompute(ctx, req)
			if err != nil {
				t.Fatalf("window %d: %v", wi, err)
			}
			if retry {
				again, err := client.ShardCompute(ctx, req)
				if err != nil {
					t.Fatalf("window %d retry: %v", wi, err)
				}
				if !reflect.DeepEqual(rep, again) {
					t.Fatalf("window %d: retried compute answered differently:\n1st: %+v\n2nd: %+v", wi, rep, again)
				}
			}
			if rep.Held == 0 {
				continue
			}
			dreq := wire.ShardDeliverRequest{Session: session, Window: int64(wi + 1), Ratio: 0.85}
			if err := client.ShardDeliver(ctx, dreq); err != nil {
				t.Fatalf("window %d deliver: %v", wi, err)
			}
			if retry {
				if err := client.ShardDeliver(ctx, dreq); err != nil {
					t.Fatalf("window %d deliver retry: %v", wi, err)
				}
			}
		}
		resp, err := client.ShardClose(ctx, session)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	clean := runSession(false)
	dup := runSession(true)
	if clean.MsgsSent == 0 {
		t.Fatalf("degenerate session: %+v", clean)
	}
	if !reflect.DeepEqual(clean, dup) {
		t.Fatalf("retried session diverged from clean session:\nclean: %+v\ndup:   %+v", clean, dup)
	}
}

// TestShardUnknownSessionCode pins the typed lookup failure the
// coordinator's recovery classifier keys on.
func TestShardUnknownSessionCode(t *testing.T) {
	_, client := startServer(t, Config{})
	_, err := client.ShardCompute(context.Background(), wire.ShardComputeRequest{
		Session: "nope", Window: 1, Span: 1,
	})
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("lookup failure %v is not an APIError", err)
	}
	if ae.Code != "unknown_session" || ae.StatusCode != 400 {
		t.Fatalf("lookup failure carries code %q status %d, want unknown_session/400", ae.Code, ae.StatusCode)
	}
}

// TestShardSessionLease pins the idle expiry of shard sessions on a fake
// clock: a full table still answers 429 while its sessions are live; once
// a session has gone shardSessionIdle without an RPC the next open takes
// its slot (the handle then answers unknown_session and /v1/stats counts
// the eviction); a session touched inside the lease survives and its
// compute/deliver/close sequence answers exactly as on an idle server; and
// a table full of abandoned sessions frees whole.
func TestShardSessionLease(t *testing.T) {
	var skew atomic.Int64
	advance := func(d time.Duration) { skew.Add(int64(d)) }
	svc := New(Config{MaxShardSessions: 2})
	svc.now = func() time.Time { return time.Unix(0, skew.Load()) }
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, ts.Client())
	_, refClient := startServer(t, Config{})
	ctx := context.Background()
	spec := wire.GraphSpec{App: "speech"}
	e := localEntry(t, spec)

	var onNode []int
	for i, op := range e.graph.Operators() {
		if i < 6 {
			onNode = append(onNode, op.ID())
		}
	}
	const nodes, duration, span = 2, 4.0, 2.0
	open := func(c *Client) (string, error) {
		resp, err := c.ShardOpen(ctx, wire.ShardOpenRequest{
			Graph: spec, Platform: "Gumstix", OnNode: onNode,
			Nodes: nodes, Duration: duration, Seed: 7, Origins: []int{0, 1},
		})
		if err != nil {
			return "", err
		}
		return resp.Session, nil
	}
	mustOpen := func(c *Client) string {
		t.Helper()
		id, err := open(c)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	batches := speechShardWindows(t, e, nodes, duration, span)
	window := func(c *Client, session string, wi int) {
		t.Helper()
		rep, err := c.ShardCompute(ctx, wire.ShardComputeRequest{
			Session: session, Window: int64(wi + 1), Span: batches[wi].span, Arrivals: batches[wi].arrivals,
		})
		if err != nil {
			t.Fatalf("window %d: %v", wi, err)
		}
		if rep.Held == 0 {
			return
		}
		if err := c.ShardDeliver(ctx, wire.ShardDeliverRequest{Session: session, Window: int64(wi + 1), Ratio: 0.85}); err != nil {
			t.Fatalf("window %d deliver: %v", wi, err)
		}
	}
	wantCode := func(err error, status int, code string) {
		t.Helper()
		var ae *APIError
		if !errors.As(err, &ae) || ae.StatusCode != status || ae.Code != code {
			t.Fatalf("got %v, want status %d code %q", err, status, code)
		}
	}

	kept, abandoned := mustOpen(client), mustOpen(client)
	_, err := open(client)
	wantCode(err, 429, "backpressure")

	// kept is driven inside the lease, abandoned never hears from its
	// coordinator again.
	advance(shardSessionIdle - time.Minute)
	window(client, kept, 0)
	_, err = open(client)
	wantCode(err, 429, "backpressure")
	advance(2 * time.Minute)
	third := mustOpen(client)
	if got := svc.Stats().ShardSessionsExpired; got != 1 {
		t.Fatalf("shardSessionsExpired = %d after one eviction", got)
	}
	err = client.ShardDeliver(ctx, wire.ShardDeliverRequest{Session: abandoned, Window: 1, Ratio: 0.85})
	wantCode(err, 400, "unknown_session")

	window(client, kept, 1)
	got, err := client.ShardClose(ctx, kept)
	if err != nil {
		t.Fatal(err)
	}
	ref := mustOpen(refClient)
	window(refClient, ref, 0)
	window(refClient, ref, 1)
	want, err := refClient.ShardClose(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	if want.MsgsSent == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("session driven across an eviction closed differently:\ngot:  %+v\nwant: %+v", got, want)
	}

	// The table is full again (third + fourth), and both go silent.
	mustOpen(client)
	advance(shardSessionIdle + time.Second)
	mustOpen(client)
	mustOpen(client)
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShardSessionsExpired != 3 {
		t.Fatalf("/v1/stats shardSessionsExpired = %d, want 3", stats.ShardSessionsExpired)
	}
	err = client.ShardAbort(ctx, third)
	wantCode(err, 400, "unknown_session")
}

// TestShardCheckpointResume pins the non-terminal checkpoint call and
// the ResumeHost open path: checkpoint mid-run, keep driving the
// original session, and in parallel restore a second session from the
// blob and drive it identically — both must close with identical
// counters (the restored host carries the checkpoint's accrual).
func TestShardCheckpointResume(t *testing.T) {
	_, client := startServer(t, Config{})
	ctx := context.Background()
	spec := wire.GraphSpec{App: "speech"}
	e := localEntry(t, spec)

	var onNode []int
	for i, op := range e.graph.Operators() {
		if i < 6 {
			onNode = append(onNode, op.ID())
		}
	}
	const nodes, duration, span = 4, 8.0, 2.0
	origins := []int{0, 1, 2, 3}
	openReq := wire.ShardOpenRequest{
		Graph: spec, Platform: "Gumstix", OnNode: onNode,
		Nodes: nodes, Duration: duration, Seed: 7, Origins: origins,
	}
	first, err := client.ShardOpen(ctx, openReq)
	if err != nil {
		t.Fatal(err)
	}
	batches := speechShardWindows(t, e, nodes, duration, span)
	cut := len(batches) / 2

	drive := func(session string, wi int, b shardWindowBatch) {
		t.Helper()
		rep, err := client.ShardCompute(ctx, wire.ShardComputeRequest{
			Session: session, Window: int64(wi + 1), Span: b.span, Arrivals: b.arrivals,
		})
		if err != nil {
			t.Fatalf("window %d: %v", wi, err)
		}
		if rep.Held > 0 {
			if err := client.ShardDeliver(ctx, wire.ShardDeliverRequest{
				Session: session, Window: int64(wi + 1), Ratio: 0.85,
			}); err != nil {
				t.Fatalf("window %d deliver: %v", wi, err)
			}
		}
	}
	for wi, b := range batches[:cut] {
		drive(first.Session, wi, b)
	}
	ckpt, err := client.ShardCheckpoint(ctx, first.Session)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	restoreReq := openReq
	restoreReq.ResumeHost = ckpt
	second, err := client.ShardOpen(ctx, restoreReq)
	if err != nil {
		t.Fatalf("open from checkpoint: %v", err)
	}
	for wi, b := range batches[cut:] {
		drive(first.Session, cut+wi, b)
		drive(second.Session, cut+wi, b)
	}
	a, err := client.ShardClose(ctx, first.Session)
	if err != nil {
		t.Fatal(err)
	}
	b, err := client.ShardClose(ctx, second.Session)
	if err != nil {
		t.Fatal(err)
	}
	if a.MsgsSent == 0 {
		t.Fatalf("degenerate session: %+v", a)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("checkpoint-restored session diverged from the original:\norig:     %+v\nrestored: %+v", a, b)
	}
}

// TestServerSnapshotHostileCounts sends resume blobs whose first section
// count claims far more elements than the blob holds — 1<<62 used to
// panic makeslice inside the handler, 1<<33 to allocate gigabytes — to
// every endpoint that decodes one. Each must answer a plain 400.
func TestServerSnapshotHostileCounts(t *testing.T) {
	_, client := startServer(t, Config{})
	ctx := context.Background()
	spec := wire.GraphSpec{App: "speech"}
	e := localEntry(t, spec)
	var onNode []int
	for i, op := range e.graph.Operators() {
		if i < 6 {
			onNode = append(onNode, op.ID())
		}
	}
	want400 := func(what string, err error) {
		t.Helper()
		var ae *APIError
		if !errors.As(err, &ae) || ae.StatusCode != 400 {
			t.Fatalf("%s: got %v, want a 400 APIError", what, err)
		}
	}
	for _, count := range []uint64{1 << 62, 1 << 33} {
		session := wire.NewSnapshotWriter()
		session.String(e.graph.StructuralHash())
		session.Uvarint(count) // onNode IDs
		host := wire.NewSnapshotWriter()
		host.Int(0)
		host.Int(0)
		host.Uvarint(count) // origins

		open := wire.ShardOpenRequest{
			Graph: spec, Platform: "Gumstix", OnNode: onNode,
			Nodes: 4, Duration: 8, Seed: 7, Origins: []int{0, 1},
		}
		open.Resume = session.Bytes()
		_, err := client.ShardOpen(ctx, open)
		want400("shard open, resume", err)
		open.Resume, open.ResumeHost = nil, host.Bytes()
		_, err = client.ShardOpen(ctx, open)
		want400("shard open, resumeHost", err)

		_, err = client.SimulateStream(ctx, wire.SimulateStreamRequest{
			Graph: spec, Platform: "Gumstix", OnNode: onNode,
			Nodes: 4, Duration: 8, Seed: 7, WindowSeconds: 2,
			Resume: session.Bytes(),
		}, func() ([]wire.ArrivalWire, bool) { return nil, false })
		want400("simulate stream, resume", err)

		// A host blob that decodes cleanly and carries, in origin 0's node
		// side, one operator's state: a FIR delay line claiming count
		// taps. That count is the operator's LoadState hook's to bound.
		fir := -1
		for _, id := range onNode {
			if op := e.graph.ByID(id); op.LoadState != nil && fmt.Sprintf("%T", op.NewState()) == "*speech.prefiltState" {
				fir = id
			}
		}
		if fir < 0 {
			t.Fatal("the cut leaves no FIR operator on the node")
		}
		state := wire.NewSnapshotWriter()
		state.Uvarint(count) // taps
		host = wire.NewSnapshotWriter()
		host.Int(0)
		host.Int(0)
		host.Uvarint(1) // origins
		host.Int(0)     // origin 0: busy horizon, busy, two event counters,
		host.F64(0)     // no sender sequences, one operator state
		host.F64(0)
		host.Int(0)
		host.Int(0)
		host.Uvarint(0)
		host.Uvarint(1)
		host.Uvarint(uint64(fir))
		host.Blob(state.Bytes())
		host.Int(0) // delivery state: three counters, no origins, no global states
		host.Int(0)
		host.Int(0)
		host.Uvarint(0)
		host.Uvarint(0)
		open.Origins = []int{0}
		open.ResumeHost = host.Bytes()
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		_, err = client.ShardOpen(ctx, open)
		goruntime.ReadMemStats(&after)
		want400("shard open, resumeHost operator state", err)
		// The whole request (elaboration, compile, host construction) is
		// in the reading, so the bound is loose; 1<<33 taps would be 64 GiB.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
			t.Fatalf("operator-state count %d made the server allocate %d bytes", count, alloc)
		}
	}
}
