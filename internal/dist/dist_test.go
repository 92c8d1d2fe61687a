package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"wishbone/internal/apps/eeg"
	"wishbone/internal/apps/speech"
	"wishbone/internal/dataflow"
	"wishbone/internal/dist"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
	"wishbone/internal/server"
	"wishbone/internal/wire"
	"wishbone/internal/wscript"
)

// startPeers runs n independent partition-service instances (each its own
// Server, cache, and shard-session registry) and returns their base URLs.
func startPeers(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		svc := server.New(server.Config{})
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(svc.Close)
		urls[i] = ts.URL
	}
	return urls
}

// speechConfig builds the distributable speech run the parity tests
// share: the cut after the sixth operator, per-node traces, streaming
// arrivals. The coordinator-side graph is a separate elaboration from
// the one each peer rebuilds from the spec — structural hashes and
// operator IDs agree across elaborations, which shardOpen verifies.
func speechConfig(t *testing.T) (wire.GraphSpec, runtime.Config) {
	t.Helper()
	app := speech.New()
	onNode := make(map[int]bool)
	for i, op := range app.Graph.Operators() {
		onNode[op.ID()] = i < 6
	}
	const duration = 8.0
	cfg := runtime.Config{
		Graph:         app.Graph,
		OnNode:        onNode,
		Platform:      platform.Gumstix(),
		Nodes:         6,
		Duration:      duration,
		Seed:          7,
		Shards:        2,
		WindowSeconds: 2,
		ArrivalSource: func(nodeID int) (runtime.Stream, error) {
			return runtime.InputStream(
				[]profile.Input{app.SampleTrace(int64(500+nodeID), 2.0)}, 1, duration)
		},
	}
	return wire.GraphSpec{App: "speech"}, cfg
}

// TestCoordinatorParityWscript places a wscript simulation across HTTP
// shard hosts: VM work functions keep all state in Instance slots, so a
// script deployment distributes by origin like the built-in apps, and
// every placement must reproduce the single-host streaming Result.
func TestCoordinatorParityWscript(t *testing.T) {
	const src = `
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
	c, err := wscript.CompileOpts(src, wscript.Options{})
	if err != nil {
		t.Fatal(err)
	}
	onNode := make(map[int]bool)
	for _, op := range c.Graph.Operators() {
		onNode[op.ID()] = op.ID() != c.Sink.ID()
	}
	const duration = 16.0
	cfg := runtime.Config{
		Graph:         c.Graph,
		OnNode:        onNode,
		Platform:      platform.TMoteSky(),
		Nodes:         4,
		Duration:      duration,
		Seed:          3,
		Shards:        2,
		WindowSeconds: 4,
		ArrivalSource: func(nodeID int) (runtime.Stream, error) {
			inputs, err := c.Inputs(16, func(_ string, i int) any {
				return float64(nodeID*31+i) * 0.5
			})
			if err != nil {
				return nil, err
			}
			return runtime.InputStream(inputs, 1, duration)
		},
	}
	ref, err := runtime.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.MsgsSent == 0 || ref.MsgsReceived == 0 {
		t.Fatalf("degenerate reference run: %+v", *ref)
	}
	spec := wire.GraphSpec{App: "wscript", Source: src}
	ctx := context.Background()
	for _, hosts := range []int{1, 2, cfg.Nodes} {
		coord := dist.New(startPeers(t, hosts), nil)
		got, distributed, err := coord.Run(ctx, spec, cfg)
		if err != nil {
			t.Fatalf("%d hosts: %v", hosts, err)
		}
		if !distributed {
			t.Fatalf("%d hosts: wscript run fell back to local execution", hosts)
		}
		if *got != *ref {
			t.Fatalf("%d hosts: distributed wscript result diverges:\nref: %+v\ngot: %+v", hosts, *ref, *got)
		}
	}
}

// deliverCounter wraps a peer's handler and counts the /v1/shard/deliver
// requests it receives per (session, window), and how many it failed.
type deliverCounter struct {
	next http.Handler

	mu     sync.Mutex
	sent   map[wire.ShardDeliverRequest]int
	failed int
}

type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (d *deliverCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/shard/deliver" {
		d.next.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var req wire.ShardDeliverRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	d.next.ServeHTTP(rec, r)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sent[wire.ShardDeliverRequest{Session: req.Session, Window: req.Window}]++
	if rec.code != http.StatusOK {
		d.failed++
	}
}

// TestCoordinatorDeliverFailure pins a server-side work-function failure
// on a shard host: the run fails with the abort, as the local run does,
// instead of retrying the delivery into a host that has already dropped
// the window and carrying on without it — the failing window's deliver
// RPC reaches its host exactly once.
func TestCoordinatorDeliverFailure(t *testing.T) {
	const src = `
namespace Node {
  s = source("x", 4);
  feat = iterate v in s { emit v; };
}
main = iterate y in feat {
  a = [1.0];
  if y > 6.0 { emit a[2]; } else { emit y; }
};
`
	c, err := wscript.CompileOpts(src, wscript.Options{})
	if err != nil {
		t.Fatal(err)
	}
	onNode := make(map[int]bool)
	for _, op := range c.Graph.Operators() {
		onNode[op.ID()] = op.NS == dataflow.NSNode
	}
	const duration = 8.0
	cfg := runtime.Config{
		Graph:         c.Graph,
		OnNode:        onNode,
		Platform:      platform.TMoteSky(),
		Nodes:         4,
		Duration:      duration,
		Seed:          3,
		WindowSeconds: 2,
		ArrivalSource: func(nodeID int) (runtime.Stream, error) {
			// v passes 6 in the second window.
			inputs, err := c.Inputs(32, func(_ string, i int) any { return float64(i) * 0.5 })
			if err != nil {
				return nil, err
			}
			return runtime.InputStream(inputs, 1, duration)
		},
	}
	const abort = "index 2 out of bounds"
	if _, err := runtime.Run(cfg); err == nil || !strings.Contains(err.Error(), abort) {
		t.Fatalf("local run: got %v, want the %q abort", err, abort)
	}
	spec := wire.GraphSpec{App: "wscript", Source: src}
	for _, hosts := range []int{1, 2} {
		var counters []*deliverCounter
		var urls []string
		for i := 0; i < hosts; i++ {
			svc := server.New(server.Config{})
			d := &deliverCounter{next: svc.Handler(), sent: make(map[wire.ShardDeliverRequest]int)}
			ts := httptest.NewServer(d)
			t.Cleanup(ts.Close)
			t.Cleanup(svc.Close)
			counters = append(counters, d)
			urls = append(urls, ts.URL)
		}
		_, distributed, err := dist.New(urls, nil).Run(context.Background(), spec, cfg)
		if err == nil || !strings.Contains(err.Error(), abort) {
			t.Fatalf("%d hosts: got %v, want the %q abort", hosts, err, abort)
		}
		if !distributed {
			t.Fatalf("%d hosts: run fell back to local execution", hosts)
		}
		failed := 0
		for hi, d := range counters {
			d.mu.Lock()
			for key, n := range d.sent {
				if n != 1 {
					t.Errorf("%d hosts: host %d received window %d's deliver %d times", hosts, hi, key.Window, n)
				}
			}
			failed += d.failed
			d.mu.Unlock()
		}
		if failed == 0 {
			t.Fatalf("%d hosts: no deliver RPC failed (run error: %v)", hosts, err)
		}
	}
}

// TestCoordinatorParitySpeech places one speech simulation's origins on
// 1, 2, 3, and N HTTP shard hosts and requires the byte-identical Result
// of the single-host streaming run at every placement — 1×N, 2×N/2, and
// N×1 included.
func TestCoordinatorParitySpeech(t *testing.T) {
	spec, cfg := speechConfig(t)
	ref, err := runtime.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.MsgsSent == 0 || ref.ServerEmits == 0 {
		t.Fatalf("degenerate reference run: %+v", *ref)
	}
	ctx := context.Background()
	for _, hosts := range []int{1, 2, 3, cfg.Nodes} {
		coord := dist.New(startPeers(t, hosts), nil)
		got, distributed, err := coord.Run(ctx, spec, cfg)
		if err != nil {
			t.Fatalf("%d hosts: %v", hosts, err)
		}
		if !distributed {
			t.Fatalf("%d hosts: run fell back to local execution", hosts)
		}
		if *got != *ref {
			t.Fatalf("%d hosts: distributed result diverges:\nref: %+v\ngot: %+v", hosts, *ref, *got)
		}
	}
}

// TestCoordinatorFallback pins the local path: no peers, and a partition
// with global server state (EEG's detect operator), both execute locally
// with the exact Result of runtime.Run.
func TestCoordinatorFallback(t *testing.T) {
	ctx := context.Background()

	// No peers: always local, even for a distributable run.
	spec, cfg := speechConfig(t)
	ref, err := runtime.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, distributed, err := dist.New(nil, nil).Run(ctx, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if distributed {
		t.Fatal("peerless coordinator claims it distributed")
	}
	if *res != *ref {
		t.Fatalf("peerless run diverges:\nref: %+v\ngot: %+v", *ref, *res)
	}

	// Peers configured, but the EEG cut has a stateful Server-namespace
	// operator: the origin split cannot express it, so the coordinator
	// must fall back rather than fail.
	app := eeg.NewWithChannels(2)
	onNode := make(map[int]bool)
	for _, op := range app.Graph.Operators() {
		onNode[op.ID()] = op.NS == dataflow.NSNode
	}
	eegCfg := runtime.Config{
		Graph:    app.Graph,
		OnNode:   onNode,
		Platform: platform.Gumstix(),
		Nodes:    2,
		Duration: 4,
		Seed:     1,
		Inputs:   func(int) []profile.Input { return app.SampleTrace(3, 4) },
	}
	eegRef, err := runtime.Run(eegCfg)
	if err != nil {
		t.Fatal(err)
	}
	coord := dist.New(startPeers(t, 2), nil)
	res, distributed, err = coord.Run(ctx, wire.GraphSpec{App: "eeg", Channels: 2}, eegCfg)
	if err != nil {
		t.Fatal(err)
	}
	if distributed {
		t.Fatal("EEG run with global server state was distributed")
	}
	if *res != *eegRef {
		t.Fatalf("EEG fallback diverges:\nref: %+v\ngot: %+v", *eegRef, *res)
	}
}

// TestCoordinatorGraphHashMismatch pins the identity check: a spec that
// elaborates to a different graph than the coordinator simulates locally
// must be rejected at open, not produce a silently different simulation.
func TestCoordinatorGraphHashMismatch(t *testing.T) {
	_, cfg := speechConfig(t)
	coord := dist.New(startPeers(t, 1), nil)
	badSpec := wire.GraphSpec{App: "eeg", Channels: 1}
	if _, _, err := coord.Run(context.Background(), badSpec, cfg); err == nil {
		t.Fatal("structural-hash mismatch between coordinator and host was accepted")
	}
}

// burstStream triples the arrival density of a base stream past the
// half-way mark: each late arrival is echoed twice a few milliseconds
// later — the drift injection the replan tests stream.
type burstStream struct {
	base runtime.Stream
	half float64
	pend []runtime.Arrival
}

func (b *burstStream) Next() (runtime.Arrival, bool) {
	if len(b.pend) > 0 {
		a := b.pend[0]
		b.pend = b.pend[1:]
		return a, true
	}
	a, ok := b.base.Next()
	if !ok {
		return a, false
	}
	if a.Time > b.half {
		e1, e2 := a, a
		e1.Time += 0.005
		e2.Time += 0.01
		b.pend = append(b.pend, e1, e2)
	}
	return a, true
}

// TestCoordinatorReplanParity is the cross-host half of the replan
// parity pin: a drift-injected speech trace replanned mid-stream through
// the /v1/shard protocol — every host freezing its shard, the
// coordinator migrating the assembled snapshot onto the new cut, and the
// hosts re-opening from the migrated blob — must produce the
// byte-identical Result and replan schedule of the local in-process
// control loop, at every host count.
func TestCoordinatorReplanParity(t *testing.T) {
	spec, cfg := speechConfig(t)
	cfg.WindowSeconds = 1
	base := cfg.ArrivalSource
	cfg.ArrivalSource = func(nodeID int) (runtime.Stream, error) {
		st, err := base(nodeID)
		if err != nil {
			return nil, err
		}
		return &burstStream{base: st, half: cfg.Duration / 2}, nil
	}
	cutB := make(map[int]bool)
	for i, op := range cfg.Graph.Operators() {
		cutB[op.ID()] = i < 4
	}
	policy := runtime.ReplanPolicy{Threshold: 0.5, Hysteresis: 2, Decay: 0.5, MaxReplans: 1}
	planner := func(float64) (*runtime.Plan, error) { return &runtime.Plan{OnNode: cutB}, nil }
	ctx := context.Background()

	ref, refEvents, distributed, err := dist.New(nil, nil).RunControlled(ctx, spec, cfg, policy, planner)
	if err != nil {
		t.Fatal(err)
	}
	if distributed {
		t.Fatal("peerless controlled run claims it distributed")
	}
	if len(refEvents) != 1 || len(refEvents[0].Moved) == 0 {
		t.Fatalf("local reference saw events %+v, want one relocating replan", refEvents)
	}
	if ref.MsgsSent == 0 {
		t.Fatalf("degenerate reference run: %+v", *ref)
	}

	for _, hosts := range []int{1, 2, 3} {
		coord := dist.New(startPeers(t, hosts), nil)
		got, events, distributed, err := coord.RunControlled(ctx, spec, cfg, policy, planner)
		if err != nil {
			t.Fatalf("%d hosts: %v", hosts, err)
		}
		if !distributed {
			t.Fatalf("%d hosts: controlled run fell back to local execution", hosts)
		}
		if len(events) != 1 {
			t.Fatalf("%d hosts: %d replan events, want 1", hosts, len(events))
		}
		if events[0].Time != refEvents[0].Time {
			t.Fatalf("%d hosts: replanned at t=%g, local loop at t=%g", hosts, events[0].Time, refEvents[0].Time)
		}
		if len(events[0].Moved) != len(refEvents[0].Moved) {
			t.Fatalf("%d hosts: moved %v, local loop moved %v", hosts, events[0].Moved, refEvents[0].Moved)
		}
		if *got != *ref {
			t.Fatalf("%d hosts: distributed replan diverges:\nref: %+v\ngot: %+v", hosts, *ref, *got)
		}
	}
}
