package dist_test

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"wishbone/internal/dist"
	"wishbone/internal/runtime"
	"wishbone/internal/server"
)

// chaosTransport injects a host failure into the coordinator's HTTP
// stack: after killAfter successful compute calls to target, onKill runs
// once (synchronously — e.g. drain the server or kill its process) and,
// when cut is requested, every further request to target fails at the
// transport like a partitioned peer. Independently, the first request to
// target for one of the shard RPCs named in dropReply ("checkpoint" for
// /v1/shard/checkpoint) runs on the peer but loses its reply in transit.
type chaosTransport struct {
	base      http.RoundTripper
	target    string // URL host ("127.0.0.1:port") to fail
	killAfter int
	cutOnKill bool
	onKill    func()
	dropReply []string

	mu       sync.Mutex
	computes int
	cut      bool
	killed   bool
	dropped  bool
}

func (c *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.mu.Lock()
	if req.URL.Host != c.target {
		c.mu.Unlock()
		return c.base.RoundTrip(req)
	}
	if c.cut {
		c.mu.Unlock()
		return nil, fmt.Errorf("chaos: host partitioned")
	}
	if !c.dropped && slices.Contains(c.dropReply, path.Base(req.URL.Path)) {
		c.dropped = true
		c.mu.Unlock()
		resp, err := c.base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		// Read the reply whole, so the peer has finished the call.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("chaos: reply to %s lost", req.URL.Path)
	}
	if !c.killed && strings.HasSuffix(req.URL.Path, "/v1/shard/compute") {
		c.computes++
		if c.computes > c.killAfter {
			c.killed = true
			c.cut = c.cutOnKill
			kill := c.onKill
			c.mu.Unlock()
			if kill != nil {
				kill()
			}
			if c.cutOnKill {
				return nil, fmt.Errorf("chaos: host died mid-compute")
			}
			return c.base.RoundTrip(req)
		}
	}
	c.mu.Unlock()
	return c.base.RoundTrip(req)
}

func (c *chaosTransport) didKill() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.killed
}

func (c *chaosTransport) didDrop() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// fastRetry gives c a retry schedule that keeps the fault-injection tests
// quick without changing the retry semantics under test.
func fastRetry(c *dist.Coordinator) *dist.Coordinator {
	c.SetRetry(10*time.Second, 3, time.Millisecond, 20*time.Millisecond)
	return c
}

// startPeerServers is startPeers, additionally returning the Server
// handles so a test can drain one mid-run.
func startPeerServers(t *testing.T, n int, cfg server.Config) ([]string, []*server.Server) {
	t.Helper()
	urls := make([]string, n)
	svcs := make([]*server.Server, n)
	for i := range urls {
		svc := server.New(cfg)
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(svc.Close)
		urls[i] = ts.URL
		svcs[i] = svc
	}
	return urls, svcs
}

// TestCoordinatorPartitionRecovery cuts peer 0 off at the transport
// mid-run — the retry budget exhausts, the host is declared down, and
// its origins reopen on the surviving peer from the last checkpoint. The
// recovered Result must be byte-identical to the single-host run, at
// every kill point and checkpoint cadence.
func TestCoordinatorPartitionRecovery(t *testing.T) {
	spec, cfg := speechConfig(t)
	ref, err := runtime.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, every := range []int{1, 2} {
		for killAfter := 0; killAfter <= 2; killAfter++ {
			name := fmt.Sprintf("every=%d/killAfter=%d", every, killAfter)
			urls := startPeers(t, 2)
			chaos := &chaosTransport{
				base:      http.DefaultTransport,
				target:    strings.TrimPrefix(urls[0], "http://"),
				killAfter: killAfter,
				cutOnKill: true,
			}
			var recovered []runtime.RecoveryEvent
			coord := fastRetry(dist.NewWithOptions(urls, dist.Options{
				HTTPClient:      &http.Client{Transport: chaos},
				CheckpointEvery: every,
				OnRecover:       func(ev runtime.RecoveryEvent) { recovered = append(recovered, ev) },
			}))
			got, distributed, err := coord.Run(ctx, spec, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !distributed {
				t.Fatalf("%s: fell back to local execution", name)
			}
			if !chaos.didKill() {
				t.Fatalf("%s: the chaos transport never fired", name)
			}
			if len(recovered) == 0 {
				t.Fatalf("%s: host cut off but no recovery happened", name)
			}
			if *got != *ref {
				t.Fatalf("%s: recovered result diverges:\nref: %+v\ngot: %+v", name, *ref, *got)
			}
		}
	}
}

// TestCoordinatorDrainRecovery drains peer 0's server mid-run (the
// "restarted host" failure: the peer answers, but with unknown_session /
// shutting-down instead of results). The coordinator must classify that
// as host-down without burning the whole retry budget on a host that
// provably lost the state, recover onto peer 1, and still produce the
// byte-identical Result.
func TestCoordinatorDrainRecovery(t *testing.T) {
	spec, cfg := speechConfig(t)
	ref, err := runtime.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	urls, svcs := startPeerServers(t, 2, server.Config{})
	chaos := &chaosTransport{
		base:      http.DefaultTransport,
		target:    strings.TrimPrefix(urls[0], "http://"),
		killAfter: 1,
		onKill:    func() { svcs[0].Close() },
	}
	var recovered []runtime.RecoveryEvent
	coord := fastRetry(dist.NewWithOptions(urls, dist.Options{
		HTTPClient: &http.Client{Transport: chaos},
		OnRecover:  func(ev runtime.RecoveryEvent) { recovered = append(recovered, ev) },
	}))
	got, distributed, err := coord.Run(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !distributed || !chaos.didKill() || len(recovered) == 0 {
		t.Fatalf("drain never exercised recovery (distributed=%v killed=%v recoveries=%d)",
			distributed, chaos.didKill(), len(recovered))
	}
	if *got != *ref {
		t.Fatalf("post-drain result diverges:\nref: %+v\ngot: %+v", *ref, *got)
	}
}

// TestCoordinatorMidOpenAbort is the session-leak regression: peer 0
// allows exactly ONE shard session, and peer 1 refuses every open. The
// initial two-host placement opens peer 0's session, fails on peer 1,
// and must abort the peer-0 session before re-placing everything on peer
// 0 alone — if the abort path leaked the session (or its
// MaxShardSessions slot), the re-placement would be refused and the run
// would fail instead of succeeding.
func TestCoordinatorMidOpenAbort(t *testing.T) {
	spec, cfg := speechConfig(t)
	ref, err := runtime.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	goodURLs, _ := startPeerServers(t, 1, server.Config{MaxShardSessions: 1})
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"injected open failure"}`, http.StatusInternalServerError)
	}))
	t.Cleanup(bad.Close)

	coord := fastRetry(dist.New([]string{goodURLs[0], bad.URL}, nil))
	got, distributed, err := coord.Run(context.Background(), spec, cfg)
	if err != nil {
		t.Fatalf("placement with one dead peer failed: %v", err)
	}
	if !distributed {
		t.Fatal("fell back to local execution")
	}
	if *got != *ref {
		t.Fatalf("re-placed result diverges:\nref: %+v\ngot: %+v", *ref, *got)
	}
}

// TestCoordinatorAllPeersDead pins the no-survivor behavior: when every
// peer is gone, Run fails with an error matching dist.ErrHostDown rather
// than hanging or succeeding vacuously.
func TestCoordinatorAllPeersDead(t *testing.T) {
	spec, cfg := speechConfig(t)
	urls := startPeers(t, 1)
	chaos := &chaosTransport{
		base:      http.DefaultTransport,
		target:    strings.TrimPrefix(urls[0], "http://"),
		killAfter: 1,
		cutOnKill: true,
	}
	coord := fastRetry(dist.NewWithOptions(urls, dist.Options{
		HTTPClient: &http.Client{Transport: chaos},
	}))
	_, _, err := coord.Run(context.Background(), spec, cfg)
	if err == nil {
		t.Fatal("run with every peer dead succeeded")
	}
	if !chaos.didKill() {
		t.Fatal("chaos transport never fired")
	}
}

// TestCoordinatorReplanLostFreezeReply loses the reply to one host's
// freeze RPC during a replan handoff, with recovery disabled. The freeze
// must be safe to retry — a terminal freeze would find its session gone
// on the retry and fail the run — so the run finishes with the local
// controlled run's Result.
func TestCoordinatorReplanLostFreezeReply(t *testing.T) {
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
	ref, _, _, err := dist.New(nil, nil).RunControlled(ctx, spec, cfg, policy, planner)
	if err != nil {
		t.Fatal(err)
	}

	urls := startPeers(t, 2)
	chaos := &chaosTransport{
		base:      http.DefaultTransport,
		target:    strings.TrimPrefix(urls[0], "http://"),
		killAfter: math.MaxInt,
		// Both freeze RPCs a coordinator has used: the retry-safe checkpoint
		// and the terminal snapshot it replaced.
		dropReply: []string{"checkpoint", "snapshot"},
	}
	coord := fastRetry(dist.NewWithOptions(urls, dist.Options{
		HTTPClient:      &http.Client{Transport: chaos},
		CheckpointEvery: -1,
	}))
	got, events, distributed, err := coord.RunControlled(ctx, spec, cfg, policy, planner)
	if err != nil {
		t.Fatalf("handoff with a lost freeze reply: %v", err)
	}
	if !distributed || !chaos.didDrop() || len(events) != 1 || len(events[0].Moved) == 0 {
		t.Fatalf("no freeze reply lost in a relocating handoff (distributed=%v dropped=%v events=%+v)",
			distributed, chaos.didDrop(), events)
	}
	if *got != *ref {
		t.Fatalf("result after a lost freeze reply diverges:\nref: %+v\ngot: %+v", *ref, *got)
	}
}
