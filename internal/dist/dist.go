// Package dist places one simulation's shard set across hosts: a
// Coordinator partitions the origin nodes over a set of wbserved peers
// (speaking the /v1/shard protocol, internal/server), drives the
// per-window barrier through a runtime.DistSession, and assembles the
// global Result. Results are byte-identical to a single-host run at
// every host count and origin placement — per-origin independence makes
// the split exact, and the coordinator keeps the only globally coupled
// pieces (delivery-ratio pricing, in-network reduce aggregation).
//
// The coordinator is fault tolerant: every shard RPC retries transient
// failures with capped exponential backoff (errors.go), each host is
// checkpointed at window boundaries, and a host that dies mid-run is
// re-opened on a surviving peer from its last checkpoint with the window
// tail replayed — the recovered Result is byte-identical to the
// uninterrupted run (runtime/recovery.go has the protocol; Options tunes
// the policy).
//
// A Coordinator with no peers, or a run the origin split cannot express
// (global server state), falls back to local execution.
package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"wishbone/internal/runtime"
	"wishbone/internal/server"
	"wishbone/internal/wire"
)

// Options tunes a Coordinator. The zero value is fully usable.
type Options struct {
	// HTTPClient carries the shard RPCs; nil means http.DefaultClient.
	HTTPClient *http.Client
	// Retry shapes every shard RPC's timeout/retry loop; zero fields
	// select the defaults (see RetryPolicy).
	Retry RetryPolicy
	// CheckpointEvery is the host-checkpoint cadence in flushed windows:
	// 0 means 1 (checkpoint every window boundary — shortest replay tail),
	// larger values trade checkpoint RPCs for longer replays on failure,
	// and a negative value disables host-failure recovery entirely (any
	// host death aborts the run, the pre-recovery behavior).
	CheckpointEvery int
	// OnRecover, when set, observes each completed host recovery.
	OnRecover func(runtime.RecoveryEvent)
}

// Coordinator runs simulations, distributed across its peers when the
// run allows it. The zero value is not usable; call New or
// NewWithOptions. A Coordinator is safe for concurrent use — each Run
// builds its own sessions.
type Coordinator struct {
	peers []*server.Client
	urls  []string
	opts  Options
}

// New returns a coordinator over the given peer base URLs (wbserved
// instances) with default options. httpClient may be nil for
// http.DefaultClient. An empty peer list is valid: every Run executes
// locally.
func New(peers []string, httpClient *http.Client) *Coordinator {
	return NewWithOptions(peers, Options{HTTPClient: httpClient})
}

// NewWithOptions returns a coordinator with explicit retry/recovery
// options.
func NewWithOptions(peers []string, opts Options) *Coordinator {
	opts.Retry = opts.Retry.withDefaults()
	c := &Coordinator{urls: append([]string(nil), peers...), opts: opts}
	for _, u := range peers {
		c.peers = append(c.peers, server.NewClient(u, opts.HTTPClient))
	}
	return c
}

// Peers returns the configured peer URLs.
func (c *Coordinator) Peers() []string { return append([]string(nil), c.urls...) }

// recovery builds the DistRecovery policy for one run's shard state, or
// nil when recovery is disabled.
func (c *Coordinator) recovery(st *runShards) *runtime.DistRecovery {
	if c.opts.CheckpointEvery < 0 {
		return nil
	}
	return &runtime.DistRecovery{
		Every:     c.opts.CheckpointEvery,
		Reopen:    st.reopen,
		OnRecover: c.opts.OnRecover,
	}
}

// Run simulates cfg, splitting the origin nodes across the peers when
// the run is distributable; spec must elaborate to cfg.Graph's structure
// (the hosts rebuild the graph from it and verify the structural hash).
// distributed reports which path ran: false means the local runtime
// executed the whole simulation (no peers, or the partition has global
// server state the origin split cannot express).
//
// Arrivals come from cfg.ArrivalSource when set, else from cfg.Inputs
// (scaled by cfg.RateScale), through runtime.Feed — the merge the
// single-host streaming path runs — so the Result is byte-identical
// either way.
func (c *Coordinator) Run(ctx context.Context, spec wire.GraphSpec, cfg runtime.Config) (res *runtime.Result, distributed bool, err error) {
	if len(c.peers) == 0 || !runtime.Distributable(cfg) {
		res, err = runtime.Run(cfg)
		return res, false, err
	}
	st := c.newRunShards(ctx, spec)
	hosts, err := st.open(cfg, nil)
	if err != nil {
		return nil, false, err
	}
	ds, err := runtime.NewDistSession(cfg, hosts)
	if err != nil {
		for _, b := range hosts {
			b.Driver.Abort()
		}
		return nil, false, err
	}
	ds.EnableRecovery(c.recovery(st))
	if err := runtime.Feed(ds, &cfg); err != nil {
		ds.Abort()
		return nil, true, err
	}
	res, err = ds.Close()
	if err != nil {
		return nil, true, err
	}
	return res, true, nil
}

// RunControlled is Run with the online control plane attached: the
// per-window load observations drive a drift detector, and when drift
// persists the planner is consulted for a new cut. Relocated operators
// hand state off mid-stream — on the distributed path the coordinator
// freezes every host (/v1/shard/snapshot), folds the blobs into one
// session snapshot, rewrites it onto the new cut with MigrateSnapshot,
// and re-opens the hosts with the migrated snapshot as their Resume
// blob; the local fallback runs the same handoff in-process. Either way
// the continuation is byte-identical to a run that started on the new
// cut at the handoff boundary.
//
// plannedLoad is the offered-load rate (air bytes/sec) the initial cut
// was planned for; 0 adopts the first observed window. planner may be
// nil for drift detection without relocation. The returned events record
// every trigger, moved set, and the load multiple solved for.
func (c *Coordinator) RunControlled(ctx context.Context, spec wire.GraphSpec, cfg runtime.Config,
	policy runtime.ReplanPolicy, plannedLoad float64, planner runtime.Planner) (res *runtime.Result, events []runtime.ReplanEvent, distributed bool, err error) {
	if len(c.peers) == 0 || !runtime.Distributable(cfg) {
		cs, err := runtime.NewControlledSession(cfg, policy, plannedLoad, planner)
		if err != nil {
			return nil, nil, false, err
		}
		if err := runtime.Feed(cs, &cfg); err != nil {
			cs.Close()
			return nil, cs.Events(), false, err
		}
		res, err = cs.Close()
		return res, cs.Events(), false, err
	}
	st := c.newRunShards(ctx, spec)
	hosts, err := st.open(cfg, nil)
	if err != nil {
		return nil, nil, false, err
	}
	ds, err := runtime.NewDistSession(cfg, hosts)
	if err != nil {
		for _, b := range hosts {
			b.Driver.Abort()
		}
		return nil, nil, false, err
	}
	ds.EnableRecovery(c.recovery(st))
	dcs := runtime.NewDistControlledSession(ds, policy, plannedLoad, planner,
		func(ncfg runtime.Config, snapshot []byte) ([]runtime.HostBinding, error) {
			return st.open(ncfg, snapshot)
		})
	if err := runtime.Feed(dcs, &cfg); err != nil {
		dcs.Abort()
		return nil, dcs.Events(), true, err
	}
	res, err = dcs.Close()
	return res, dcs.Events(), true, err
}

// runShards is one run's live placement: which peer serves each host
// slot, which peers are considered dead, and what a replacement host
// must restore (the latest session resume blob, superseded per host by
// its checkpoint). It is both the opener (initial placement, replan
// rebind) and the recovery reopener for runtime.DistRecovery.
type runShards struct {
	c    *Coordinator
	ctx  context.Context
	spec wire.GraphSpec

	mu       sync.Mutex
	cfg      runtime.Config
	resume   []byte       // session blob hosts resumed from (nil = fresh)
	hostPeer []int        // host slot -> peer index currently serving it
	dead     map[int]bool // peer indices considered lost for this run
}

func (c *Coordinator) newRunShards(ctx context.Context, spec wire.GraphSpec) *runShards {
	return &runShards{c: c, ctx: ctx, spec: spec, dead: make(map[int]bool)}
}

// alivePeers lists the peer indices not marked dead.
func (r *runShards) alivePeers() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	alive := make([]int, 0, len(r.c.peers))
	for pi := range r.c.peers {
		if !r.dead[pi] {
			alive = append(alive, pi)
		}
	}
	return alive
}

// open places one shard-host session per live peer, each owning a
// round-robin slice of the origins (PartitionOrigins drops surplus peers
// when there are more hosts than nodes). A non-nil resume blob — a full
// session snapshot, typically MigrateSnapshot's output during a replan
// handoff — makes each host restore its owned origins from it instead of
// starting fresh. A peer that proves dead during placement is dropped
// and the placement retried over the survivors. On error every
// already-opened session is aborted.
func (r *runShards) open(cfg runtime.Config, resume []byte) ([]runtime.HostBinding, error) {
	for {
		alive := r.alivePeers()
		if len(alive) == 0 {
			return nil, fmt.Errorf("dist: no live peers to place shards on: %w", ErrHostDown)
		}
		parts := runtime.PartitionOrigins(cfg.Nodes, len(alive))
		hosts := make([]runtime.HostBinding, 0, len(parts))
		abortHosts := func() {
			for _, b := range hosts {
				b.Driver.Abort()
			}
		}
		retry := false
		for hi, origins := range parts {
			pi := alive[hi]
			d, err := r.openOne(pi, cfg, origins, resume, nil)
			if err != nil {
				abortHosts()
				if errors.Is(err, ErrHostDown) {
					// The peer is gone; drop it and re-place over the
					// survivors.
					r.mu.Lock()
					r.dead[pi] = true
					r.mu.Unlock()
					retry = true
					break
				}
				return nil, err
			}
			hosts = append(hosts, runtime.HostBinding{Driver: d, Origins: origins})
		}
		if retry {
			continue
		}
		r.mu.Lock()
		r.cfg, r.resume = cfg, resume
		r.hostPeer = make([]int, len(parts))
		for hi := range parts {
			r.hostPeer[hi] = alive[hi]
		}
		r.mu.Unlock()
		return hosts, nil
	}
}

// openOne opens one shard session on peer pi. ckpt non-nil opens from a
// host checkpoint blob (recovery); else resume non-nil opens from the
// run's session snapshot; else fresh.
func (r *runShards) openOne(pi int, cfg runtime.Config, origins []int, resume, ckpt []byte) (runtime.HostDriver, error) {
	var onNode []int
	for _, op := range cfg.Graph.Operators() {
		if cfg.OnNode[op.ID()] {
			onNode = append(onNode, op.ID())
		}
	}
	req := wire.ShardOpenRequest{
		Graph:     r.spec,
		GraphHash: cfg.Graph.StructuralHash(),
		Platform:  cfg.Platform.Name,
		OnNode:    onNode,
		Nodes:     cfg.Nodes,
		Duration:  cfg.Duration,
		Seed:      cfg.Seed,
		Shards:    cfg.Shards,
		Origins:   origins,
	}
	if ckpt != nil {
		req.ResumeHost = ckpt
	} else {
		req.Resume = resume
	}
	var open *wire.ShardOpenResponse
	err := retryRPC(r.ctx, r.c.opts.Retry, r.c.urls[pi], "open", func(ctx context.Context) error {
		resp, err := r.c.peers[pi].ShardOpen(ctx, req)
		open = resp
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("dist: open shard on %s: %w", r.c.urls[pi], err)
	}
	return &httpHost{
		ctx: r.ctx, client: r.c.peers[pi], url: r.c.urls[pi],
		session: open.Session, retry: r.c.opts.Retry,
	}, nil
}

// reopen is the DistRecovery.Reopen callback: host slot host died; mark
// its peer dead and re-open its origins on the next surviving peer —
// from the host's checkpoint when one exists, else from the run's resume
// blob, else fresh (the coordinator replays the window tail either way).
func (r *runShards) reopen(host int, origins []int, ckpt []byte) (runtime.HostDriver, error) {
	r.mu.Lock()
	failed := 0
	if host >= 0 && host < len(r.hostPeer) {
		failed = r.hostPeer[host]
		r.dead[failed] = true
	}
	cfg, resume := r.cfg, r.resume
	n := len(r.c.peers)
	cands := make([]int, 0, n)
	for i := 1; i <= n; i++ {
		pi := (failed + i) % n
		if !r.dead[pi] {
			cands = append(cands, pi)
		}
	}
	r.mu.Unlock()
	var lastErr error
	for _, pi := range cands {
		d, err := r.openOne(pi, cfg, origins, resume, ckpt)
		if err == nil {
			r.mu.Lock()
			if host >= 0 && host < len(r.hostPeer) {
				r.hostPeer[host] = pi
			}
			r.mu.Unlock()
			return d, nil
		}
		lastErr = err
		if errors.Is(err, ErrHostDown) {
			r.mu.Lock()
			r.dead[pi] = true
			r.mu.Unlock()
			continue
		}
		return nil, err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("dist: every peer is dead: %w", ErrHostDown)
	}
	return nil, fmt.Errorf("dist: no surviving peer for host %d's origins: %w", host, lastErr)
}

// httpHost drives one remote shard session over the /v1/shard protocol.
// Arrival values and reduce contributions travel wire-marshaled (binary,
// base64 in the JSON envelope), so every element round-trips bit-exactly;
// the plain float64 fields (times, ratio, busy seconds) are exact under
// JSON's shortest-round-trip encoding.
//
// Every call runs under the coordinator's retry policy. The compute and
// deliver calls are not idempotent, so each carries the coordinator's
// window sequence number and the server dedupes repeats from a reply
// cache — a retry whose first attempt actually executed (response lost)
// is acknowledged, not re-applied.
type httpHost struct {
	ctx     context.Context
	client  *server.Client
	url     string
	session string
	retry   RetryPolicy
	seq     int64 // window sequence: bumped per ComputeWindow, shared by its DeliverWindow
}

func (h *httpHost) rpc(op string, f func(ctx context.Context) error) error {
	return retryRPC(h.ctx, h.retry, h.url, op, f)
}

func (h *httpHost) ComputeWindow(span float64, arrivals []runtime.HostArrival) (*runtime.WindowReport, error) {
	h.seq++
	req := wire.ShardComputeRequest{Session: h.session, Window: h.seq, Span: span}
	req.Arrivals = make([]wire.ShardArrivalWire, len(arrivals))
	for i, a := range arrivals {
		data, err := wire.Marshal(a.Value)
		if err != nil {
			return nil, fmt.Errorf("dist: arrival value for node %d does not marshal: %w", a.Node, err)
		}
		req.Arrivals[i] = wire.ShardArrivalWire{Node: a.Node, Time: a.Time, Source: a.Source, Value: data}
	}
	var rep *runtime.WindowReport
	err := h.rpc("compute", func(ctx context.Context) (err error) {
		rep, err = h.client.ShardCompute(ctx, req)
		return err
	})
	return rep, err
}

func (h *httpHost) DeliverWindow(ratio float64) error {
	req := wire.ShardDeliverRequest{Session: h.session, Window: h.seq, Ratio: ratio}
	return h.rpc("deliver", func(ctx context.Context) error {
		return h.client.ShardDeliver(ctx, req)
	})
}

func (h *httpHost) Checkpoint() ([]byte, error) {
	var data []byte
	if err := h.rpc("checkpoint", func(ctx context.Context) error {
		d, err := h.client.ShardCheckpoint(ctx, h.session)
		data = d
		return err
	}); err != nil {
		return nil, err
	}
	return data, nil
}

func (h *httpHost) Close() (*runtime.HostResult, error) {
	var hr *runtime.HostResult
	err := h.rpc("close", func(ctx context.Context) (err error) {
		hr, err = h.client.ShardClose(ctx, h.session)
		return err
	})
	return hr, err
}

func (h *httpHost) Snapshot() ([]byte, error) {
	var data []byte
	if err := h.rpc("snapshot", func(ctx context.Context) error {
		d, err := h.client.ShardSnapshot(ctx, h.session)
		data = d
		return err
	}); err != nil {
		return nil, err
	}
	return data, nil
}

func (h *httpHost) Abort() {
	// Best effort, single attempt, detached from the run context — error
	// paths abort with the parent context already canceled, and skipping
	// the RPC then would leak the remote session (and its
	// MaxShardSessions slot) until the peer drains. The server also reaps
	// sessions at drain.
	ctx, cancel := context.WithTimeout(context.WithoutCancel(h.ctx), 2*time.Second)
	defer cancel()
	_ = h.client.ShardAbort(ctx, h.session)
}
