// Package dist places one simulation's shard set across hosts: a
// Coordinator partitions the origin nodes over a set of wbserved peers
// (speaking the /v1/shard protocol, internal/server), drives the
// per-window barrier through a runtime.Session, and assembles the
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
	retry retryPolicy
}

// New returns a coordinator over the given peer base URLs (wbserved
// instances) with default options. httpClient may be nil for
// http.DefaultClient. An empty peer list is valid: every Run executes
// locally.
func New(peers []string, httpClient *http.Client) *Coordinator {
	return NewWithOptions(peers, Options{HTTPClient: httpClient})
}

// NewWithOptions returns a coordinator with explicit recovery options.
// Every shard RPC runs the fixed retry schedule (retryTimeout and the
// constants beside it).
func NewWithOptions(peers []string, opts Options) *Coordinator {
	c := &Coordinator{urls: append([]string(nil), peers...), opts: opts, retry: defaultRetry}
	for _, u := range peers {
		c.peers = append(c.peers, server.NewClient(u, opts.HTTPClient))
	}
	return c
}

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
	res, _, distributed, err = c.run(ctx, spec, cfg, nil, nil)
	return res, distributed, err
}

// RunControlled is Run with the online control plane attached
// (runtime.Session.EnableReplan): the per-window load observations drive
// a drift detector, and when drift persists the planner is consulted for
// a new cut. Relocated operators hand state off mid-stream — on the
// distributed path the coordinator checkpoints every host, folds the
// blobs into one session snapshot, rewrites it onto the new cut with
// MigrateSnapshot, and re-opens each host from its share of the migrated
// snapshot (runtime.HostShares); the local fallback runs the same handoff
// in-process. Either way the continuation is byte-identical to a run that
// started on the new cut at the handoff boundary.
//
// The first observed window is the baseline load. The returned events
// record every trigger, moved set, and the load multiple solved for.
func (c *Coordinator) RunControlled(ctx context.Context, spec wire.GraphSpec, cfg runtime.Config,
	policy runtime.ReplanPolicy, planner runtime.Planner) (res *runtime.Result, events []runtime.ReplanEvent, distributed bool, err error) {
	return c.run(ctx, spec, cfg, &policy, planner)
}

// run is Run and RunControlled: one session, distributed when the peers
// and the partition allow it, with the control loop armed when policy is
// non-nil.
func (c *Coordinator) run(ctx context.Context, spec wire.GraphSpec, cfg runtime.Config,
	policy *runtime.ReplanPolicy, planner runtime.Planner) (*runtime.Result, []runtime.ReplanEvent, bool, error) {
	distributed := len(c.peers) > 0 && runtime.Distributable(cfg)
	var sess *runtime.Session
	var rebind func(runtime.Config, []byte) ([]runtime.HostBinding, error)
	switch {
	case distributed:
		st := c.newRunShards(ctx, spec)
		hosts, err := st.open(cfg, nil)
		if err != nil {
			return nil, nil, false, err
		}
		if sess, err = runtime.NewDistSession(cfg, hosts); err != nil {
			for _, b := range hosts {
				b.Driver.Abort()
			}
			return nil, nil, false, err
		}
		sess.EnableRecovery(c.recovery(st))
		rebind = st.open
	case policy == nil:
		// Nothing to steer: the local runtime picks its own path.
		res, err := runtime.Run(cfg)
		return res, nil, false, err
	default:
		var err error
		if sess, err = runtime.NewSession(cfg); err != nil {
			return nil, nil, false, err
		}
	}
	if policy != nil {
		sess.EnableReplan(*policy, planner, rebind)
	}
	if err := runtime.Feed(sess, &cfg); err != nil {
		sess.Abort()
		return nil, sess.Replans(), distributed, err
	}
	res, err := sess.Close()
	return res, sess.Replans(), distributed, err
}

// runShards is one run's live placement: which peer serves each host
// slot and which peers are considered dead. It is both the opener
// (initial placement, replan rebind) and the recovery reopener for
// runtime.DistRecovery, whose session keeps what a replacement restores.
type runShards struct {
	c    *Coordinator
	ctx  context.Context
	spec wire.GraphSpec

	mu       sync.Mutex
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
// session snapshot, MigrateSnapshot's output during a replan handoff —
// makes each host restore from its share of it (runtime.HostShares)
// instead of starting fresh. A peer that proves dead during placement is
// dropped and the placement retried over the survivors. On error every
// already-opened session is aborted.
func (r *runShards) open(cfg runtime.Config, resume []byte) ([]runtime.HostBinding, error) {
	for {
		alive := r.alivePeers()
		if len(alive) == 0 {
			return nil, fmt.Errorf("dist: no live peers to place shards on: %w", ErrHostDown)
		}
		parts := runtime.PartitionOrigins(cfg.Nodes, len(alive))
		shares := make([][]byte, len(parts))
		if resume != nil {
			var err error
			if shares, err = runtime.HostShares(cfg, resume, parts); err != nil {
				return nil, err
			}
		}
		hosts := make([]runtime.HostBinding, 0, len(parts))
		abortHosts := func() {
			for _, b := range hosts {
				b.Driver.Abort()
			}
		}
		retry := false
		for hi, origins := range parts {
			pi := alive[hi]
			d, err := r.openOne(pi, cfg, origins, shares[hi])
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
		r.hostPeer = make([]int, len(parts))
		for hi := range parts {
			r.hostPeer[hi] = alive[hi]
		}
		r.mu.Unlock()
		return hosts, nil
	}
}

// openOne opens one shard session on peer pi, restored from blob (a host
// checkpoint or snapshot share) when it is non-nil, else fresh.
func (r *runShards) openOne(pi int, cfg runtime.Config, origins []int, blob []byte) (runtime.HostDriver, error) {
	var onNode []int
	for _, op := range cfg.Graph.Operators() {
		if cfg.OnNode[op.ID()] {
			onNode = append(onNode, op.ID())
		}
	}
	req := wire.ShardOpenRequest{
		Graph:      r.spec,
		GraphHash:  cfg.Graph.StructuralHash(),
		Platform:   cfg.Platform.Name,
		OnNode:     onNode,
		Nodes:      cfg.Nodes,
		Duration:   cfg.Duration,
		Seed:       cfg.Seed,
		Shards:     cfg.Shards,
		Origins:    origins,
		ResumeHost: blob,
	}
	var open *wire.ShardOpenResponse
	err := retryRPC(r.ctx, r.c.retry, r.c.urls[pi], "open", func(ctx context.Context) error {
		resp, err := r.c.peers[pi].ShardOpen(ctx, req)
		open = resp
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("dist: open shard on %s: %w", r.c.urls[pi], err)
	}
	return &httpHost{
		ctx: r.ctx, client: r.c.peers[pi], url: r.c.urls[pi],
		session: open.Session, retry: r.c.retry,
	}, nil
}

// reopen is the DistRecovery.Reopen callback: host slot host died; mark
// its peer dead and re-open its origins on the next surviving peer from
// the blob the session kept for it (its checkpoint or snapshot share;
// nil = fresh), under the run's current cfg. The coordinator replays the
// window tail either way.
func (r *runShards) reopen(cfg runtime.Config, host int, origins []int, ckpt []byte) (runtime.HostDriver, error) {
	r.mu.Lock()
	failed := 0
	if host >= 0 && host < len(r.hostPeer) {
		failed = r.hostPeer[host]
		r.dead[failed] = true
	}
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
		d, err := r.openOne(pi, cfg, origins, ckpt)
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
// Arrival values and reduce contributions travel wire-marshaled, so every
// element round-trips bit-exactly: a window's arrivals as the binary
// records behind the compute body's JSON header, appended straight into
// one buffer the host reuses window after window, and reduce
// contributions base64 in the JSON reply. The plain float64 fields
// (ratio, busy seconds) are exact under JSON's shortest-round-trip
// encoding.
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
	retry   retryPolicy
	seq     int64 // window sequence: bumped per ComputeWindow, shared by its DeliverWindow
	// body is the compute body buffer, nil while a failed call may have
	// left it with the transport.
	body []byte
}

func (h *httpHost) rpc(op string, f func(ctx context.Context) error) error {
	return retryRPC(h.ctx, h.retry, h.url, op, f)
}

func (h *httpHost) ComputeWindow(arrivals []runtime.HostArrival) (*runtime.WindowReport, error) {
	h.seq++
	body, err := wire.AppendShardCompute(h.body[:0], &wire.ShardComputeRequest{
		Session: h.session, Window: h.seq, Arrivals: arrivals,
	})
	if err != nil {
		return nil, fmt.Errorf("dist: window %d does not encode: %w", h.seq, err)
	}
	// An attempt that failed may leave its transport still reading body
	// after the retry returns, so the buffer comes back only if none did.
	h.body = nil
	failed := false
	var rep *runtime.WindowReport
	err = h.rpc("compute", func(ctx context.Context) (err error) {
		rep, err = h.client.ShardComputeBody(ctx, body)
		failed = failed || err != nil
		return err
	})
	if !failed {
		h.body = body
	}
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
