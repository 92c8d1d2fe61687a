package runtime

import (
	"fmt"
	"sort"

	"wishbone/internal/dataflow"
	"wishbone/internal/wire"
)

// A ShardHost executes one slice of a streaming simulation: the node
// phase and the server-side delivery for its origin nodes (host.go) —
// all of them in process, a subset each across hosts. It validates the
// arrivals its coordinator (a Session) ships it and splits each window's
// drained messages: ComputeWindow feeds the window's arrivals
// through the node simulators and returns the offered-air sum plus the
// window's reduce contributions; the host holds its non-reduce messages
// until the coordinator has priced the global delivery ratio and calls
// DeliverWindow. Per-origin independence (see shard.go) is what makes the
// split exact: a host's deliveries depend only on its own origins' message
// subsequences, and every global quantity the ratio depends on is an
// order-free integer sum. In process, arrivals and held messages stay
// values; only reduce contributions take the wire encoding.
type ShardHost struct {
	cfg     Config
	origins []int // ascending
	prog    *dataflow.Program
	insts   []*dataflow.Instance
	nodes   nodeSims
	plan    *deliveryPlan
	eidx    map[*dataflow.Edge]int
	pos     []int // node → position in origins, -1 when not owned
	sources map[*dataflow.Operator]bool

	// own marks the cut edges whose elements are arrivals themselves
	// (dataflow.InjectedEdges): a partial element one of them leaves
	// behind a window keeps its encoding in place of its value once the
	// window is delivered (shardState.ownPartials), because a session may
	// carve the arrival's storage again after that.
	own map[*dataflow.Edge]bool

	// global marks an unshardable partition (a stateful Server-namespace
	// operator): the host owns every origin, its plan also delivers the
	// coordinator's aggregates (deliver), and its snapshots carry
	// AggregateOrigin's row and the Server states.
	global bool

	// buf holds each origin's arrivals for the window, by position. The
	// window's storage is one node shard per origin — its feed error slot
	// — the drained messages (then sort scratch) in msgs, and in out what
	// the host holds: the window's non-reduce messages, awaiting the
	// ratio, split per delivery shard into parts. Steady state allocates
	// no message-slice storage.
	buf   [][]arrival
	errs  []error
	msgs  []message
	out   []message
	parts [][]message

	// res is the host's partial Result: the send-side counters as windows
	// accrue them and, after a restore (RestoreShardHost), the blob's
	// delivery-side counters, which this host reports as its own at Close
	// on top of what its plan collects. A checkpoint carries the dead
	// predecessor's; a snapshot share carries zeros, because the
	// coordinator restores the snapshot's counters.
	res    Result
	closed bool
	// err is the first window failure: every later call but Abort answers
	// with it, so no window runs on top of a failed one.
	err error
}

// The records a host reads and answers with are the /v1/shard protocol's
// own (internal/wire), so a remote driver hands the coordinator what it
// decoded and a server what its host returned, neither copying field by
// field.
type (
	// HostArrival is one arrival routed to a shard host, with the source
	// operator named by ID (the coordinator and host hold separate Graph
	// instances of the same structure).
	HostArrival = wire.ShardArrival

	// ReduceMsg is one element a host's node emitted on an in-network
	// reduce edge, wire-marshaled. Rounds combine contributions across
	// every node, so it folds at the coordinator, not host-locally.
	ReduceMsg = wire.ShardReduceWire

	// WindowReport is a host's answer to ComputeWindow: the non-reduce
	// messages Held for DeliverWindow, their offered Air bytes, and the
	// window's Reduce contributions.
	WindowReport = wire.ShardComputeResponse

	// HostResult is a host's final contribution to the run Result. The
	// integer counters sum order-free; NodeBusy is keyed by node so the
	// coordinator sums CPU seconds in global node order (float64 addition
	// order is part of byte-identity).
	HostResult = wire.ShardCloseResponse
	NodeBusy   = wire.NodeBusyWire
)

// NewShardHost builds the host side for the given origins. cfg must be
// the coordinator's exact Config (graph structure, cut, platform, nodes,
// duration, seed — Shards/Workers are per-host knobs); origins must be a
// subset of [0, cfg.Nodes) — all of it for a partition with global server
// state.
func NewShardHost(cfg Config, origins []int) (*ShardHost, error) {
	if err := validateConfig(&cfg); err != nil {
		return nil, err
	}
	h := &ShardHost{
		cfg:     cfg,
		pos:     make([]int, cfg.Nodes),
		sources: make(map[*dataflow.Operator]bool),
		buf:     make([][]arrival, len(origins)),
		global:  !shardable(&cfg),
	}
	if h.global && len(origins) != cfg.Nodes {
		return nil, fmt.Errorf("runtime: partition has global server state; it cannot be distributed by origin")
	}
	if len(origins) == 0 {
		return nil, fmt.Errorf("runtime: shard host needs at least one origin")
	}
	h.origins = append([]int(nil), origins...)
	sort.Ints(h.origins)
	for n := range h.pos {
		h.pos[n] = -1
	}
	for i, n := range h.origins {
		if n < 0 || n >= cfg.Nodes {
			return nil, fmt.Errorf("runtime: origin %d outside [0,%d)", n, cfg.Nodes)
		}
		if h.pos[n] >= 0 {
			return nil, fmt.Errorf("runtime: origin %d assigned twice", n)
		}
		h.pos[n] = i
	}
	prog, err := resolveProgram(&h.cfg, true)
	if err != nil {
		return nil, err
	}
	plan, err := newDeliveryPlan(&h.cfg)
	if err != nil {
		return nil, err
	}
	h.prog, h.plan, h.eidx = prog, plan, edgeIndexes(&h.cfg)
	for i, carries := range dataflow.InjectedEdges(cfg.Graph) {
		if e := cfg.Graph.Edges()[i]; carries && cfg.OnNode[e.From.ID()] && !cfg.OnNode[e.To.ID()] {
			if h.own == nil {
				h.own = make(map[*dataflow.Edge]bool)
			}
			h.own[e] = true
		}
	}
	h.acquireNodes()
	for _, src := range cfg.Graph.Sources() {
		h.sources[src] = true
	}
	h.errs = make([]error, len(h.origins))
	h.parts = make([][]message, len(plan.shards))
	return h, nil
}

// owns reports whether node is one of this host's origins.
func (h *ShardHost) owns(node int) bool {
	return node >= 0 && node < len(h.pos) && h.pos[node] >= 0
}

// usable fails a call on a closed host, or on one whose window failed.
func (h *ShardHost) usable(what string) error {
	if h.closed {
		return fmt.Errorf("runtime: %s on a closed ShardHost", what)
	}
	return h.err
}

// fail records a window failure and returns the first one recorded.
func (h *ShardHost) fail(err error) error {
	if h.err == nil {
		h.err = err
	}
	return h.err
}

// ComputeWindow runs one window's arrivals (owned origins only, per-node
// nondecreasing time) through the node simulators. Non-reduce messages
// are held for DeliverWindow; reduce-edge elements return to the
// coordinator as contributions to the global aggregation rounds.
func (h *ShardHost) ComputeWindow(arrivals []HostArrival) (*WindowReport, error) {
	if err := h.usable("ComputeWindow"); err != nil {
		return nil, err
	}
	if len(h.out) > 0 {
		return nil, fmt.Errorf("runtime: ComputeWindow before the previous window's DeliverWindow")
	}
	for _, a := range arrivals {
		if !h.owns(a.Node) {
			return nil, h.fail(fmt.Errorf("runtime: arrival for origin %d not owned by this host: %w", a.Node, ErrBadArrival))
		}
		src := h.cfg.Graph.ByID(a.Source)
		if src == nil || !h.sources[src] {
			return nil, h.fail(fmt.Errorf("runtime: arrival source %d is not a source of the graph: %w", a.Source, ErrBadArrival))
		}
		i := h.pos[a.Node]
		h.buf[i] = append(h.buf[i], arrival{t: a.Time, src: src, v: a.Value})
	}
	if err := h.feedPooled(); err != nil {
		return nil, h.fail(err)
	}
	for i := range h.buf {
		h.buf[i] = h.buf[i][:0]
	}
	// Origins ascending, per-origin emit order: each origin's message
	// subsequence is exactly what the single-host merge produces for it.
	// Reduce-edge elements leave for the coordinator; the rest are held.
	// Their send accounting stays as accrued: the coordinator's
	// aggregator undoes it (reduceAggregator.add) when the contribution
	// enters its round, exactly once globally.
	rep := &WindowReport{}
	h.msgs = h.nodes.drain(&h.res, h.msgs[:0])
	held := h.out[:0]
	for i := range h.msgs {
		m := &h.msgs[i]
		if !reduceEdge(&h.cfg, m.edge) {
			held = append(held, *m)
			continue
		}
		data, err := wire.Marshal(m.value)
		if err != nil {
			return nil, h.fail(fmt.Errorf("runtime: reduce element on %s→%s does not marshal: %w",
				m.edge.From, m.edge.To, err))
		}
		rep.Reduce = append(rep.Reduce, ReduceMsg{
			Node: m.nodeID, Edge: h.eidx[m.edge], Time: m.time,
			Packets: m.packets, Data: data,
		})
	}
	rep.Air, h.msgs = sortByTime(held, h.msgs)
	h.out = held
	rep.Held = len(held)
	if len(held) == 0 {
		h.resetWindow()
	}
	return rep, nil
}

// DeliverWindow replays the held messages at the coordinator's priced
// ratio. A host whose window held nothing may be skipped — the call is
// then a no-op.
func (h *ShardHost) DeliverWindow(ratio float64) error { return h.deliver(ratio, nil) }

// deliver is DeliverWindow with the coordinator's aggregates, on a global
// host, merged into the held messages' stable time sort: one order through
// one server instance (an aggregate sorts after a held message of equal
// time, as in the batch path).
func (h *ShardHost) deliver(ratio float64, aggs []message) error {
	if err := h.usable("DeliverWindow"); err != nil {
		return err
	}
	if len(aggs) > 0 {
		h.out = append(h.out, aggs...)
		_, h.msgs = sortByTime(h.out, h.msgs)
	}
	if len(h.out) == 0 {
		return nil
	}
	h.plan.partition(h.out, h.parts)
	err := h.plan.deliverParts(h.parts, ratio)
	for i := 0; err == nil && h.own != nil && i < len(h.plan.shards); i++ {
		err = h.plan.shards[i].ownPartials(h.own)
	}
	h.resetWindow()
	if err != nil {
		return h.fail(err)
	}
	return nil
}

// Close releases the host's instances and returns its partial counters.
func (h *ShardHost) Close() (*HostResult, error) {
	if err := h.usable("Close"); err != nil {
		return nil, err
	}
	if len(h.out) > 0 {
		return nil, fmt.Errorf("runtime: Close with a window awaiting DeliverWindow")
	}
	h.closed = true
	defer h.release()
	res := h.res
	busy := h.nodes.tally(&res)
	h.plan.collect(&res)
	return &HostResult{
		InputEvents:     res.InputEvents,
		ProcessedEvents: res.ProcessedEvents,
		MsgsSent:        res.MsgsSent,
		MsgsReceived:    res.MsgsReceived,
		PayloadBytes:    res.PayloadBytes,
		DeliveredBytes:  res.DeliveredBytes,
		ServerEmits:     res.ServerEmits,
		NodeBusy:        busy,
	}, nil
}

// Abort tears the host down without a result (error paths).
func (h *ShardHost) Abort() {
	if h.closed {
		return
	}
	h.closed = true
	h.release()
}
