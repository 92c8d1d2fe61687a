package runtime

import (
	"fmt"
	"sort"

	"wishbone/internal/dataflow"
	"wishbone/internal/wire"
)

// A ShardHost executes one slice of a distributed simulation: the node
// phase and the server-side delivery for an assigned subset of origin
// nodes — an originHost over that subset, the same type a Session holds
// over every origin. What ShardHost adds is the wire side: it validates
// the arrivals a coordinator (DistSession) ships it, and splits each
// window's drained messages. ComputeWindow feeds the window's arrivals
// through the node simulators and returns the offered-air sum plus the
// window's reduce contributions; the host holds its non-reduce messages
// until the coordinator has priced the global delivery ratio and calls
// DeliverWindow. Per-origin independence (see
// shard.go) is what makes the split exact: a host's deliveries depend only
// on its own origins' message subsequences, and every global quantity the
// ratio depends on is an order-free integer sum.
type ShardHost struct {
	cfg     Config
	host    *originHost
	pos     []int // node → position in host.origins, -1 when not owned
	sources map[*dataflow.Operator]bool

	// buf holds each origin's arrivals for the window, by position. win is
	// the window's storage, one node shard per origin; win.out is what the
	// host holds — the window's non-reduce messages, awaiting the ratio.
	buf [][]arrival
	win *windowBufs

	// res is the host's partial Result: the send-side counters as windows
	// accrue them and, after a checkpoint restore
	// (RestoreShardHostCheckpoint), the dead predecessor's delivery-side
	// counters, which this host reports as its own at Close on top of what
	// its plan collects — unlike a full-session restore, where the
	// coordinator carries them (RestoreShardHost zeroes counters).
	res    Result
	closed bool
}

// HostArrival is one arrival routed to a shard host, with the source
// operator named by ID (the coordinator and host hold separate Graph
// instances of the same structure).
type HostArrival struct {
	Node   int
	Time   float64
	Source int
	Value  dataflow.Value
}

// The records a host answers with are the /v1/shard protocol's own
// (internal/wire), so a remote driver hands the coordinator what it decoded
// and a server what its host returned, neither copying field by field.
type (
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
// subset of [0, cfg.Nodes).
func NewShardHost(cfg Config, origins []int) (*ShardHost, error) {
	if err := validateConfig(&cfg); err != nil {
		return nil, err
	}
	if !shardable(&cfg) {
		return nil, fmt.Errorf("runtime: partition has global server state; it cannot be distributed by origin")
	}
	if len(origins) == 0 {
		return nil, fmt.Errorf("runtime: shard host needs at least one origin")
	}
	h := &ShardHost{
		cfg:     cfg,
		pos:     make([]int, cfg.Nodes),
		sources: make(map[*dataflow.Operator]bool),
		buf:     make([][]arrival, len(origins)),
	}
	origins = append([]int(nil), origins...)
	sort.Ints(origins)
	for n := range h.pos {
		h.pos[n] = -1
	}
	for i, n := range origins {
		if n < 0 || n >= cfg.Nodes {
			return nil, fmt.Errorf("runtime: origin %d outside [0,%d)", n, cfg.Nodes)
		}
		if h.pos[n] >= 0 {
			return nil, fmt.Errorf("runtime: origin %d assigned twice", n)
		}
		h.pos[n] = i
	}
	host, err := newOriginHost(&h.cfg, origins)
	if err != nil {
		return nil, err
	}
	h.host = host
	for _, src := range cfg.Graph.Sources() {
		h.sources[src] = true
	}
	h.win = newWindowBufs(len(origins), len(host.plan.shards))
	return h, nil
}

// owns reports whether node is one of this host's origins.
func (h *ShardHost) owns(node int) bool {
	return node >= 0 && node < len(h.pos) && h.pos[node] >= 0
}

// ComputeWindow runs one window's arrivals (owned origins only, per-node
// nondecreasing time) through the node simulators. Non-reduce messages
// are held for DeliverWindow; reduce-edge elements return to the
// coordinator as contributions to the global aggregation rounds.
func (h *ShardHost) ComputeWindow(span float64, arrivals []HostArrival) (*WindowReport, error) {
	if h.closed {
		return nil, fmt.Errorf("runtime: ComputeWindow on a closed ShardHost")
	}
	if len(h.win.out) > 0 {
		return nil, fmt.Errorf("runtime: ComputeWindow before the previous window's DeliverWindow")
	}
	for _, a := range arrivals {
		if !h.owns(a.Node) {
			return nil, fmt.Errorf("runtime: arrival for origin %d not owned by this host: %w", a.Node, ErrBadArrival)
		}
		src := h.cfg.Graph.ByID(a.Source)
		if src == nil || !h.sources[src] {
			return nil, fmt.Errorf("runtime: arrival source %d is not a source of the graph: %w", a.Source, ErrBadArrival)
		}
		i := h.pos[a.Node]
		h.buf[i] = append(h.buf[i], arrival{t: a.Time, src: src, v: a.Value})
	}
	win := h.win
	if err := h.host.feedPooled(win, h.buf); err != nil {
		return nil, err
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
	win.msgs = h.host.nodes.drain(&h.res, win.msgs[:0])
	held := win.out[:0]
	for i := range win.msgs {
		m := &win.msgs[i]
		if !reduceEdge(&h.cfg, m.edge) {
			held = append(held, *m)
			continue
		}
		data, err := wire.Marshal(m.value)
		if err != nil {
			return nil, fmt.Errorf("runtime: reduce element on %s→%s does not marshal: %w",
				m.edge.From, m.edge.To, err)
		}
		rep.Reduce = append(rep.Reduce, ReduceMsg{
			Node: m.nodeID, Edge: h.host.eidx[m.edge], Time: m.time,
			Packets: m.packets, Data: data,
		})
	}
	rep.Air, win.msgs = sortByTime(held, win.msgs)
	win.out = held
	rep.Held = len(held)
	if len(held) == 0 {
		win.reset()
	}
	return rep, nil
}

// DeliverWindow replays the held messages at the coordinator's priced
// ratio. A host whose window held nothing may be skipped — the call is
// then a no-op.
func (h *ShardHost) DeliverWindow(ratio float64) error {
	if h.closed {
		return fmt.Errorf("runtime: DeliverWindow on a closed ShardHost")
	}
	if len(h.win.out) == 0 {
		return nil
	}
	h.host.plan.partition(h.win.out, h.win.parts)
	err := h.host.plan.deliverParts(h.win.parts, ratio)
	h.win.reset()
	return err
}

// Close releases the host's instances and returns its partial counters.
func (h *ShardHost) Close() (*HostResult, error) {
	if h.closed {
		return nil, fmt.Errorf("runtime: Close on a closed ShardHost")
	}
	if len(h.win.out) > 0 {
		return nil, fmt.Errorf("runtime: Close with a window awaiting DeliverWindow")
	}
	h.closed = true
	defer h.release()
	res := h.res
	busy := h.host.nodes.tally(&res)
	h.host.plan.collect(&res)
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

func (h *ShardHost) release() {
	h.host.release()
	h.win.releaseArenas()
}
