package runtime

import (
	"fmt"
	"sort"

	"wishbone/internal/cost"
	"wishbone/internal/dataflow"
	"wishbone/internal/wire"
)

// A ShardHost executes one slice of a distributed simulation: the node
// phase and the server-side delivery for an assigned subset of origin
// nodes. The coordinator (DistSession) drives it window by window:
// ComputeWindow feeds the window's arrivals through the host's node
// simulators and returns the offered-air sum plus the window's reduce
// contributions; the host holds its non-reduce messages until the
// coordinator has priced the global delivery ratio and calls
// DeliverWindow. Per-origin independence (see shard.go) is what makes the
// split exact: a host's deliveries depend only on its own origins'
// message subsequences, and every global quantity the ratio depends on is
// an order-free integer sum.
type ShardHost struct {
	cfg     Config
	origins []int
	owned   map[int]bool
	prog    *dataflow.Program
	insts   map[int]*dataflow.Instance
	nodes   map[int]*nodeSim
	arenas  map[int]*fragArena
	plan    *deliveryPlan
	sources map[*dataflow.Operator]bool
	eidx    map[*dataflow.Edge]int

	held     []message // this window's non-reduce messages, awaiting the ratio
	buf      map[int][]arrival
	feedErrs []error // indexed by position in origins
	res      Result
	closed   bool

	// Delivery-side counters carried in from a checkpoint restore
	// (RestoreShardHostCheckpoint): the dead predecessor's accrued
	// MsgsReceived/DeliveredBytes/ServerEmits, which this host must
	// report as its own at Close — unlike a full-session restore, where
	// the coordinator carries them (RestoreShardHost zeroes counters).
	carriedRecv      int
	carriedDelivered int
	carriedEmits     int
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

// ReduceMsg is one element a host's node emitted on an in-network reduce
// edge. It joins the coordinator's global aggregation rounds — rounds
// combine contributions across every node, so they cannot fold host-
// locally. Value data travels wire-marshaled; the element type must
// round-trip exactly (every generated-codec type does).
type ReduceMsg struct {
	Node    int
	Edge    int // dense index into Graph.Edges()
	Time    float64
	Packets int
	Data    []byte
}

// WindowReport is a host's answer to ComputeWindow: what its origins
// offered to the channel this window.
type WindowReport struct {
	Held   int // non-reduce messages held for DeliverWindow
	Air    int // their offered air bytes (pre-aggregation)
	Reduce []ReduceMsg
}

// HostResult is a host's final contribution to the run Result: the
// integer counters sum order-free; per-node CPU seconds return keyed by
// node so the coordinator can sum them in global node order (float64
// addition order is part of byte-identity).
type HostResult struct {
	InputEvents     int
	ProcessedEvents int
	MsgsSent        int
	MsgsReceived    int
	PayloadBytes    int
	DeliveredBytes  int
	ServerEmits     int
	NodeBusy        []NodeBusy
}

// NodeBusy is one node's accumulated CPU-busy seconds.
type NodeBusy struct {
	Node int
	Busy float64
}

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
		cfg:      cfg,
		origins:  append([]int(nil), origins...),
		owned:    make(map[int]bool, len(origins)),
		insts:    make(map[int]*dataflow.Instance, len(origins)),
		nodes:    make(map[int]*nodeSim, len(origins)),
		arenas:   make(map[int]*fragArena, len(origins)),
		buf:      make(map[int][]arrival, len(origins)),
		feedErrs: make([]error, len(origins)),
	}
	sort.Ints(h.origins)
	for _, n := range h.origins {
		if n < 0 || n >= cfg.Nodes {
			return nil, fmt.Errorf("runtime: origin %d outside [0,%d)", n, cfg.Nodes)
		}
		if h.owned[n] {
			return nil, fmt.Errorf("runtime: origin %d assigned twice", n)
		}
		h.owned[n] = true
	}
	prog, err := resolveProgram(&h.cfg, true)
	if err != nil {
		return nil, err
	}
	h.prog = prog
	plan, err := newDeliveryPlan(&h.cfg)
	if err != nil {
		return nil, err
	}
	h.plan = plan
	h.sources = make(map[*dataflow.Operator]bool)
	for _, src := range cfg.Graph.Sources() {
		h.sources[src] = true
	}
	h.eidx = edgeIndexes(&h.cfg)
	passthrough := passthroughPartition(&h.cfg, prog)
	for _, n := range h.origins {
		inst := prog.AcquireInstance(n)
		counter := &cost.Counter{}
		inst.SetCounter(counter)
		snd := &sender{cfg: &h.cfg, nodeID: n, arena: acquireArena()}
		inst.Boundary = snd.capture
		h.insts[n] = inst
		h.arenas[n] = snd.arena
		ns := &nodeSim{counter: counter, s: snd, inject: inst.Inject}
		if passthrough {
			ns.injectBatch = inst.InjectBatch
		}
		h.nodes[n] = ns
	}
	return h, nil
}

// ComputeWindow runs one window's arrivals (owned origins only, per-node
// nondecreasing time) through the node simulators. Non-reduce messages
// are held for DeliverWindow; reduce-edge elements return to the
// coordinator as contributions to the global aggregation rounds.
func (h *ShardHost) ComputeWindow(span float64, arrivals []HostArrival) (*WindowReport, error) {
	if h.closed {
		return nil, fmt.Errorf("runtime: ComputeWindow on a closed ShardHost")
	}
	if len(h.held) > 0 {
		return nil, fmt.Errorf("runtime: ComputeWindow before the previous window's DeliverWindow")
	}
	for _, a := range arrivals {
		if !h.owned[a.Node] {
			return nil, fmt.Errorf("runtime: arrival for origin %d not owned by this host: %w", a.Node, ErrBadArrival)
		}
		src := h.cfg.Graph.ByID(a.Source)
		if src == nil || !h.sources[src] {
			return nil, fmt.Errorf("runtime: arrival source %d is not a source of the graph: %w", a.Source, ErrBadArrival)
		}
		h.buf[a.Node] = append(h.buf[a.Node], arrival{t: a.Time, src: src, v: a.Value})
	}
	for i := range h.feedErrs {
		h.feedErrs[i] = nil
	}
	runPool(poolWorkers(&h.cfg, len(h.origins)), len(h.origins), func(i int) {
		n := h.origins[i]
		if len(h.buf[n]) == 0 {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				h.feedErrs[i] = workPanicError(r, fmt.Sprintf("node %d", n))
			}
		}()
		h.nodes[n].feed(&h.cfg, h.buf[n])
	})
	for _, err := range h.feedErrs {
		if err != nil {
			return nil, err
		}
	}
	rep := &WindowReport{}
	held := h.held[:0]
	// Origins ascending, per-origin emit order: each origin's message
	// subsequence is exactly what the single-host merge produces for it.
	for _, n := range h.origins {
		ns := h.nodes[n]
		h.res.MsgsSent += ns.s.msgsSent
		h.res.PayloadBytes += ns.s.payloadBytes
		for i := range ns.s.msgs {
			m := ns.s.msgs[i]
			op := m.edge.From
			if op.Reduce && op.Combine != nil && h.cfg.OnNode[op.ID()] {
				// The send accounting stays as accrued: the coordinator's
				// aggregator undoes it (reduceAggregator.add) when the
				// contribution enters its round, exactly once globally.
				data, err := wire.Marshal(m.value)
				if err != nil {
					return nil, fmt.Errorf("runtime: reduce element on %s→%s does not marshal: %w",
						m.edge.From, m.edge.To, err)
				}
				rep.Reduce = append(rep.Reduce, ReduceMsg{
					Node: m.nodeID, Edge: h.eidx[m.edge], Time: m.time,
					Packets: m.packets, Data: data,
				})
				continue
			}
			held = append(held, m)
		}
		ns.s.msgs = ns.s.msgs[:0]
		ns.s.msgsSent, ns.s.payloadBytes = 0, 0
		h.buf[n] = h.buf[n][:0]
	}
	sort.SliceStable(held, func(i, j int) bool { return held[i].time < held[j].time })
	for i := range held {
		rep.Air += held[i].air
	}
	h.held = held
	rep.Held = len(held)
	if len(held) == 0 {
		h.resetWindow()
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
	if len(h.held) == 0 {
		return nil
	}
	err := h.plan.deliver(h.held, ratio)
	h.resetWindow()
	return err
}

// resetWindow recycles the window's arena storage once no held message
// can reference it.
func (h *ShardHost) resetWindow() {
	clearMessages(h.held)
	h.held = h.held[:0]
	for _, a := range h.arenas {
		a.reset()
	}
}

// Close releases the host's instances and returns its partial counters.
func (h *ShardHost) Close() (*HostResult, error) {
	if h.closed {
		return nil, fmt.Errorf("runtime: Close on a closed ShardHost")
	}
	if len(h.held) > 0 {
		return nil, fmt.Errorf("runtime: Close with a window awaiting DeliverWindow")
	}
	h.closed = true
	defer h.release()
	hr := &HostResult{
		MsgsSent:     h.res.MsgsSent,
		PayloadBytes: h.res.PayloadBytes,
	}
	for _, n := range h.origins {
		ns := h.nodes[n]
		hr.InputEvents += ns.inputEvents
		hr.ProcessedEvents += ns.processedEvents
		hr.NodeBusy = append(hr.NodeBusy, NodeBusy{Node: n, Busy: ns.busy})
	}
	var collected Result
	h.plan.collect(&collected)
	hr.MsgsReceived = h.carriedRecv + collected.MsgsReceived
	hr.DeliveredBytes = h.carriedDelivered + collected.DeliveredBytes
	hr.ServerEmits = h.carriedEmits + collected.ServerEmits
	return hr, nil
}

// Abort tears the host down without a result (error paths).
func (h *ShardHost) Abort() {
	if h.closed {
		return
	}
	h.closed = true
	h.release()
	h.plan.close()
}

func (h *ShardHost) release() {
	for _, n := range h.origins {
		h.prog.ReleaseInstance(h.insts[n])
		releaseArena(h.arenas[n])
	}
	h.insts, h.nodes, h.arenas = nil, nil, nil
}
