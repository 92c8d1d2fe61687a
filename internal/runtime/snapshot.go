package runtime

import (
	"fmt"
	"slices"
	"sort"

	"wishbone/internal/dataflow"
	"wishbone/internal/netsim"
	"wishbone/internal/wire"
)

// Serializable simulation state. A streaming Session, with its ShardHosts,
// can be frozen at a window boundary (distsnapshot.go) into a versioned
// byte snapshot and restored in a fresh process
// — same or different host — with byte-identical continuation: the
// snapshot pins every accumulator that feeds the Result (including
// floating-point ones, saved bit-exact), every piece of cross-window
// state (operator states via the dataflow.Operator SaveState hooks,
// reassembler partials, loss-RNG positions, pending reduce rounds), and
// the buffered arrivals of the window in progress.
//
// The layout is placement-independent: per-origin server state is keyed
// by origin node, not by shard, so a snapshot taken at Shards=1 restores
// into a Shards=8 session (or a different host of a distributed run) and
// still produces the byte-identical Result — the same per-origin
// independence argument that makes sharded delivery exact in the first
// place (see shard.go).

// ShardState is the serializable server-side delivery state of a shard
// set: the per-origin reassembly streams, loss-sampler positions and
// relocated-operator states for every origin the set has seen, plus the
// carried delivery counters and — for unshardable partitions — the
// stateful Server-namespace operator states of the single shard engine.
type ShardState struct {
	MsgsReceived   int
	DeliveredBytes int
	ServerEmits    int
	Origins        []OriginState
	Server         []OpState
}

// OriginState is one origin's server-side state (origin AggregateOrigin
// carries the in-network aggregates' streams).
type OriginState struct {
	Origin  int
	Draws   uint64       // loss-sampler position in the origin's RNG stream
	Streams []EdgeStream // in-flight reassembler partials, by dense edge index
	Ops     []OpState    // relocated node-operator states (§2.1.1)
}

// EdgeStream is one (origin, edge) reassembly stream's partial element.
type EdgeStream struct {
	Edge int
	Data []byte
}

// OpState is one operator's serialized private state.
type OpState struct {
	Op   int
	Data []byte
}

// walk is the layout of a ShardState: the carried counters, then every
// origin's loss-sampler position, reassembly streams and relocated
// operator states, then the global Server states.
func (st *ShardState) walk(c *wire.Codec) {
	c.Int(&st.MsgsReceived)
	c.Int(&st.DeliveredBytes)
	c.Int(&st.ServerEmits)
	wire.Slice(c, &st.Origins, 4, func(c *wire.Codec, o *OriginState) {
		c.Int(&o.Origin)
		c.Uint64(&o.Draws)
		wire.Slice(c, &o.Streams, 2, func(c *wire.Codec, es *EdgeStream) {
			c.Uint(&es.Edge)
			c.Blob(&es.Data)
		})
		walkOpStates(c, &o.Ops)
	})
	walkOpStates(c, &st.Server)
}

// walkOpStates is the layout of a list of operator states: each one's
// operator ID and the blob its own LoadState hook reads.
func walkOpStates(c *wire.Codec, ops *[]OpState) {
	wire.Slice(c, ops, 2, func(c *wire.Codec, os *OpState) {
		c.Uint(&os.Op)
		c.Blob(&os.Data)
	})
}

// checkSnapshotable verifies every stateful operator in the graph carries
// snapshot hooks, so Snapshot and ResumeSession fail deterministically on
// the first call rather than only once some state happens to exist.
func checkSnapshotable(cfg *Config) error {
	for _, op := range cfg.Graph.Operators() {
		if op.Stateful && op.NewState != nil && (op.SaveState == nil || op.LoadState == nil) {
			return fmt.Errorf("runtime: operator %s is stateful but has no snapshot hooks (SaveState/LoadState); its graph cannot be snapshotted", op)
		}
	}
	return nil
}

// saveOperatorState runs one operator's SaveState hook, failing with the
// operator's name when the hook is missing — the caller's graph simply
// does not support snapshots until it grows one.
func saveOperatorState(op *dataflow.Operator, st any) ([]byte, error) {
	if op.SaveState == nil {
		return nil, fmt.Errorf("runtime: operator %s is stateful but has no SaveState hook; its graph cannot be snapshotted", op)
	}
	return op.SaveState(st)
}

// loadOpState resolves a serialized state's operator and runs its
// LoadState hook.
func loadOpState(cfg *Config, os OpState) (*dataflow.Operator, any, error) {
	op := cfg.Graph.ByID(os.Op)
	if op == nil {
		return nil, nil, fmt.Errorf("runtime: snapshot references operator %d", os.Op)
	}
	if op.LoadState == nil {
		return nil, nil, fmt.Errorf("runtime: operator %s has no LoadState hook", op)
	}
	state, err := op.LoadState(os.Data)
	return op, state, err
}

// snapshotState extracts the plan's serializable state. The plan must be
// quiescent (no delivery in flight) and compiled-engine.
func (d *deliveryPlan) snapshotState(cfg *Config) (*ShardState, error) {
	st := &ShardState{}
	origins := make(map[int]*OriginState)
	originOf := func(id int) *OriginState {
		o := origins[id]
		if o == nil {
			o = &OriginState{Origin: id}
			origins[id] = o
		}
		return o
	}
	eidx := edgeIndexes(cfg)
	var enc []byte // a lazy partial's encoding, reused across streams
	for _, sh := range d.shards {
		st.MsgsReceived += sh.res.MsgsReceived
		st.DeliveredBytes += sh.res.DeliveredBytes
		st.ServerEmits += sh.engine.emits()
		for id, sam := range sh.rng {
			originOf(id).Draws = sam.DrawCount()
		}
		for key, es := range sh.streams {
			var frame []byte
			var err error
			if frame, enc, err = es.save(enc, sh.payload); err != nil {
				return nil, err
			}
			originOf(key.node).Streams = append(originOf(key.node).Streams,
				EdgeStream{Edge: eidx[key.edge], Data: frame})
		}
		for opID, tbl := range sh.engine.states {
			op := cfg.Graph.ByID(opID)
			for nodeID, state := range tbl {
				data, err := saveOperatorState(op, state)
				if err != nil {
					return nil, err
				}
				originOf(nodeID).Ops = append(originOf(nodeID).Ops, OpState{Op: opID, Data: data})
			}
		}
		// Stateful Server-namespace operators (unshardable partitions run
		// exactly one shard, so this captures the single global state set).
		for _, op := range cfg.Graph.Operators() {
			if cfg.OnNode[op.ID()] || !op.Stateful || op.NewState == nil || op.NS != dataflow.NSServer {
				continue
			}
			data, err := saveOperatorState(op, sh.engine.inst.State(op))
			if err != nil {
				return nil, err
			}
			st.Server = append(st.Server, OpState{Op: op.ID(), Data: data})
		}
	}
	for _, o := range origins {
		st.Origins = append(st.Origins, *o)
	}
	st.canonicalize()
	return st, nil
}

// save encodes the stream's frame — the one wire.Reassembler.SaveSnapshot
// encodes for the equivalent reassembler — from the encoding ownPartials
// kept, or by marshalling a lazy partial's value into enc, which it
// returns grown for the next stream.
func (es *edgeStream) save(enc []byte, payload int) (frame, grown []byte, err error) {
	if es.re != nil {
		frame, err = es.re.SaveSnapshot()
		return frame, enc, err
	}
	part := es.enc
	if es.count > 0 && len(part) == 0 {
		if enc, err = wire.AppendMarshal(enc[:0], es.value); err != nil {
			return nil, enc, err
		}
		part = enc
	}
	frame, err = wire.SavePartialSnapshot(es.seq, es.count, part, payload, &es.have)
	return frame, enc, err
}

// loadEdgeStream restores a stream from its frame. A restored partial is
// bytes, not a value, so it stays in its Reassembler until the stream
// moves past it (shardState.receive).
func loadEdgeStream(data []byte) (*edgeStream, error) {
	re := &wire.Reassembler{}
	if err := re.LoadSnapshot(data); err != nil {
		return nil, err
	}
	st := &edgeStream{}
	if _, _, ok := re.Pending(); ok {
		st.re = re
	}
	return st, nil
}

// canonicalize puts the state in its serialized order — origins ascending,
// each origin's streams by edge and states by operator — which is what
// makes the bytes independent of map iteration and of placement.
func (st *ShardState) canonicalize() {
	for i := range st.Origins {
		o := &st.Origins[i]
		sort.Slice(o.Streams, func(a, b int) bool { return o.Streams[a].Edge < o.Streams[b].Edge })
		sort.Slice(o.Ops, func(a, b int) bool { return o.Ops[a].Op < o.Ops[b].Op })
	}
	sort.Slice(st.Origins, func(a, b int) bool { return st.Origins[a].Origin < st.Origins[b].Origin })
	sort.Slice(st.Server, func(a, b int) bool { return st.Server[a].Op < st.Server[b].Op })
}

// restoreState rebuilds a fresh plan's per-origin state from a snapshot.
// The carried counters (MsgsReceived, DeliveredBytes, ServerEmits) are NOT
// folded into the shards — exactly one caller must add them to its partial
// Result, since a snapshot may be split across several restoring plans
// (distributed placement) but its counters must be counted once.
func (d *deliveryPlan) restoreState(cfg *Config, st *ShardState) error {
	edges := cfg.Graph.Edges()
	for i := range st.Origins {
		o := &st.Origins[i]
		sh := d.shards[d.shardFor(o.Origin)]
		if o.Draws > 0 {
			sh.sampler(o.Origin).SeekTo(netsim.NodeSeed(cfg.Seed, o.Origin), o.Draws)
		}
		for _, es := range o.Streams {
			if es.Edge < 0 || es.Edge >= len(edges) {
				return fmt.Errorf("runtime: snapshot reassembly stream on edge %d of %d", es.Edge, len(edges))
			}
			st, err := loadEdgeStream(es.Data)
			if err != nil {
				return err
			}
			sh.streams[reasmKey{node: o.Origin, edge: edges[es.Edge]}] = st
		}
		if len(o.Ops) > 0 {
			for _, os := range o.Ops {
				op, state, err := loadOpState(cfg, os)
				if err != nil {
					return err
				}
				tbl := sh.engine.states[os.Op]
				if tbl == nil {
					return fmt.Errorf("runtime: snapshot state for %s, which is not relocated in this partition", op)
				}
				tbl[o.Origin] = state
			}
		}
	}
	if len(st.Server) > 0 {
		if len(d.shards) != 1 {
			return fmt.Errorf("runtime: snapshot carries global server state but the plan has %d shards", len(d.shards))
		}
		srv := d.shards[0].engine
		for _, os := range st.Server {
			op, state, err := loadOpState(cfg, os)
			if err != nil {
				return err
			}
			srv.inst.SetState(op, state)
		}
	}
	return nil
}

// edgeIndexes maps edge pointers to their dense index in Graph.Edges() —
// the portable edge naming every serialized frame uses.
func edgeIndexes(cfg *Config) map[*dataflow.Edge]int {
	edges := cfg.Graph.Edges()
	m := make(map[*dataflow.Edge]int, len(edges))
	for i, e := range edges {
		m[e] = i
	}
	return m
}

// captureNodeSide copies one node's simulator, sender sequence counters
// and stateful operator states into side (leaving side's buffered
// arrivals alone — those are the coordinator's). Operator states keep
// Program.StatefulOps order, sequences sort by dense edge index.
func captureNodeSide(cfg *Config, prog *dataflow.Program, eidx map[*dataflow.Edge]int,
	ns *nodeSim, inst *dataflow.Instance, side *nodeSnap) error {
	side.busyUntil, side.busy = ns.busyUntil, ns.busy
	side.inputEvents, side.processedEvents = ns.inputEvents, ns.processedEvents
	side.seqs = make([]seqSnap, 0, len(ns.s.seqs))
	for e, q := range ns.s.seqs {
		side.seqs = append(side.seqs, seqSnap{edge: eidx[e], seq: q})
	}
	sort.Slice(side.seqs, func(i, j int) bool { return side.seqs[i].edge < side.seqs[j].edge })
	ids := prog.StatefulOps()
	side.ops = make([]OpState, 0, len(ids))
	for _, id := range ids {
		op := cfg.Graph.ByID(id)
		data, err := saveOperatorState(op, inst.State(op))
		if err != nil {
			return err
		}
		side.ops = append(side.ops, OpState{Op: id, Data: data})
	}
	return nil
}

// captureAggregator copies the cross-window reduce-aggregation state: per
// edge (in deterministic first-seen order) the per-node round counts, the
// flush watermark, the fragmentation sequence, and every pending round's
// combined value.
func captureAggregator(a *reduceAggregator, eidx map[*dataflow.Edge]int) ([]aggEdgeSnap, error) {
	snaps := make([]aggEdgeSnap, 0, len(a.edgeOrder))
	for _, e := range a.edgeOrder {
		ae := aggEdgeSnap{edge: eidx[e], counts: slices.Clone(a.counts[e]), flushed: a.flushed[e], seq: a.seq[e]}
		for _, m := range a.pending[e] {
			if m == nil {
				ae.pending = append(ae.pending, pendSnap{})
				continue
			}
			enc, err := wire.Marshal(m.value)
			if err != nil {
				return nil, fmt.Errorf("runtime: pending aggregate on %s→%s does not marshal: %w",
					m.edge.From, m.edge.To, err)
			}
			ae.pending = append(ae.pending, pendSnap{present: true, time: m.time, blob: enc})
		}
		snaps = append(snaps, ae)
	}
	return snaps, nil
}

// MigrateSnapshot rewrites a Session snapshot taken on one cut into a
// snapshot valid for another cut of the same graph — the state-handoff
// step behind mid-stream re-partitioning (§2.1.1 relocation, live). The
// clock, Result accumulators, buffered arrivals and loss-RNG positions are
// cut-independent and carry over unchanged; everything keyed to the cut
// moves or resets:
//
//   - Stateful node operators that change sides carry their state with
//     them: node→server moves a node's private state into the origin's
//     relocated-state row; server→node moves each origin's row back into
//     that node's instance. Rows an engine never materialized stay absent
//     and re-initialize fresh on first touch — deterministically, the same
//     way a run that started on the new cut would.
//   - Sender sequence counters and in-flight reassembly partials survive
//     only on edges that are cut under both cuts. A newly cut edge starts
//     its sequence stream at zero; an edge no longer cut abandons its
//     partials (the fragments in flight belong to a link that no longer
//     exists).
//   - Pending reduce rounds survive only on edges still aggregated under
//     the new cut; abandoned rounds' contributions were already un-counted
//     when they entered the aggregator, so the books stay balanced.
//   - A relocated operator's AggregateOrigin state row (driven by
//     in-network aggregates) is dropped when the operator moves back onto
//     the nodes: per-node execution has no aggregate-origin row to map it
//     to.
//
// Stateful server-namespace operators cannot change sides: their state is
// global, not per-origin, so neither direction has a well-defined handoff.
//
// The migrated snapshot resumes through ResumeSession (or a distributed
// placement) with cfg.OnNode = newOnNode; Shards/Workers stay free. By construction, resuming it IS the run that "started on the new
// cut at that boundary" — the replan parity tests pin byte-identity
// between the in-place handoff and an external migrate+resume at any
// placement.
func MigrateSnapshot(g *dataflow.Graph, data []byte, newOnNode map[int]bool) ([]byte, error) {
	snap, err := decodeSessionSnap(g, data)
	if err != nil {
		return nil, err
	}
	oldOnNode := make(map[int]bool, len(snap.onNode))
	for _, id := range snap.onNode {
		oldOnNode[id] = true
	}
	for _, op := range g.Operators() {
		if oldOnNode[op.ID()] == newOnNode[op.ID()] {
			continue
		}
		if op.Stateful && op.NewState != nil && op.NS == dataflow.NSServer {
			return nil, fmt.Errorf("runtime: cannot migrate: stateful server-namespace operator %s changes sides", op)
		}
	}
	edges := g.Edges()
	// captured: the edge crosses the cut node→server, so its elements are
	// sequenced by the sender and reassembled server-side. aggregated:
	// additionally folded through in-network reduce rounds, which re-key
	// its streams and states to AggregateOrigin.
	captured := func(onNode map[int]bool, ei int) bool {
		e := edges[ei]
		return onNode[e.From.ID()] && !onNode[e.To.ID()]
	}
	aggregated := func(onNode map[int]bool, ei int) bool {
		e := edges[ei]
		return captured(onNode, ei) && e.From.Reduce && e.From.Combine != nil
	}

	// Node sides: filter sender sequences to still-cut edges; split each
	// node's operator states into stay-on-node vs relocate-to-server.
	relocating := make(map[int][]OpState) // origin → states moving node→server
	for n := range snap.perNode {
		ns := &snap.perNode[n]
		seqs := ns.seqs[:0]
		for _, se := range ns.seqs {
			if captured(newOnNode, se.edge) {
				seqs = append(seqs, se)
			}
		}
		ns.seqs = seqs
		keep := ns.ops[:0]
		for _, os := range ns.ops {
			if newOnNode[os.Op] {
				keep = append(keep, os)
			} else {
				relocating[n] = append(relocating[n], os)
			}
		}
		ns.ops = keep
	}

	// Origin states: filter reassembly streams by the new cut, move
	// relocated rows whose operator returns to the nodes back into the
	// node sides, then merge the freshly relocating states in.
	st := snap.shard
	byOrigin := make(map[int]*OriginState, len(st.Origins))
	for i := range st.Origins {
		o := st.Origins[i]
		var streams []EdgeStream
		for _, es := range o.Streams {
			if !captured(newOnNode, es.Edge) {
				continue
			}
			// Aggregated edges reassemble under AggregateOrigin, plain cut
			// edges under their contributor — a stream survives only where
			// the new cut still files it.
			if aggregated(newOnNode, es.Edge) != (o.Origin == AggregateOrigin) {
				continue
			}
			streams = append(streams, es)
		}
		o.Streams = streams
		var ops []OpState
		for _, os := range o.Ops {
			if !newOnNode[os.Op] {
				ops = append(ops, os)
				continue
			}
			if o.Origin == AggregateOrigin {
				continue // no per-node home for an aggregate-driven row
			}
			node := &snap.perNode[o.Origin]
			node.ops = append(node.ops, os)
		}
		o.Ops = ops
		cp := o
		byOrigin[o.Origin] = &cp
	}
	for n, states := range relocating {
		o := byOrigin[n]
		if o == nil {
			o = &OriginState{Origin: n}
			byOrigin[n] = o
		}
		o.Ops = append(o.Ops, states...)
	}
	st.Origins = st.Origins[:0]
	for _, o := range byOrigin {
		if o.Draws > 0 || len(o.Streams) > 0 || len(o.Ops) > 0 {
			st.Origins = append(st.Origins, *o)
		}
	}
	st.canonicalize()
	for n := range snap.perNode {
		ns := &snap.perNode[n]
		sort.Slice(ns.ops, func(a, b int) bool { return ns.ops[a].Op < ns.ops[b].Op })
	}

	// Aggregator: rounds survive only on edges still aggregated.
	aggEdges := snap.agg[:0]
	for _, ae := range snap.agg {
		if aggregated(newOnNode, ae.edge) {
			aggEdges = append(aggEdges, ae)
		}
	}
	snap.agg = aggEdges

	snap.onNode = onNodeIDs(g, newOnNode)
	return encodeSessionSnap(g, snap)
}

// sessionSnap is a Session snapshot held fully decoded — the working form
// MigrateSnapshot transforms. Field order mirrors Snapshot's encoding.
type sessionSnap struct {
	hash     string
	onNode   []int
	platform string
	nodes    int
	duration float64
	seed     int64
	window   float64

	windowClock
	res Result // the seven integer counters only

	perNode []nodeSnap
	agg     []aggEdgeSnap
	shard   *ShardState
}

// counters lists the Result's integer accumulators in snapshot order.
func (r *Result) counters() [7]*int {
	return [7]*int{&r.InputEvents, &r.ProcessedEvents, &r.MsgsSent, &r.MsgsReceived,
		&r.PayloadBytes, &r.DeliveredBytes, &r.ServerEmits}
}

type nodeSnap struct {
	busyUntil, busy              float64
	inputEvents, processedEvents int
	seqs                         []seqSnap
	ops                          []OpState
	arrivals                     []arrivalSnap
}

// Dense edge indexes in seqSnap and aggEdgeSnap are range-checked against
// the graph where they decode, so the apply side indexes Graph.Edges()
// with them directly.
type seqSnap struct {
	edge int
	seq  uint16
}

type arrivalSnap struct {
	t    float64
	src  int
	blob []byte
}

type aggEdgeSnap struct {
	edge    int
	counts  []int
	flushed int
	seq     uint16
	pending []pendSnap
}

type pendSnap struct {
	present bool
	time    float64
	blob    []byte
}

// walk is the layout of one node side: the simulator's busy horizon and
// event counters, the sender sequences by dense edge index (of nEdges),
// and the node's operator states. Arrivals are the session's to walk.
func (ns *nodeSnap) walk(c *wire.Codec, nEdges int) {
	c.F64(&ns.busyUntil)
	c.F64(&ns.busy)
	c.Int(&ns.inputEvents)
	c.Int(&ns.processedEvents)
	wire.Slice(c, &ns.seqs, 3, func(c *wire.Codec, se *seqSnap) {
		c.Uint(&se.edge)
		c.U16(&se.seq)
		if c.Err() == nil && (se.edge < 0 || se.edge >= nEdges) {
			c.Fail(fmt.Errorf("runtime: snapshot sender sequence on edge %d of %d", se.edge, nEdges))
		}
	})
	walkOpStates(c, &ns.ops)
}

// applyNodeSnap loads a decoded node side into a live simulator/instance
// pair.
func applyNodeSnap(cfg *Config, prog *dataflow.Program, snap *nodeSnap, ns *nodeSim, inst *dataflow.Instance) error {
	edges := cfg.Graph.Edges()
	ns.busyUntil = snap.busyUntil
	ns.busy = snap.busy
	ns.inputEvents = snap.inputEvents
	ns.processedEvents = snap.processedEvents
	if len(snap.seqs) > 0 {
		ns.s.seqs = make(map[*dataflow.Edge]uint16, len(snap.seqs))
		for _, se := range snap.seqs {
			ns.s.seqs[edges[se.edge]] = se.seq
		}
	}
	for _, os := range snap.ops {
		op, state, err := loadOpState(cfg, os)
		if err != nil {
			return err
		}
		if !prog.Included(op) {
			return fmt.Errorf("runtime: snapshot node state for operator %d outside the node partition", os.Op)
		}
		inst.SetState(op, state)
	}
	return nil
}

// walk is the layout of a session snapshot: run identity, clock and
// counters, every node's side and buffered arrivals, the reduce
// aggregator's edges, then the delivery state. Decoding checks the graph's
// structural hash, the node count and every dense edge index against g.
func (snap *sessionSnap) walk(c *wire.Codec, g *dataflow.Graph) {
	c.String(&snap.hash)
	if c.Decoding() && c.Err() == nil && snap.hash != g.StructuralHash() {
		c.Fail(fmt.Errorf("runtime: snapshot is of a different graph (structural hash mismatch)"))
	}
	wire.Slice(c, &snap.onNode, 1, (*wire.Codec).Uint)
	c.String(&snap.platform)
	c.Int(&snap.nodes)
	c.F64(&snap.duration)
	c.Int64(&snap.seed)
	c.F64(&snap.window)
	if c.Err() == nil && (snap.nodes <= 0 || snap.nodes > 1<<20) {
		c.Fail(fmt.Errorf("runtime: snapshot node count %d", snap.nodes))
	}

	c.F64(&snap.lastTime)
	c.F64(&snap.windowStart)
	c.F64(&snap.lastSpan)
	c.Int(&snap.peakBuffered)
	c.Int(&snap.totalAir)
	c.F64(&snap.ratioFirst)
	c.F64(&snap.ratioAir)
	c.Bool(&snap.ratioUniform)
	c.Bool(&snap.sawWindow)
	for _, p := range snap.res.counters() {
		c.Int(p)
	}

	nEdges := len(g.Edges())
	// The node sides are no counted section: their number is the header's
	// node count, which no length prefix ties to the bytes that follow, so
	// decoding grows perNode side by side instead of sizing it.
	for n := 0; n < snap.nodes && c.Err() == nil; n++ {
		if n == len(snap.perNode) {
			snap.perNode = append(snap.perNode, nodeSnap{})
		}
		side := &snap.perNode[n]
		side.walk(c, nEdges)
		wire.Slice(c, &side.arrivals, 10, func(c *wire.Codec, a *arrivalSnap) {
			c.F64(&a.t)
			c.Uint(&a.src)
			c.Blob(&a.blob)
		})
	}

	wire.Slice(c, &snap.agg, 6, func(c *wire.Codec, ae *aggEdgeSnap) {
		c.Uint(&ae.edge)
		if c.Err() == nil && (ae.edge < 0 || ae.edge >= nEdges) {
			c.Fail(fmt.Errorf("runtime: snapshot aggregator edge %d of %d", ae.edge, nEdges))
		}
		wire.Slice(c, &ae.counts, 1, (*wire.Codec).Int)
		c.Int(&ae.flushed)
		c.U16(&ae.seq)
		wire.Slice(c, &ae.pending, 1, func(c *wire.Codec, p *pendSnap) {
			c.Bool(&p.present)
			if p.present {
				c.F64(&p.time)
				c.Blob(&p.blob)
			}
		})
	})

	if snap.shard == nil {
		snap.shard = &ShardState{}
	}
	snap.shard.walk(c)
}

func decodeSessionSnap(g *dataflow.Graph, data []byte) (*sessionSnap, error) {
	snap := &sessionSnap{}
	if err := wire.Decode(data, func(c *wire.Codec) { snap.walk(c, g) }); err != nil {
		return nil, err
	}
	return snap, nil
}

func encodeSessionSnap(g *dataflow.Graph, snap *sessionSnap) ([]byte, error) {
	return wire.Encode(func(c *wire.Codec) { snap.walk(c, g) })
}

// check validates a decoded snapshot's run identity against a run Config:
// a snapshot is only valid for the cut, platform and simulation
// parameters that shaped every downstream byte (the graph's structural
// hash is checked at decode).
func (snap *sessionSnap) check(cfg *Config, window float64) error {
	saved := make(map[int]bool, len(snap.onNode))
	for _, id := range snap.onNode {
		saved[id] = true
	}
	for _, op := range cfg.Graph.Operators() {
		if cfg.OnNode[op.ID()] != saved[op.ID()] {
			return fmt.Errorf("runtime: snapshot is of a different cut (operator %s changed sides)", op)
		}
	}
	if snap.platform != cfg.Platform.Name {
		return fmt.Errorf("runtime: snapshot platform %q, config platform %q", snap.platform, cfg.Platform.Name)
	}
	if snap.nodes != cfg.Nodes {
		return fmt.Errorf("runtime: snapshot has %d nodes, config %d", snap.nodes, cfg.Nodes)
	}
	if snap.duration != cfg.Duration {
		return fmt.Errorf("runtime: snapshot duration %g, config %g", snap.duration, cfg.Duration)
	}
	if snap.seed != cfg.Seed {
		return fmt.Errorf("runtime: snapshot seed %d, config %d", snap.seed, cfg.Seed)
	}
	if snap.window != window {
		return fmt.Errorf("runtime: snapshot window %g, config %g", snap.window, window)
	}
	return nil
}

// restoreAggFromSnap loads decoded aggregator state into a live
// reduceAggregator.
func restoreAggFromSnap(cfg *Config, a *reduceAggregator, snaps []aggEdgeSnap) error {
	edges := cfg.Graph.Edges()
	for i := range snaps {
		ae := &snaps[i]
		e := edges[ae.edge]
		a.edgeOrder = append(a.edgeOrder, e)
		a.counts[e] = slices.Clone(ae.counts)
		a.flushed[e] = ae.flushed
		a.seq[e] = ae.seq
		pend := make([]*message, 0, len(ae.pending))
		for j := range ae.pending {
			p := &ae.pending[j]
			if !p.present {
				pend = append(pend, nil)
				continue
			}
			v, _, err := wire.Unmarshal(p.blob)
			if err != nil {
				return err
			}
			pend = append(pend, &message{time: p.time, nodeID: AggregateOrigin, edge: e, value: v})
		}
		a.pending[e] = pend
	}
	return nil
}
