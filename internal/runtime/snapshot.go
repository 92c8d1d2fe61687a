package runtime

import (
	"fmt"
	"sort"

	"wishbone/internal/dataflow"
	"wishbone/internal/netsim"
	"wishbone/internal/wire"
)

// Serializable simulation state. A streaming Session (and a distributed
// ShardHost, which reuses the same pieces) can be frozen at a window
// boundary into a versioned byte snapshot and restored in a fresh process
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

func (st *ShardState) save(w *wire.SnapshotWriter) {
	w.Int(int64(st.MsgsReceived))
	w.Int(int64(st.DeliveredBytes))
	w.Int(int64(st.ServerEmits))
	w.Uvarint(uint64(len(st.Origins)))
	for i := range st.Origins {
		o := &st.Origins[i]
		w.Int(int64(o.Origin))
		w.Uvarint(o.Draws)
		w.Uvarint(uint64(len(o.Streams)))
		for _, es := range o.Streams {
			w.Uvarint(uint64(es.Edge))
			w.Blob(es.Data)
		}
		saveOpStates(w, o.Ops)
	}
	saveOpStates(w, st.Server)
}

func loadShardState(r *wire.SnapshotReader) *ShardState {
	st := &ShardState{
		MsgsReceived:   int(r.Int()),
		DeliveredBytes: int(r.Int()),
		ServerEmits:    int(r.Int()),
	}
	st.Origins = make([]OriginState, r.Count(4))
	for i := range st.Origins {
		o := &st.Origins[i]
		o.Origin = int(r.Int())
		o.Draws = r.Uvarint()
		o.Streams = make([]EdgeStream, r.Count(2))
		for j := range o.Streams {
			o.Streams[j].Edge = int(r.Uvarint())
			o.Streams[j].Data = append([]byte(nil), r.Blob()...)
		}
		o.Ops = loadOpStates(r)
	}
	st.Server = loadOpStates(r)
	return st
}

func saveOpStates(w *wire.SnapshotWriter, ops []OpState) {
	w.Uvarint(uint64(len(ops)))
	for _, os := range ops {
		w.Uvarint(uint64(os.Op))
		w.Blob(os.Data)
	}
}

func loadOpStates(r *wire.SnapshotReader) []OpState {
	ops := make([]OpState, r.Count(2))
	for i := range ops {
		ops[i].Op = int(r.Uvarint())
		ops[i].Data = append([]byte(nil), r.Blob()...)
	}
	return ops
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
	for _, sh := range d.shards {
		srv, ok := sh.engine.(*compiledServer)
		if !ok {
			return nil, fmt.Errorf("runtime: snapshot requires the compiled engine")
		}
		st.MsgsReceived += sh.res.MsgsReceived
		st.DeliveredBytes += sh.res.DeliveredBytes
		st.ServerEmits += sh.engine.emits()
		for id, sam := range sh.rng {
			originOf(id).Draws = sam.DrawCount()
		}
		for key, re := range sh.reasm {
			w := wire.NewSnapshotWriter()
			re.SaveSnapshot(w)
			originOf(key.node).Streams = append(originOf(key.node).Streams,
				EdgeStream{Edge: eidx[key.edge], Data: w.Bytes()})
		}
		for opID, tbl := range srv.states {
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
			data, err := saveOperatorState(op, srv.inst.State(op))
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
			r, err := wire.NewSnapshotReader(es.Data)
			if err != nil {
				return err
			}
			re := &wire.Reassembler{}
			if err := re.LoadSnapshot(r); err != nil {
				return err
			}
			sh.reasm[reasmKey{node: o.Origin, edge: edges[es.Edge]}] = re
		}
		if len(o.Ops) > 0 {
			srv, ok := sh.engine.(*compiledServer)
			if !ok {
				return fmt.Errorf("runtime: restore requires the compiled engine")
			}
			for _, os := range o.Ops {
				op, state, err := loadOpState(cfg, os)
				if err != nil {
					return err
				}
				tbl := srv.states[os.Op]
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
		srv, ok := d.shards[0].engine.(*compiledServer)
		if !ok {
			return fmt.Errorf("runtime: restore requires the compiled engine")
		}
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
	side.inputEvents, side.processedEvents = int64(ns.inputEvents), int64(ns.processedEvents)
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
		ae := aggEdgeSnap{edge: eidx[e], flushed: int64(a.flushed[e]), seq: a.seq[e]}
		for _, c := range a.counts[e] {
			ae.counts = append(ae.counts, int64(c))
		}
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

// Snapshot freezes the session at its current window boundary and returns
// the versioned byte encoding. The call is terminal: the window still
// delivering is joined, pooled instances and arenas are released, and the
// session is closed — continuing the run means ResumeSession in this or
// any other process.
// Arrivals buffered for the window in progress are part of the snapshot,
// so callers may snapshot at any point between Offers; internally the
// persistent state is always window-aligned.
//
// The resumed run's Results are byte-identical to the uninterrupted one
// at any Shards/Workers setting on either side.
func (s *Session) Snapshot() ([]byte, error) {
	if s.closed {
		return nil, fmt.Errorf("runtime: Snapshot on a closed Session")
	}
	// Fail before committing to teardown: a hook-less graph leaves the
	// session usable (the caller can still Close normally).
	if err := checkSnapshotable(&s.cfg); err != nil {
		return nil, err
	}
	s.closed = true
	defer s.release()
	if err := s.joinDelivery(); err != nil {
		return nil, err
	}
	cfg := &s.cfg
	snap := &sessionSnap{}
	if err := s.capture(snap); err != nil {
		return nil, err
	}
	if err := s.host.captureSides(snap.perNode); err != nil {
		return nil, err
	}
	st, err := s.host.plan.snapshotState(cfg)
	if err != nil {
		return nil, err
	}
	snap.shard = st
	return encodeSessionSnap(snap), nil
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
	return encodeSessionSnap(snap), nil
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
	inputEvents, processedEvents int64
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
	counts  []int64
	flushed int64
	seq     uint16
	pending []pendSnap
}

type pendSnap struct {
	present bool
	time    float64
	blob    []byte
}

// decodeNodeSide reads one node side into its decoded form.
func decodeNodeSide(r *wire.SnapshotReader, nEdges int) (nodeSnap, error) {
	var ns nodeSnap
	ns.busyUntil = r.F64()
	ns.busy = r.F64()
	ns.inputEvents = r.Int()
	ns.processedEvents = r.Int()
	ns.seqs = make([]seqSnap, r.Count(3))
	for i := range ns.seqs {
		ns.seqs[i].edge = int(r.Uvarint())
		ns.seqs[i].seq = r.U16()
		if err := r.Err(); err != nil {
			return ns, err
		}
		if ns.seqs[i].edge < 0 || ns.seqs[i].edge >= nEdges {
			return ns, fmt.Errorf("runtime: snapshot sender sequence on edge %d of %d", ns.seqs[i].edge, nEdges)
		}
	}
	ns.ops = loadOpStates(r)
	return ns, r.Err()
}

// encodeNodeSide writes one node side.
func encodeNodeSide(w *wire.SnapshotWriter, ns *nodeSnap) {
	w.F64(ns.busyUntil)
	w.F64(ns.busy)
	w.Int(ns.inputEvents)
	w.Int(ns.processedEvents)
	w.Uvarint(uint64(len(ns.seqs)))
	for _, se := range ns.seqs {
		w.Uvarint(uint64(se.edge))
		w.U16(se.seq)
	}
	saveOpStates(w, ns.ops)
}

// applyNodeSnap loads a decoded node side into a live simulator/instance
// pair.
func applyNodeSnap(cfg *Config, prog *dataflow.Program, snap *nodeSnap, ns *nodeSim, inst *dataflow.Instance) error {
	edges := cfg.Graph.Edges()
	ns.busyUntil = snap.busyUntil
	ns.busy = snap.busy
	ns.inputEvents = int(snap.inputEvents)
	ns.processedEvents = int(snap.processedEvents)
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

func decodeSessionSnap(g *dataflow.Graph, data []byte) (*sessionSnap, error) {
	r, err := wire.NewSnapshotReader(data)
	if err != nil {
		return nil, err
	}
	snap := &sessionSnap{}
	snap.hash = r.String()
	if snap.hash != g.StructuralHash() {
		return nil, fmt.Errorf("runtime: snapshot is of a different graph (structural hash mismatch)")
	}
	snap.onNode = make([]int, r.Count(1))
	for i := range snap.onNode {
		snap.onNode[i] = int(r.Uvarint())
	}
	snap.platform = r.String()
	snap.nodes = int(r.Int())
	snap.duration = r.F64()
	snap.seed = r.Int()
	snap.window = r.F64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if snap.nodes <= 0 || snap.nodes > 1<<20 {
		return nil, fmt.Errorf("runtime: snapshot node count %d", snap.nodes)
	}

	snap.lastTime = r.F64()
	snap.windowStart = r.F64()
	snap.lastSpan = r.F64()
	snap.peakBuffered = int(r.Int())
	snap.totalAir = int(r.Int())
	snap.ratioFirst = r.F64()
	snap.ratioAir = r.F64()
	snap.ratioUniform = r.Bool()
	snap.sawWindow = r.Bool()
	for _, c := range snap.res.counters() {
		*c = int(r.Int())
	}
	if err := r.Err(); err != nil {
		return nil, err
	}

	nEdges := len(g.Edges())
	// perNode grows as sides decode rather than being sized from the header's
	// node count, which no length prefix ties to the bytes that follow.
	for n := 0; n < snap.nodes; n++ {
		side, err := decodeNodeSide(r, nEdges)
		if err != nil {
			return nil, err
		}
		side.arrivals = make([]arrivalSnap, r.Count(10))
		for i := range side.arrivals {
			side.arrivals[i].t = r.F64()
			side.arrivals[i].src = int(r.Uvarint())
			side.arrivals[i].blob = append([]byte(nil), r.Blob()...)
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		snap.perNode = append(snap.perNode, side)
	}

	snap.agg = make([]aggEdgeSnap, r.Count(6))
	for i := range snap.agg {
		ae := &snap.agg[i]
		ae.edge = int(r.Uvarint())
		if err := r.Err(); err != nil {
			return nil, err
		}
		if ae.edge < 0 || ae.edge >= nEdges {
			return nil, fmt.Errorf("runtime: snapshot aggregator edge %d of %d", ae.edge, nEdges)
		}
		ae.counts = make([]int64, r.Count(1))
		for j := range ae.counts {
			ae.counts[j] = r.Int()
		}
		ae.flushed = r.Int()
		ae.seq = r.U16()
		ae.pending = make([]pendSnap, r.Count(1))
		for j := range ae.pending {
			p := &ae.pending[j]
			p.present = r.Bool()
			if !p.present {
				continue
			}
			p.time = r.F64()
			p.blob = append([]byte(nil), r.Blob()...)
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
	}

	snap.shard = loadShardState(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if !r.Done() {
		return nil, fmt.Errorf("runtime: trailing bytes after session snapshot")
	}
	return snap, nil
}

func encodeSessionSnap(snap *sessionSnap) []byte {
	w := wire.NewSnapshotWriter()
	w.String(snap.hash)
	w.Uvarint(uint64(len(snap.onNode)))
	for _, id := range snap.onNode {
		w.Uvarint(uint64(id))
	}
	w.String(snap.platform)
	w.Int(int64(snap.nodes))
	w.F64(snap.duration)
	w.Int(snap.seed)
	w.F64(snap.window)

	w.F64(snap.lastTime)
	w.F64(snap.windowStart)
	w.F64(snap.lastSpan)
	w.Int(int64(snap.peakBuffered))
	w.Int(int64(snap.totalAir))
	w.F64(snap.ratioFirst)
	w.F64(snap.ratioAir)
	w.Bool(snap.ratioUniform)
	w.Bool(snap.sawWindow)
	for _, c := range snap.res.counters() {
		w.Int(int64(*c))
	}

	for n := range snap.perNode {
		ns := &snap.perNode[n]
		encodeNodeSide(w, ns)
		w.Uvarint(uint64(len(ns.arrivals)))
		for _, a := range ns.arrivals {
			w.F64(a.t)
			w.Uvarint(uint64(a.src))
			w.Blob(a.blob)
		}
	}

	w.Uvarint(uint64(len(snap.agg)))
	for i := range snap.agg {
		ae := &snap.agg[i]
		w.Uvarint(uint64(ae.edge))
		w.Uvarint(uint64(len(ae.counts)))
		for _, c := range ae.counts {
			w.Int(c)
		}
		w.Int(ae.flushed)
		w.U16(ae.seq)
		w.Uvarint(uint64(len(ae.pending)))
		for _, p := range ae.pending {
			if !p.present {
				w.Bool(false)
				continue
			}
			w.Bool(true)
			w.F64(p.time)
			w.Blob(p.blob)
		}
	}

	snap.shard.save(w)
	return w.Bytes()
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
		counts := make([]int, len(ae.counts))
		for j, c := range ae.counts {
			counts[j] = int(c)
		}
		a.counts[e] = counts
		a.flushed[e] = int(ae.flushed)
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

// ResumeSession rebuilds a Session from a Snapshot. cfg must describe the
// same run (graph structure, cut, platform, nodes, duration, seed,
// window); the placement knobs — Shards, Workers — are free,
// because the snapshot's layout is placement-independent.
func ResumeSession(cfg Config, data []byte) (*Session, error) {
	if err := checkSnapshotable(&cfg); err != nil {
		return nil, err
	}
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.restore(data); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

func (s *Session) restore(data []byte) error {
	cfg := &s.cfg
	snap, err := decodeSessionSnap(cfg.Graph, data)
	if err != nil {
		return err
	}
	if err := s.apply(snap); err != nil {
		return err
	}
	if err := s.host.applySides(snap.perNode); err != nil {
		return err
	}
	return s.host.plan.restoreState(cfg, snap.shard)
}
