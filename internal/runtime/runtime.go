// Package runtime executes a partitioned Wishbone program over a simulated
// deployment: N embedded nodes running the node partition against sensor
// traces, a shared radio channel (internal/netsim), and a server running
// the server partition — including the per-node state tables that emulate
// relocated stateful operators (§2.1.1).
//
// It measures the quantities of Figures 9 and 10: the fraction of input
// events the node CPU managed to process (missed events are dropped at the
// source while the depth-first traversal of a previous event is still
// running, §5.2), the fraction of radio messages received, and their
// product — the goodput, "the percentage of sample data that was fully
// processed to produce output" (§7.3.1).
//
// # Execution
//
// Every run's node stage is one piece of code: a nodeSim per mote on a
// compiled dataflow.Instance, fed under one recovery (nodeSim.feed) and
// merged in node order (nodeSims.drain). Streaming runs hold the nodes in
// an originHost (host.go) — a Session over every origin, a ShardHost over
// its subset. Batch Run adds its own instance economy (runNodes): shards
// Recycle one pinned Instance across their nodes, and when every node is
// offered the identical trace (Figures 9 and 10 driven with a shared
// recording) the node phase runs once and its message stream is replayed
// per node — node-side execution is a pure function of (program, partition,
// platform, arrivals); dataflow.Ctx.NodeID says what that asks of work
// functions. The server partition is a second compiled instance with a
// precomputed relocated-operator table. The executable definition of the
// semantics is the tree-walking dataflow.Executor; the package's tests
// drive a whole deployment through it (RunReference, export_test.go).
//
// The server-side delivery loop shards by origin node (Config.Shards,
// shard.go): state tables, reassembly streams and the packet-loss RNG are
// all per-origin, so shard counters sum to a byte-identical Result at any
// shard count. Streaming ingestion (Config.ArrivalSource or the Session
// push API, stream.go) simulates hours-long traces in bounded windows of
// memory.
package runtime

import (
	"fmt"
	"time"

	"wishbone/internal/cost"
	"wishbone/internal/dataflow"
	"wishbone/internal/netsim"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/wire"
)

// reasmKey identifies one node's stream on one cut edge for reassembly.
type reasmKey struct {
	node int
	edge *dataflow.Edge
}

// Config describes one deployment run.
type Config struct {
	// Graph is the application; OnNode the partition assignment (operator
	// ID → node side).
	Graph  *dataflow.Graph
	OnNode map[int]bool

	// Platform prices node-side CPU and provides the radio.
	Platform *platform.Platform

	// Nodes is the number of embedded nodes (each runs a replica of the
	// node partition).
	Nodes int

	// Duration is the simulated time span in seconds.
	Duration float64

	// RateScale multiplies every input's base rate (1.0 = full rate).
	RateScale float64

	// Inputs supplies each node's sensor traces. The Rate field of each
	// input is its base (unscaled) event rate.
	Inputs func(nodeID int) []profile.Input

	// Seed drives packet-loss sampling.
	Seed int64

	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int

	// NodeProgram and ServerProgram optionally supply the two partitions
	// precompiled (CompilePartition). The multi-tenant partition service
	// passes cached Programs here so repeated simulations of one
	// (graph, partition) pair skip compilation entirely; Programs are
	// immutable, so one pair serves concurrent Runs. Both must have been
	// compiled from Graph with an Include set matching OnNode — Run
	// verifies and rejects mismatches.
	//
	// Batched feed and delivery follow the Programs: a side compiled with
	// batch tables (CompileOptions.Batch, as CompilePartition and the
	// Programs Run compiles itself are) takes the node-phase passthrough
	// fast path and batched server delivery; a side compiled without runs
	// the per-element loop. Results are byte-identical either way.
	NodeProgram   *dataflow.Program
	ServerProgram *dataflow.Program

	// Shards splits the server-side delivery loop into independent
	// per-origin-node shards executed on the worker pool (see shard.go).
	// 0 or 1 means sequential delivery. Results are byte-identical at any
	// shard and worker count; sharding requires work functions that are
	// safe to run concurrently across origins (the node-side pool already
	// requires the same). Ignored by partitions with a stateful
	// Server-namespace operator (whose single global state forces
	// sequential delivery).
	Shards int

	// ArrivalSource switches Run to streaming ingestion: instead of
	// materializing every node's arrival sequence (Inputs), arrivals are
	// pulled lazily per node and fed through persistent node instances
	// and server shards in WindowSeconds-sized windows, so a deployment
	// hours long simulates in memory proportional to one window. Each
	// window's delivery ratio reflects that window's offered load. Inputs
	// is ignored when set.
	ArrivalSource func(nodeID int) (Stream, error)

	// WindowSeconds is the streaming ingestion window in simulated
	// seconds; 0 means 10.
	WindowSeconds float64

	// MaxBufferedArrivals bounds how many arrivals a streaming Session
	// may hold for the window in progress; 0 means the built-in cap.
	// Exceeding it fails the Offer with ErrBackpressure — the partition
	// service maps that to 429 so one tenant's firehose cannot occupy a
	// job slot with an ever-growing window buffer.
	MaxBufferedArrivals int

	// Timings, when non-nil, accumulates per-stage wall-clock for the run
	// (node compute vs server delivery) — the instrumentation behind the
	// stage benchmarks. It does not influence the Result.
	Timings *StageTimings

	// Scenario injects failure models into the run (netsim.Scenario):
	// node churn drops a crashed node's arrivals at the source, and
	// Gilbert–Elliott bursts multiply each window's priced delivery
	// ratio. Both models are pure functions of their seeds, so scenario
	// runs stay byte-identical across placements, shard and worker
	// counts, and snapshot/resume. Scenario runs always
	// execute on the streaming path (Feed adapts Inputs per node when
	// no ArrivalSource is set).
	Scenario *netsim.Scenario
}

// Result reports a deployment run.
type Result struct {
	InputEvents     int // events offered at sensors, all nodes
	ProcessedEvents int // events fully processed by node CPUs
	MsgsSent        int // radio packets offered to the channel
	MsgsReceived    int // radio packets delivered
	PayloadBytes    int // application payload offered, bytes
	DeliveredBytes  int // application payload delivered, bytes
	ServerEmits     int // elements emitted by server sink-feeding operators

	// OfferedAirBytesPerSec is the aggregate on-air load; DeliveryRatio the
	// channel's resulting delivery probability.
	OfferedAirBytesPerSec float64
	DeliveryRatio         float64

	// NodeCPU is the measured busy fraction of the node CPU (averaged over
	// nodes), including the platform's OS overhead — the number the paper
	// compares against profiling's prediction for the Gumstix (§7.3.1).
	NodeCPU float64
}

// PercentInputProcessed returns 100·processed/offered.
func (r *Result) PercentInputProcessed() float64 {
	if r.InputEvents == 0 {
		return 0
	}
	return 100 * float64(r.ProcessedEvents) / float64(r.InputEvents)
}

// PercentMsgsReceived returns 100·received/sent (100 when nothing was sent).
func (r *Result) PercentMsgsReceived() float64 {
	if r.MsgsSent == 0 {
		return 100
	}
	return 100 * float64(r.MsgsReceived) / float64(r.MsgsSent)
}

// Goodput returns the percentage of input events fully processed AND
// delivered — the product of the two loss stages (§7.3.1).
func (r *Result) Goodput() float64 {
	return r.PercentInputProcessed() * r.PercentMsgsReceived() / 100
}

// message is one cut-edge element in flight. Elements whose type the wire
// codec supports travel as real marshalled fragments (§3's generated
// marshal/unmarshal code); other types fall back to size-accurate abstract
// packets.
type message struct {
	time    float64
	nodeID  int
	edge    *dataflow.Edge
	value   dataflow.Value
	frags   [][]byte // nil for abstract messages
	packets int
	air     int
}

// arrival is one sensor event offered to a node.
type arrival struct {
	t   float64
	src *dataflow.Operator
	v   dataflow.Value
}

// Run simulates the deployment.
func Run(cfg Config) (*Result, error) {
	if err := validateConfig(&cfg); err != nil {
		return nil, err
	}
	if cfg.ArrivalSource == nil && cfg.Inputs == nil {
		return nil, fmt.Errorf("runtime: need Inputs (or ArrivalSource for streaming)")
	}
	if cfg.ArrivalSource != nil || cfg.Scenario != nil {
		// Failure models are windowed phenomena (churn gates arrivals in
		// time, bursts price per window), so a scenario run executes on
		// the streaming path even when the caller supplied batch Inputs
		// (Feed adapts them per node).
		return runStream(cfg)
	}
	runStart := time.Now()
	scale := cfg.RateScale
	if scale <= 0 {
		scale = 1
	}

	// Gather every node's inputs once, and build arrival sequences.
	inputs := make([][]profile.Input, cfg.Nodes)
	arrivals := make([][]arrival, cfg.Nodes)
	for n := 0; n < cfg.Nodes; n++ {
		inputs[n] = cfg.Inputs(n)
		if len(inputs[n]) == 0 {
			return nil, fmt.Errorf("runtime: node %d has no inputs", n)
		}
		a, err := buildArrivals(inputs[n], scale, cfg.Duration)
		if err != nil {
			return nil, err
		}
		arrivals[n] = a
	}

	// --- Node side ---------------------------------------------------
	// Fragment storage carved by the senders lives until delivery ends;
	// the arenas recycle into the process-wide pool when the run's
	// messages are dead.
	var arenas []*fragArena
	defer func() {
		for _, a := range arenas {
			releaseArena(a)
		}
	}()
	nodes, arenas, err := runNodes(cfg, inputs, arrivals)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	total := 0
	for _, ns := range nodes {
		total += len(ns.s.msgs)
	}
	msgs := nodes.drain(res, make([]message, 0, total))
	for _, nb := range nodes.tally(res) {
		res.NodeCPU += nb.Busy
	}
	res.NodeCPU /= cfg.Duration * float64(cfg.Nodes)

	// --- In-network aggregation (§9) -----------------------------------
	// Messages produced by a node-resident reduce operator are combined
	// inside the collection tree: the root link carries one aggregate per
	// round instead of one message per node.
	aggArena := acquireArena()
	arenas = append(arenas, aggArena)
	msgs = aggregateReduceMessages(cfg, msgs, res, aggArena)

	// --- Channel -------------------------------------------------------
	totalAir := 0
	for _, m := range msgs {
		totalAir += m.air
	}
	res.OfferedAirBytesPerSec = float64(totalAir) / cfg.Duration
	ch := netsim.ChannelFor(cfg.Platform)
	ratio := ch.DeliveryRatio(res.OfferedAirBytesPerSec)
	res.DeliveryRatio = ratio
	if cfg.Timings != nil {
		cfg.Timings.addNode(time.Since(runStart))
	}

	// --- Server side -----------------------------------------------------
	// Delivery is sharded by origin node (shard.go): per-origin state
	// tables, reassembly streams and loss RNGs are independent (§2.1.1),
	// so the shards' summed counters are byte-identical to the sequential
	// loop at any Shards/Workers setting.
	plan, err := newDeliveryPlan(&cfg)
	if err != nil {
		return nil, err
	}
	deliverStart := time.Now()
	// msgs is already time-sorted: aggregateReduceMessages sorts its
	// output (each origin's subsequence stays in emission order either
	// way, which is all delivery needs).
	if err := plan.deliver(msgs, ratio); err != nil {
		plan.close()
		return nil, err
	}
	plan.collect(res)
	if cfg.Timings != nil {
		cfg.Timings.addDelivery(time.Since(deliverStart))
		cfg.Timings.addWall(time.Since(runStart))
	}
	return res, nil
}

// validateConfig checks the fields shared by the batch and streaming
// paths.
func validateConfig(cfg *Config) error {
	if cfg.Graph == nil || cfg.OnNode == nil || cfg.Platform == nil {
		return fmt.Errorf("runtime: incomplete config")
	}
	if cfg.Nodes <= 0 || cfg.Duration <= 0 {
		return fmt.Errorf("runtime: need positive Nodes and Duration")
	}
	for _, src := range cfg.Graph.Sources() {
		if !cfg.OnNode[src.ID()] {
			return fmt.Errorf("runtime: source %s not in the node partition (§4.2.1 pins sources to the node)", src)
		}
	}
	if err := cfg.Scenario.Validate(); err != nil {
		return err
	}
	return nil
}

// buildArrivals merges a node's input traces into one time-sorted arrival
// sequence (ties keep input order, so synchronized sensors interleave
// deterministically).
func buildArrivals(inputs []profile.Input, scale, duration float64) ([]arrival, error) {
	// Size the sequence up front (one allocation instead of append
	// growth): each input contributes one event per period below the
	// duration — an estimate only, the loop below remains authoritative.
	est := 0
	for _, in := range inputs {
		if r := in.Rate * scale; r > 0 {
			est += int(duration*r) + 1
		}
	}
	arrivals := make([]arrival, 0, est)
	for _, in := range inputs {
		rate := in.Rate * scale
		if rate <= 0 {
			return nil, fmt.Errorf("runtime: input with non-positive rate")
		}
		if len(in.Events) == 0 {
			return nil, fmt.Errorf("runtime: input source %s has an empty trace", in.Source)
		}
		period := 1 / rate
		for i := 0; ; i++ {
			t := float64(i) * period
			if t >= duration {
				break
			}
			ev := in.Events[i%len(in.Events)]
			arrivals = append(arrivals, arrival{t: t, src: in.Source, v: ev})
		}
	}
	sortRuns(arrivals, nil, func(a, b *arrival) bool { return a.t < b.t })
	return arrivals, nil
}

// sender captures one node's boundary crossings as in-flight messages with
// the radio's framing, tallying send-side accounting.
type sender struct {
	cfg     *Config
	nodeID  int
	curTime float64

	// seqs numbers this node's cut-edge elements for fragmentation, one
	// contiguous counter per edge — the receiver reassembles (and
	// dedupes by sequence) per (node, edge) stream, and a counter shared
	// across edges would leave per-edge gaps whose 16-bit wrap can alias
	// a stale partial with a fresh same-count element (the same bug
	// class aggregate.go fixes for aggregates). Each counter still wraps
	// after 65535 elements on its own edge — reached within the first
	// hour of a 20 events/s stream, so long exactly the traces streaming
	// ingestion enables — but with contiguous numbering a stale partial
	// survives only until the edge's very next element, so aliasing
	// additionally needs 65535 consecutive total losses; the Reassembler
	// also discards a stale partial whose fragment count disagrees (see
	// wire.Reassembler.Offer). The long-trace regression test drives a
	// stream through several wraps.
	seqs map[*dataflow.Edge]uint16

	// arena supplies fragment storage (see fragArena); a sender without one
	// allocates per message. enc is the marshal scratch buffer, reused
	// across captures (fragmentation copies out of it either way).
	arena *fragArena
	enc   []byte

	// times, when non-nil, is the arrival-time schedule of an in-flight
	// batched source injection (the passthrough fast path): element i of
	// the batch arrived at times[i]. Fan-out delivers a batch in element
	// order on every cut edge, so each edge advances its own cursor to
	// recover per-element timestamps — byte-identical to injecting the
	// elements one at a time.
	times []float64
	tcur  map[*dataflow.Edge]int

	msgs         []message
	msgsSent     int
	payloadBytes int
}

// capture is the Boundary hook: marshal (or abstract-package) one cut-edge
// element at the current simulation time.
func (s *sender) capture(e *dataflow.Edge, v dataflow.Value) {
	if s.times != nil {
		s.curTime = s.times[s.tcur[e]]
		s.tcur[e]++
	}
	radio := s.cfg.Platform.Radio
	m := message{time: s.curTime, nodeID: s.nodeID, edge: e, value: v}
	if enc, err := wire.AppendMarshal(s.enc[:0], v); err == nil && radio.PacketPayload > 4 {
		s.enc = enc
		if s.seqs == nil {
			s.seqs = make(map[*dataflow.Edge]uint16)
		}
		s.seqs[e]++
		if frags, err := fragment(s.arena, enc, s.seqs[e], radio.PacketPayload); err == nil {
			m.frags = frags
			m.packets = len(frags)
			for _, f := range frags {
				m.air += len(f) + radio.PacketOverhead
			}
		}
	}
	if m.frags == nil {
		// Abstract fallback for element types without generated
		// marshalling code.
		payload := dataflow.WireSize(v)
		pkts, air := radio.PacketsFor(payload)
		if pkts == 0 {
			pkts, air = 1, payload+radio.PacketOverhead // even empty elements cost a packet
		}
		m.packets, m.air = pkts, air
	}
	s.msgs = append(s.msgs, m)
	s.msgsSent += m.packets
	s.payloadBytes += dataflow.WireSize(v)
}

// beginBatch and endBatch bracket one batched source injection: times
// holds the batch's per-element arrival schedule and every cut edge's
// cursor restarts at element 0.
func (s *sender) beginBatch(times []float64) {
	s.times = times
	if s.tcur == nil {
		s.tcur = make(map[*dataflow.Edge]int)
	} else {
		for k := range s.tcur {
			delete(s.tcur, k)
		}
	}
}

func (s *sender) endBatch() { s.times = nil }

// fragment packetizes one encoded element, carving the fragment storage
// from the arena when one is attached (the hot path) and allocating per
// message otherwise.
func fragment(arena *fragArena, enc []byte, seq uint16, payloadSize int) ([][]byte, error) {
	if arena == nil {
		return wire.Fragment(enc, seq, payloadSize)
	}
	count, total, err := wire.FragmentSpan(len(enc), payloadSize)
	if err != nil {
		return nil, err
	}
	return wire.FragmentTo(enc, seq, payloadSize, arena.bytes(total), arena.frags(count))
}

// nodeSim models one node's non-reentrant depth-first runtime: while an
// event is being processed, newly arriving events are missed (§5.2's
// source buffering is one element deep in the TinyOS runtime; sustained
// overload drops input). The busy horizon and accounting persist across
// feed calls, so the streaming Session carries one nodeSim per node
// across ingestion windows; the batch path feeds a whole trace once.
type nodeSim struct {
	counter   *cost.Counter
	s         *sender
	inject    func(src *dataflow.Operator, v dataflow.Value)
	busyUntil float64

	// injectBatch, when non-nil, enables the passthrough fast path: the
	// node partition has no work functions (e.g. a cut directly after the
	// sources), so every event costs zero node CPU, none can be missed,
	// and whole runs of same-source arrivals inject as one batch. The
	// sender stamps per-element times from the batch schedule, keeping
	// the message stream byte-identical to the per-element path.
	injectBatch func(src *dataflow.Operator, vs []dataflow.Value)
	vals        []dataflow.Value
	times       []float64

	inputEvents     int
	processedEvents int
	busy            float64
}

// feed offers one batch of time-ordered arrivals. It is the one place a
// node-side work function runs, on whichever goroutine the caller chose,
// so it is where a work-function panic — a mistyped value, a wscript abort,
// a wvm budget trip — becomes an error instead of killing the process.
func (ns *nodeSim) feed(cfg *Config, arrivals []arrival) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = workPanicError(r, fmt.Sprintf("node %d", ns.s.nodeID))
		}
	}()
	if ns.injectBatch != nil {
		ns.feedPassthrough(arrivals)
		return nil
	}
	for _, a := range arrivals {
		ns.inputEvents++
		if a.t < ns.busyUntil {
			continue // CPU still busy: input event missed
		}
		ns.s.curTime = a.t
		ns.counter.Reset()
		ns.inject(a.src, a.v)
		dt := cfg.Platform.Seconds(ns.counter) * cfg.Platform.OSOverhead
		ns.busyUntil = a.t + dt
		ns.busy += dt
		ns.processedEvents++
	}
	return nil
}

// feedPassthrough injects runs of consecutive same-source arrivals as
// batches. Work-free partitions charge nothing to the counter, so dt is
// identically zero: busyUntil never advances past an arrival and every
// event is processed.
func (ns *nodeSim) feedPassthrough(arrivals []arrival) {
	for start := 0; start < len(arrivals); {
		src := arrivals[start].src
		end := start + 1
		for end < len(arrivals) && arrivals[end].src == src {
			end++
		}
		vals, times := ns.vals[:0], ns.times[:0]
		for _, a := range arrivals[start:end] {
			vals = append(vals, a.v)
			times = append(times, a.t)
		}
		ns.s.beginBatch(times)
		ns.injectBatch(src, vals)
		ns.s.endBatch()
		clear(vals)
		ns.vals, ns.times = vals[:0], times
		ns.inputEvents += end - start
		ns.processedEvents += end - start
		start = end
	}
	if n := len(arrivals); n > 0 {
		ns.s.curTime = arrivals[n-1].t
		ns.busyUntil = arrivals[n-1].t
	}
}

// runNodes is the batch node stage: it compiles the node partition once,
// executes the replicas through dataflow.Instances and returns every
// node's fed simulator in node order — with an instance economy of its own
// rather than an originHost's pooled Instance per origin. Identical
// replicas — every node offered the same trace — are simulated once and
// their deterministic message streams replicated; distinct replicas run
// sharded by origin on a bounded worker pool: shard s owns nodes n ≡ s
// (mod shards) — the same origin partition the delivery loop uses — and
// recycles one pinned Instance and one fragment arena across them instead
// of round-tripping the Program pool per node. The returned arenas hold
// the senders' fragment storage; the caller releases them once delivery
// is done, error or not.
func runNodes(cfg Config, inputs [][]profile.Input, arrivals [][]arrival) (nodeSims, []*fragArena, error) {
	prog, err := resolveProgram(&cfg, true)
	if err != nil {
		return nil, nil, err
	}
	passthrough := passthroughPartition(&cfg, prog)
	out := make(nodeSims, cfg.Nodes)

	if identicalTraces(inputs) {
		// Node-side simulation is a deterministic function of (program,
		// platform, arrivals): with identical traces every replica
		// produces the same events, times and marshalled fragments, so
		// simulate node 0 and restamp its message stream per node (the
		// replicas alias node 0's fragment storage, which delivery only
		// reads). dataflow.Ctx.NodeID states what this asks of work
		// functions.
		arenas := []*fragArena{acquireArena()}
		inst := prog.AcquireInstance(0)
		counter := &cost.Counter{}
		inst.SetCounter(counter)
		out[0] = newNodeSim(&cfg, inst, counter, 0, passthrough)
		out[0].s.arena = arenas[0]
		err := out[0].feed(&cfg, arrivals[0])
		prog.ReleaseInstance(inst)
		for n := 1; n < cfg.Nodes && err == nil; n++ {
			ns, snd := *out[0], *out[0].s
			snd.nodeID = n
			snd.msgs = append([]message(nil), snd.msgs...)
			for i := range snd.msgs {
				snd.msgs[i].nodeID = n
			}
			ns.s = &snd
			out[n] = &ns
		}
		return out, arenas, err
	}

	shards := cfg.Nodes
	if cfg.Shards > 1 && cfg.Shards < shards {
		shards = cfg.Shards
	}
	arenas := make([]*fragArena, shards)
	errs := make([]error, shards)
	runPool(poolWorkers(&cfg, shards), shards, func(s int) {
		arenas[s] = acquireArena()
		inst := prog.AcquireInstance(s)
		defer prog.ReleaseInstance(inst)
		counter := &cost.Counter{}
		inst.SetCounter(counter)
		for n := s; n < cfg.Nodes && errs[s] == nil; n += shards {
			inst.Recycle(n) // pristine per-node state, counter kept, no pool round-trip
			out[n] = newNodeSim(&cfg, inst, counter, n, passthrough)
			out[n].s.arena = arenas[s]
			errs[s] = out[n].feed(&cfg, arrivals[n])
		}
	})
	return out, arenas, firstError(errs)
}

// CompilePartition compiles the two sides of a partitioned deployment
// exactly as Run would: the node Program includes operators with
// onNode[id] true, the server Program the rest, neither with counting
// options. Both sides carry batch dispatch tables (Permissive — the
// runtime emulates permissive relocation, so a relocated stateful node
// operator batches on the server exactly as it would on the node); a
// batch-capable operator still executes per element unless fed a batch.
// The returned Programs are immutable and may be shared across any number
// of concurrent Runs via Config.NodeProgram/ServerProgram — the partition
// service's program cache holds exactly these.
func CompilePartition(g *dataflow.Graph, onNode map[int]bool) (node, server *dataflow.Program, err error) {
	if node, err = compileSide(g, onNode, true); err != nil {
		return nil, nil, err
	}
	if server, err = compileSide(g, onNode, false); err != nil {
		return nil, nil, err
	}
	return node, server, nil
}

// compileSide compiles one side of the cut: the operators with onNode[id]
// equal to nodeSide.
func compileSide(g *dataflow.Graph, onNode map[int]bool, nodeSide bool) (*dataflow.Program, error) {
	return dataflow.Compile(g, dataflow.CompileOptions{
		Include: func(op *dataflow.Operator) bool { return onNode[op.ID()] == nodeSide },
		Batch:   true, BatchMode: dataflow.Permissive,
	})
}

// passthroughPartition reports whether the node phase may take the batched
// fast path: prog (the resolved node Program) carries batch tables and the
// node partition contains no work functions at all — sources and forwarding
// operators only, as with a cut directly after the sources. Such partitions
// charge nothing to the node CPU, which is what licenses the fast path.
func passthroughPartition(cfg *Config, prog *dataflow.Program) bool {
	if !prog.Options().Batch {
		return false
	}
	for _, op := range cfg.Graph.Operators() {
		if cfg.OnNode[op.ID()] && op.Work != nil {
			return false
		}
	}
	return true
}

// checkPartitionProgram verifies a caller-supplied precompiled Program
// against the run's graph and partition: same graph, matching include
// set, and no counting instrumentation (counting programs reject
// SetCounter, which the node side requires, and would skew the server
// side).
func checkPartitionProgram(p *dataflow.Program, cfg *Config, nodeSide bool) error {
	side := "server"
	if nodeSide {
		side = "node"
	}
	if p.Graph() != cfg.Graph {
		return fmt.Errorf("runtime: %s program was compiled from a different graph", side)
	}
	opts := p.Options()
	if opts.CountOps || opts.MeasureEdges {
		return fmt.Errorf("runtime: %s program carries profiling instrumentation", side)
	}
	for _, op := range cfg.Graph.Operators() {
		want := cfg.OnNode[op.ID()] == nodeSide
		if p.Included(op) != want {
			return fmt.Errorf("runtime: %s program disagrees with OnNode at %s", side, op)
		}
	}
	return nil
}

// identicalTraces reports whether every node was offered the very same
// inputs (same sources, same rates, same backing event arrays). Equality is
// by identity, not by value — only aliased traces are treated as shared.
func identicalTraces(inputs [][]profile.Input) bool {
	base := inputs[0]
	for _, ins := range inputs[1:] {
		if len(ins) != len(base) {
			return false
		}
		for i := range ins {
			a, b := &base[i], &ins[i]
			if a.Source != b.Source || a.Rate != b.Rate || len(a.Events) != len(b.Events) {
				return false
			}
			if len(a.Events) > 0 && &a.Events[0] != &b.Events[0] {
				return false
			}
		}
	}
	return true
}

// serverEngine abstracts the basestation-side executor: deliver one decoded
// cut-edge element — or one origin's run of same-edge elements — with the
// origin node's relocated state swapped in.
type serverEngine interface {
	deliver(m *message, val dataflow.Value) error
	deliverBatch(nodeID int, e *dataflow.Edge, vals []dataflow.Value) error
	emits() int
	close()
}

// compiledServer executes the server partition as a compiled instance. The
// relocated stateful operators (§2.1.1) are precomputed at compile time, so
// swapping in a message's origin-node state touches only those operators
// instead of scanning the whole graph per message. One compiled Program
// serves every shard; each shard gets its own Instance (recycled through
// the Program's pool).
type compiledServer struct {
	prog      *dataflow.Program
	inst      *dataflow.Instance
	relocated []*dataflow.Operator
	states    map[int]map[int]any // opID → nodeID → state
}

func newCompiledServer(cfg *Config, prog *dataflow.Program) serverEngine {
	srv := &compiledServer{
		prog:   prog,
		inst:   prog.AcquireInstance(AggregateOrigin),
		states: make(map[int]map[int]any),
	}
	for _, id := range prog.StatefulOps() {
		op := cfg.Graph.ByID(id)
		if op.NS == dataflow.NSNode {
			// Relocated node operator: per-node state table.
			srv.relocated = append(srv.relocated, op)
			srv.states[id] = make(map[int]any)
		}
	}
	return srv
}

func (srv *compiledServer) deliver(m *message, val dataflow.Value) error {
	srv.swapStates(m.nodeID)
	return srv.inst.Push(m.edge.To, m.edge.ToPort, val)
}

// deliverBatch pushes one origin's run of same-edge elements in one
// scheduler pass: the relocated-state swap happens once for the run and
// batch-capable operators dispatch their BatchWork.
func (srv *compiledServer) deliverBatch(nodeID int, e *dataflow.Edge, vals []dataflow.Value) error {
	srv.swapStates(nodeID)
	return srv.inst.PushBatch(e.To, e.ToPort, vals)
}

// swapStates points every relocated stateful operator at the origin
// node's state table entry (§2.1.1).
func (srv *compiledServer) swapStates(nodeID int) {
	for _, op := range srv.relocated {
		tbl := srv.states[op.ID()]
		st, ok := tbl[nodeID]
		if !ok {
			st = op.NewState()
			tbl[nodeID] = st
		}
		srv.inst.SetState(op, st)
	}
}

func (srv *compiledServer) emits() int { return int(srv.inst.Traversals()) }

func (srv *compiledServer) close() {
	srv.prog.ReleaseInstance(srv.inst)
	srv.inst = nil
}

// PredictedNodeCPU prices the node partition from a profile report: the
// prediction the paper compares against measurement (11.5% vs 15% on the
// Gumstix).
func PredictedNodeCPU(rep *profile.Report, p *platform.Platform, onNode map[int]bool, rateScale float64) float64 {
	costs := rep.CPUCosts(p)
	var cpu float64
	for id, on := range onNode {
		if on {
			cpu += costs[id].Mean
		}
	}
	return cpu * rateScale
}
