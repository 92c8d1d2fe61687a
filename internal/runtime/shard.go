package runtime

import (
	"fmt"
	"runtime"
	"sync"

	"wishbone/internal/dataflow"
	"wishbone/internal/freelist"
	"wishbone/internal/netsim"
	"wishbone/internal/wire"
)

// The server-side delivery loop is sharded by origin node. Everything the
// loop touches is keyed by the message's origin: the relocated-operator
// state tables (§2.1.1), the per-(node, edge) reassembly streams, and —
// with netsim.NodeSeed — the packet-loss RNG. One origin's messages
// therefore produce the same receptions, decodes and server-side dataflow
// no matter how the other origins' messages interleave, so partitioning
// origins across shards and summing the per-shard counters is
// byte-identical to the sequential loop at any shard count and worker
// count (the batch schedules of schedule_test.go pin this against the
// reference engine at generated Shards/Workers).
//
// The one thing that breaks per-origin independence is a stateful operator
// declared in the Server namespace: its single state instance is fed by
// every node, so delivery order across origins matters. newDeliveryPlan
// detects that and falls back to one shard; results are unchanged either
// way, only the parallelism is lost.

// shardState is one delivery shard: a server engine plus the per-origin
// reception and loss-sampling state for the origins assigned to it. All
// counters that the delivery loop accumulates land in the shard's partial
// Result and are summed by deliveryPlan.collect.
type shardState struct {
	seed    int64
	payload int // the radio's packet payload, which fragments are cut to
	engine  *compiledServer
	streams map[reasmKey]*edgeStream
	rng     map[int]*netsim.LossSampler
	res     Result

	// batch enables batched delivery: the shard's messages are regrouped
	// by origin (per-origin time order preserved — per-origin independence
	// is exactly what makes the partition shardable, so regrouping across
	// origins cannot change the Result) and each origin's runs of
	// consecutive same-edge survivors flush through engine.deliverBatch in
	// one scheduler pass. order/groups/vals are the regrouping scratch,
	// reused across windows.
	batch  bool
	order  []int
	groups map[int][]int
	vals   []dataflow.Value
}

// samplers is the process's free list of LossSamplers (and their grown
// draw buffers), so a run's loss draws cost no allocation once a run of
// its size has warmed it up, whichever goroutine ran the last one and
// however many GC cycles passed since. A recycled sampler is Reseeded,
// which restarts its draw sequence exactly as construction would.
var samplers = freelist.List[*netsim.LossSampler]{Max: maxListedSamplers}

// maxListedSamplers bounds the samplers the process keeps: one per origin
// of a 128-mote deployment, ≈ 5 KB each (the source's state), so ≈ 640 KB
// at most. A wider run's extra samplers go to the GC when it ends.
const maxListedSamplers = 128

// sampler returns the loss sampler for one origin's stream, derived
// deterministically from (run seed, nodeID).
func (sh *shardState) sampler(nodeID int) *netsim.LossSampler {
	s := sh.rng[nodeID]
	if s == nil {
		var ok bool
		if s, ok = samplers.Get(); !ok {
			s = netsim.NewLossSampler(0)
		}
		s.Reseed(netsim.NodeSeed(sh.seed, nodeID))
		sh.rng[nodeID] = s
	}
	return s
}

// releaseSamplers returns the shard's samplers to the free list (end of
// run).
func (sh *shardState) releaseSamplers() {
	for id, s := range sh.rng {
		samplers.Put(s)
		delete(sh.rng, id)
	}
}

// deliver replays one batch of messages (each origin's subsequence in time
// order) against the shard's engine at the given delivery ratio. Packets
// are lost independently; an element is usable at the server only if every
// fragment survives, and the server processes what the basestation would
// decode (receive).
func (sh *shardState) deliver(msgs []message, ratio float64) (err error) {
	// Server-side work functions can run on pool goroutines against
	// client-supplied stream data; a panic there (wrong element type,
	// typically — e.g. a cut directly after the source delivers the raw
	// client value) must surface as an error, not kill the process, and
	// is classified as a bad arrival for the streaming endpoint.
	defer func() {
		if r := recover(); r != nil {
			err = workPanicError(r, "server")
		}
	}()
	if sh.batch {
		return sh.deliverBatched(msgs, ratio)
	}
	for i := range msgs {
		m := &msgs[i]
		val, ok, err := sh.receive(m, ratio)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		sh.res.DeliveredBytes += dataflow.WireSize(val)
		if err := sh.engine.deliver(m, val); err != nil {
			return err
		}
	}
	return nil
}

// edgeStream is the reception state of one (origin, edge) stream — what
// a wire.Reassembler fed the stream's surviving fragments would hold,
// kept by value. A partially received element is (seq, count, have,
// value): its number, fragment count, surviving fragment indexes and the
// sent value, whose encoding is the fragments' bytes — or, once
// ownPartials took it, that encoding itself (enc). re is the real
// Reassembler, set only while the bytes are observable (a restored
// partial, or one a wrapped sequence number aliased); the lazy fields are
// then unused.
type edgeStream struct {
	seq   uint16
	count int // 0: no partial element
	have  wire.FragmentMask
	value dataflow.Value
	enc   []byte // the partial's encoding when non-empty (ownPartials)
	re    *wire.Reassembler
}

// encoding returns the partial element's bytes: the copy ownPartials
// kept, or its value's encoding.
func (st *edgeStream) encoding() ([]byte, error) {
	if len(st.enc) > 0 {
		return st.enc, nil
	}
	return wire.Marshal(st.value)
}

// ownPartials has every partial element on an edge in own keep its
// encoding in place of its value. A partial is the one place delivery
// keeps a value past its window (a later fragment of the same element,
// or a snapshot, reads it — as bytes), and at most one waits per stream,
// so this encodes at most once per stream and window, into the stream's
// own buffer.
func (sh *shardState) ownPartials(own map[*dataflow.Edge]bool) error {
	for key, st := range sh.streams {
		if st.count == 0 || len(st.enc) > 0 || !own[key.edge] {
			continue
		}
		var err error
		if st.enc, err = wire.AppendMarshal(st.enc[:0], st.value); err != nil {
			return err
		}
		st.value = nil
	}
	return nil
}

// receive samples one message's packet losses and reassembles it; ok
// reports whether the element survived intact. The loss draws and the
// reception stream are both keyed by the message's origin, so receive
// order only matters within one origin.
//
// A wired element is reassembled in closed form, exactly as
// wire.Reassembler would from the fragments (the package's tests hold it
// to that, RunReference delivering through the codec): every fragment
// received means the element decodes to wire.Canonical(value); some
// received, and it becomes the stream's partial, abandoning the old one;
// none, and the stream is untouched. Fragments of an element whose
// (seq, count) equals the partial's merge with it byte by byte — the
// 16-bit wrap the sender notes — and only there, or on a partial
// restored from a snapshot, does delivery build bytes.
func (sh *shardState) receive(m *message, ratio float64) (dataflow.Value, bool, error) {
	draws := sh.sampler(m.nodeID).Draws(m.packets)
	if !m.wired {
		delivered := true
		for _, d := range draws {
			if d < ratio {
				sh.res.MsgsReceived++
			} else {
				delivered = false
			}
		}
		return m.value, delivered, nil
	}
	key := reasmKey{node: m.nodeID, edge: m.edge}
	st := sh.streams[key]
	if st == nil {
		st = &edgeStream{}
		sh.streams[key] = st
	}
	var got wire.FragmentMask
	n := 0
	for p, d := range draws {
		if d < ratio {
			got.Set(p)
			n++
		}
	}
	sh.res.MsgsReceived += n
	if n == 0 {
		return nil, false, nil
	}
	if st.re == nil && st.count == m.packets && st.seq == m.seq {
		st.re = &wire.Reassembler{}
		enc, err := st.encoding()
		if err != nil {
			return nil, false, err
		}
		if _, _, err := offer(st.re, enc, st.seq, sh.payload, &st.have); err != nil {
			return nil, false, err
		}
		st.count, st.value = 0, nil
	}
	if st.re != nil {
		if seq, count, ok := st.re.Pending(); ok && seq == m.seq && count == m.packets {
			enc, err := wire.Marshal(m.value)
			if err != nil {
				return nil, false, err
			}
			return offer(st.re, enc, m.seq, sh.payload, &got)
		}
		st.re = nil // this element's first fragment abandons the partial
	}
	if n == m.packets {
		st.count, st.value = 0, nil
		return wire.Canonical(m.value), true, nil
	}
	st.seq, st.count, st.have, st.value, st.enc = m.seq, m.packets, got, m.value, st.enc[:0]
	return nil, false, nil
}

// offer feeds re the fragments in got of an element's encoding enc,
// numbered seq and cut to payload-byte packets, in index order, returning
// the element it completes, if any. It is the byte path: rare, so it
// allocates.
func offer(re *wire.Reassembler, enc []byte, seq uint16, payload int, got *wire.FragmentMask) (dataflow.Value, bool, error) {
	frags, err := wire.Fragment(enc, seq, payload)
	if err != nil {
		return nil, false, err
	}
	var decoded dataflow.Value
	complete := false
	for i, f := range frags {
		if !got.Has(i) {
			continue
		}
		v, done, err := re.Offer(f)
		if err != nil {
			return nil, false, fmt.Errorf("runtime: reassembly: %w", err)
		}
		if done {
			decoded, complete = v, true
		}
	}
	return decoded, complete, nil
}

// deliverBatched regroups the shard's messages by origin (first-appearance
// order, per-origin time order preserved) and flushes each origin's runs
// of consecutive same-edge survivors as one batch: one relocated-state
// swap and one scheduler pass per run instead of per element.
func (sh *shardState) deliverBatched(msgs []message, ratio float64) error {
	if sh.groups == nil {
		sh.groups = make(map[int][]int)
	}
	sh.order = sh.order[:0]
	for i := range msgs {
		g := sh.groups[msgs[i].nodeID]
		if len(g) == 0 {
			sh.order = append(sh.order, msgs[i].nodeID)
		}
		sh.groups[msgs[i].nodeID] = append(g, i)
	}
	for _, origin := range sh.order {
		idxs := sh.groups[origin]
		sh.groups[origin] = idxs[:0]
		vals := sh.vals[:0]
		var curEdge *dataflow.Edge
		flush := func() error {
			if len(vals) == 0 {
				return nil
			}
			err := sh.engine.deliverBatch(origin, curEdge, vals)
			clear(vals)
			vals = vals[:0]
			return err
		}
		for _, i := range idxs {
			m := &msgs[i]
			val, ok, err := sh.receive(m, ratio)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			sh.res.DeliveredBytes += dataflow.WireSize(val)
			if m.edge != curEdge {
				if err := flush(); err != nil {
					return err
				}
				curEdge = m.edge
			}
			vals = append(vals, val)
		}
		if err := flush(); err != nil {
			return err
		}
		sh.vals = vals[:0]
	}
	return nil
}

// deliveryPlan is the server side of one run: the resolved shard set and
// the worker budget for driving it.
type deliveryPlan struct {
	shards  []*shardState
	workers int
	errs    []error // per shard, one delivery at a time
}

// shardable reports whether the server partition's delivery may be split
// by origin node: true unless a stateful Server-namespace operator (one
// global state fed by every node) is placed on the server.
func shardable(cfg *Config) bool {
	for _, op := range cfg.Graph.Operators() {
		if !cfg.OnNode[op.ID()] && op.Stateful && op.NewState != nil && op.NS == dataflow.NSServer {
			return false
		}
	}
	return true
}

// newDeliveryPlan resolves the shard count and builds one server engine
// per shard: cfg.Shards when the partition is shardable, capped at one
// shard per possible origin (cfg.Nodes real nodes plus the aggregate
// origin).
func newDeliveryPlan(cfg *Config) (*deliveryPlan, error) {
	independent := shardable(cfg)
	n := cfg.Shards
	if n < 1 || !independent {
		n = 1
	}
	if n > cfg.Nodes+1 {
		n = cfg.Nodes + 1
	}
	d := &deliveryPlan{workers: poolWorkers(cfg, n), errs: make([]error, n)}
	prog, err := resolveProgram(cfg, false)
	if err != nil {
		return nil, err
	}
	// Batched delivery needs a server Program with batch tables, and
	// regroups messages by origin, which is sound exactly when the
	// partition is shardable (per-origin independence); otherwise the
	// shards run the per-element loop.
	batch := prog.Options().Batch && independent
	for i := 0; i < n; i++ {
		d.shards = append(d.shards, &shardState{
			seed:    cfg.Seed,
			payload: cfg.Platform.Radio.PacketPayload,
			engine:  newCompiledServer(cfg, prog),
			streams: make(map[reasmKey]*edgeStream),
			rng:     make(map[int]*netsim.LossSampler),
			batch:   batch,
		})
	}
	return d, nil
}

// shardFor maps an origin (including AggregateOrigin −1) to its shard.
func (d *deliveryPlan) shardFor(nodeID int) int {
	n := len(d.shards)
	return ((nodeID % n) + n) % n
}

// deliver fans one time-sorted message batch out to the shards and runs
// them on the worker pool. Partial counters stay in the shards until
// collect.
func (d *deliveryPlan) deliver(msgs []message, ratio float64) error {
	parts := make([][]message, len(d.shards))
	d.partition(msgs, parts)
	return d.deliverParts(parts, ratio)
}

// partition splits msgs by delivery shard into parts (one entry per shard,
// each appended to — callers that reuse parts truncate it between
// windows). A one-shard plan aliases msgs instead of copying.
func (d *deliveryPlan) partition(msgs []message, parts [][]message) {
	if len(parts) == 1 {
		parts[0] = msgs
		return
	}
	for i := range msgs {
		s := d.shardFor(msgs[i].nodeID)
		parts[s] = append(parts[s], msgs[i])
	}
}

// deliverParts runs every shard over its partition on the worker pool.
func (d *deliveryPlan) deliverParts(parts [][]message, ratio float64) error {
	runPool(d.workers, len(d.shards), func(i int) {
		d.errs[i] = d.shards[i].deliver(parts[i], ratio)
	})
	return firstError(d.errs)
}

// collect folds the per-shard counters into the run result and releases
// the shard engines and samplers. The plan is unusable afterwards.
func (d *deliveryPlan) collect(res *Result) {
	for _, sh := range d.shards {
		res.MsgsReceived += sh.res.MsgsReceived
		res.DeliveredBytes += sh.res.DeliveredBytes
		res.ServerEmits += sh.engine.emits()
	}
	d.close()
}

// close releases the shard engines without collecting (error paths).
func (d *deliveryPlan) close() {
	for _, sh := range d.shards {
		sh.engine.close()
		sh.releaseSamplers()
	}
	d.shards = nil
}

// resolveProgram returns one partition's Program: the caller's precompiled
// one (verified against the run's graph and cut) or a fresh compilation, as
// CompilePartition would produce.
func resolveProgram(cfg *Config, nodeSide bool) (*dataflow.Program, error) {
	supplied := cfg.ServerProgram
	if nodeSide {
		supplied = cfg.NodeProgram
	}
	if supplied == nil {
		return compileSide(cfg.Graph, cfg.OnNode, nodeSide)
	}
	if err := checkPartitionProgram(supplied, cfg, nodeSide); err != nil {
		return nil, err
	}
	return supplied, nil
}

// poolWorkers resolves the worker budget for an n-way fan-out.
func poolWorkers(cfg *Config, n int) int {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// runPool runs f(0..n-1) on up to workers goroutines; with one worker it
// degenerates to a sequential loop on the caller's goroutine.
func runPool(workers, n int, f func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// firstError returns the lowest-indexed failure of a runPool fan-out.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
