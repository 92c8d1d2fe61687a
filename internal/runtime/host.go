package runtime

import (
	"wishbone/internal/cost"
	"wishbone/internal/dataflow"
)

// The node stage of a streaming run: one non-reentrant node runtime per
// mote (§5.2) — a recycled dataflow.Instance, its sender and its nodeSim —
// held by a ShardHost for an ascending set of origins, beside the delivery
// plan their cut-edge output replays against (§2.1.1). A Session binds one
// ShardHost over every origin; a distributed run one per origin subset.
// The methods here are the only code that feeds those runtimes a window,
// captures and applies their snapshot sides, and releases the instances;
// batch Run shares newNodeSim, drain and tally. Everything is indexed by
// position in the host's origins.

// newNodeSim wires one node runtime onto inst, whose operators charge
// counter: a sender on the Boundary hook, and the batched injection entry
// when the partition is passthrough.
func newNodeSim(cfg *Config, inst *dataflow.Instance, counter *cost.Counter, nodeID int, passthrough bool) *nodeSim {
	snd := &sender{cfg: cfg, nodeID: nodeID}
	inst.Boundary = snd.capture
	ns := &nodeSim{counter: counter, s: snd, inject: inst.Inject}
	if passthrough {
		ns.injectBatch = inst.InjectBatch
	}
	return ns
}

// acquireNodes builds one node runtime per origin on recycled instances.
func (h *ShardHost) acquireNodes() {
	passthrough := passthroughPartition(&h.cfg)
	for _, n := range h.origins {
		inst := h.prog.AcquireInstance(n)
		counter := &cost.Counter{}
		inst.SetCounter(counter)
		h.insts = append(h.insts, inst)
		h.nodes = append(h.nodes, newNodeSim(&h.cfg, inst, counter, n, passthrough))
	}
}

// feedShard feeds node shard i of a window: the origins at positions i,
// i+shards, … run their buffered arrivals; the shard's first failure stops
// it and lands in its error slot. Shards may run concurrently.
func (h *ShardHost) feedShard(i int) {
	for n := i; n < len(h.buf); n += len(h.errs) {
		if len(h.buf[n]) == 0 {
			continue
		}
		if h.errs[i] = h.nodes[n].feed(&h.cfg, h.buf[n]); h.errs[i] != nil {
			return
		}
	}
}

// feedPooled feeds every node shard of a window on the worker pool and
// returns the lowest shard's failure.
func (h *ShardHost) feedPooled() error {
	shards := len(h.errs)
	runPool(poolWorkers(&h.cfg, shards), shards, h.feedShard)
	return firstError(h.errs)
}

// resetWindow rewinds the window storage once its messages are dead:
// message slices truncated with their elements cleared so reused buffers
// do not pin the delivered window's values.
func (h *ShardHost) resetWindow() {
	clear(h.msgs)
	h.msgs = h.msgs[:0]
	clear(h.out)
	h.out = h.out[:0]
	for i := range h.parts {
		clear(h.parts[i])
		h.parts[i] = h.parts[i][:0]
	}
	clear(h.errs)
}

// nodeSims is node runtimes in ascending origin order (a host's, or Run's).
type nodeSims []*nodeSim

// drain appends the nodes' messages to out — origins ascending, each in
// emission order: the order every placement of the run merges them in —
// accrues the send accounting into res, and resets the senders for the
// next window (their backing arrays are reused).
func (nodes nodeSims) drain(res *Result, out []message) []message {
	for _, ns := range nodes {
		s := ns.s
		out = append(out, s.msgs...)
		res.MsgsSent += s.msgsSent
		res.PayloadBytes += s.payloadBytes
		s.msgs = s.msgs[:0]
		s.msgsSent, s.payloadBytes = 0, 0
	}
	return out
}

// tally adds the nodes' event counts to res and returns each one's busy
// seconds, origins ascending — float64 addition order is part of
// byte-identity, so the caller that sums them owns the order.
func (nodes nodeSims) tally(res *Result) []NodeBusy {
	busy := make([]NodeBusy, len(nodes))
	for i, ns := range nodes {
		res.InputEvents += ns.inputEvents
		res.ProcessedEvents += ns.processedEvents
		busy[i] = NodeBusy{Node: ns.s.nodeID, Busy: ns.busy}
	}
	return busy
}

// captureSides fills sides[i] with origin i's node side.
func (h *ShardHost) captureSides(sides []nodeSnap) error {
	for i, ns := range h.nodes {
		if err := captureNodeSide(&h.cfg, h.prog, h.eidx, ns, h.insts[i], &sides[i]); err != nil {
			return err
		}
	}
	return nil
}

// applySides loads sides[i] into origin i's simulator and instance.
func (h *ShardHost) applySides(sides []nodeSnap) error {
	for i, ns := range h.nodes {
		if err := applyNodeSnap(&h.cfg, h.prog, &sides[i], ns, h.insts[i]); err != nil {
			return err
		}
	}
	return nil
}

// release returns the instances to their Program's free list and closes the
// delivery plan (a no-op once the plan was collected).
func (h *ShardHost) release() {
	for _, inst := range h.insts {
		h.prog.ReleaseInstance(inst)
	}
	h.insts, h.nodes = nil, nil
	h.plan.close()
}
