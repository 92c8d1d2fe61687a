package runtime

import (
	"wishbone/internal/cost"
	"wishbone/internal/dataflow"
)

// originHost is the node stage of a streaming run for an ascending set of
// origins: one non-reentrant node runtime per mote (§5.2) — a pooled
// dataflow.Instance, its sender and its nodeSim — plus the delivery plan
// their cut-edge output replays against (§2.1.1). It is the only code that
// builds those triples, feeds them a window, drains and tallies them,
// captures and applies their snapshot sides, and releases the instances.
// A Session holds one over every origin, a ShardHost one over its subset;
// they add which goroutines feed and where the drained messages go.
// Everything is indexed by position in origins.
type originHost struct {
	cfg     *Config
	origins []int
	prog    *dataflow.Program
	insts   []*dataflow.Instance
	nodes   nodeSims
	plan    *deliveryPlan
	eidx    map[*dataflow.Edge]int
}

func newOriginHost(cfg *Config, origins []int) (*originHost, error) {
	prog, err := resolveProgram(cfg, true)
	if err != nil {
		return nil, err
	}
	plan, err := newDeliveryPlan(cfg)
	if err != nil {
		return nil, err
	}
	h := &originHost{cfg: cfg, origins: origins, prog: prog, plan: plan, eidx: edgeIndexes(cfg)}
	passthrough := passthroughPartition(cfg, prog)
	for _, n := range origins {
		inst := prog.AcquireInstance(n)
		counter := &cost.Counter{}
		inst.SetCounter(counter)
		h.insts = append(h.insts, inst)
		h.nodes = append(h.nodes, newNodeSim(cfg, inst, counter, n, passthrough))
	}
	return h, nil
}

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

// feedShard feeds node shard i of a window: the origins at positions i,
// i+shards, … run their arrivals in buf, their senders carving fragment
// storage from the window's i-th arena; the shard's first failure stops
// it and lands in its error slot. Shards may run concurrently.
func (h *originHost) feedShard(win *windowBufs, i int, buf [][]arrival) {
	for n := i; n < len(buf); n += len(win.errs) {
		if len(buf[n]) == 0 {
			continue
		}
		ns := h.nodes[n]
		ns.s.arena = win.arenas[i]
		if win.errs[i] = ns.feed(h.cfg, buf[n]); win.errs[i] != nil {
			return
		}
	}
}

// feedPooled feeds every node shard of a window on the worker pool and
// returns the lowest shard's failure.
func (h *originHost) feedPooled(win *windowBufs, buf [][]arrival) error {
	shards := len(win.errs)
	runPool(poolWorkers(h.cfg, shards), shards, func(i int) { h.feedShard(win, i, buf) })
	return firstError(win.errs)
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
func (h *originHost) captureSides(sides []nodeSnap) error {
	for i, ns := range h.nodes {
		if err := captureNodeSide(h.cfg, h.prog, h.eidx, ns, h.insts[i], &sides[i]); err != nil {
			return err
		}
	}
	return nil
}

// applySides loads sides[i] into origin i's simulator and instance.
func (h *originHost) applySides(sides []nodeSnap) error {
	for i, ns := range h.nodes {
		if err := applyNodeSnap(h.cfg, h.prog, &sides[i], ns, h.insts[i]); err != nil {
			return err
		}
	}
	return nil
}

// release returns the pooled instances to their Program and closes the
// delivery plan (a no-op once the plan was collected).
func (h *originHost) release() {
	for _, inst := range h.insts {
		h.prog.ReleaseInstance(inst)
	}
	h.insts, h.nodes = nil, nil
	h.plan.close()
}
