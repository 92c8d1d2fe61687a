package runtime

import (
	"wishbone/internal/dataflow"
	"wishbone/internal/wire"
)

// AggregateOrigin is the origin nodeID stamped on in-network aggregates.
// An aggregate combines contributions from many nodes, so it gets a
// dedicated origin instead of inheriting an arbitrary contributor's: its
// fragments reassemble in their own (AggregateOrigin, edge) stream, its
// loss draws come from AggregateOrigin's RNG stream, and any relocated
// server state it drives is charged to AggregateOrigin's row of the state
// table rather than to whichever node happened to contribute first.
const AggregateOrigin = -1

// reduceAggregator combines, per emission round, the messages all nodes
// produce on the cut edges of node-resident Reduce operators (§9): the
// k-th element a node emits on such an edge belongs to round k, and the
// aggregation tree merges each round's contributions with the operator's
// Combine function before the root link. Sent-message accounting is
// rebuilt as rounds flush: the pre-aggregation sends never hit the root
// channel.
//
// The batch path feeds every message at once and flushes everything; the
// streaming Session feeds one ingestion window at a time and flushes only
// the rounds that can no longer receive a contribution (every node's
// emission count has moved past them), holding the rest across windows so
// slow contributors still merge. Pending state is bounded by the spread
// between the fastest and slowest node's round counts, not by the trace
// length.
type reduceAggregator struct {
	nodes int

	// Per edge, in deterministic first-seen order (map iteration order
	// must never influence flush order — the aggregate origin's RNG stream
	// is shared by every reduce edge).
	edgeOrder []*dataflow.Edge
	counts    map[*dataflow.Edge][]int      // per node: elements emitted
	pending   map[*dataflow.Edge][]*message // rounds ≥ flushed, in round order
	flushed   map[*dataflow.Edge]int        // rounds already flushed
	// seq numbers each edge's aggregates for fragmentation. Sequences are
	// per edge so every (AggregateOrigin, edge) reassembly stream is
	// contiguous — a single counter shared across edges leaves per-edge
	// gaps and can collide after the uint16 wraps. Like sender.seq it
	// wraps at 65535 rounds; see the wrap note there.
	seq map[*dataflow.Edge]uint16
}

func newReduceAggregator(nodes int) *reduceAggregator {
	return &reduceAggregator{
		nodes:   nodes,
		counts:  make(map[*dataflow.Edge][]int),
		pending: make(map[*dataflow.Edge][]*message),
		flushed: make(map[*dataflow.Edge]int),
		seq:     make(map[*dataflow.Edge]uint16),
	}
}

// reduceEdge reports whether e carries the output of a node-resident
// in-network reduce operator — the elements that join the global
// aggregation rounds instead of crossing the root link themselves.
func reduceEdge(cfg *Config, e *dataflow.Edge) bool {
	op := e.From
	return op.Reduce && op.Combine != nil && cfg.OnNode[op.ID()]
}

// fold is one streaming window's reduce step: merge the window's messages
// into their rounds, then flush the rounds every node has emitted past and
// any pending beyond maxPendingRounds. Every placement folds on the
// coordinator exactly this way, which keeps its aggregates byte-identical.
func (a *reduceAggregator) fold(cfg *Config, msgs []message, res *Result, out []message) []message {
	out = a.add(cfg, msgs, res, out)
	out = a.flushComplete(cfg, res, out)
	return a.flushExcess(cfg, res, out)
}

// add consumes one batch of node messages: elements on in-network reduce
// edges merge into their round's pending aggregate (their per-node send
// accounting undone in res), everything else is appended to out.
func (a *reduceAggregator) add(cfg *Config, msgs []message, res *Result, out []message) []message {
	for i := range msgs {
		m := msgs[i]
		op := m.edge.From
		if !reduceEdge(cfg, m.edge) {
			out = append(out, m)
			continue
		}
		counts := a.counts[m.edge]
		if counts == nil {
			counts = make([]int, a.nodes)
			a.counts[m.edge] = counts
			a.edgeOrder = append(a.edgeOrder, m.edge)
		}
		round := counts[m.nodeID]
		counts[m.nodeID]++

		// Undo the per-node send accounting: in-tree combining means only
		// the aggregate crosses the root link.
		res.MsgsSent -= m.packets
		res.PayloadBytes -= dataflow.WireSize(m.value)

		idx := round - a.flushed[m.edge]
		if idx < 0 {
			// The round was already force-flushed (flushExcess): the
			// straggler missed its aggregation round and crosses the root
			// link alone — as a single-contribution aggregate, re-encoded
			// on the edge's contiguous (AggregateOrigin, edge) sequence
			// stream so reassembly never sees gapped per-contributor
			// sequences.
			cp := m
			cp.nodeID = AggregateOrigin
			a.finalize(cfg, m.edge, &cp, res)
			out = append(out, cp)
			continue
		}

		pend := a.pending[m.edge]
		for idx >= len(pend) {
			pend = append(pend, nil)
		}
		if agg := pend[idx]; agg != nil {
			agg.value = op.Combine(agg.value, m.value)
			if m.time > agg.time {
				agg.time = m.time
			}
		} else {
			cp := m
			cp.nodeID = AggregateOrigin
			pend[idx] = &cp
		}
		a.pending[m.edge] = pend
	}
	return out
}

// flushComplete appends the aggregates of every round that every node has
// emitted past (no further contribution is possible), per edge in round
// order. Nodes that never emit on an edge hold its rounds open until
// flushAll.
func (a *reduceAggregator) flushComplete(cfg *Config, res *Result, out []message) []message {
	for _, e := range a.edgeOrder {
		min := a.counts[e][0]
		for _, c := range a.counts[e][1:] {
			if c < min {
				min = c
			}
		}
		out = a.flush(cfg, e, min, res, out)
	}
	return out
}

// maxPendingRounds bounds a streaming session's pending rounds per edge.
// A node that never emits on an edge (dead sensor, every input missed
// while busy) would otherwise hold every other node's rounds open for the
// whole trace — O(duration) state, exactly what streaming exists to
// avoid. Past the bound the oldest rounds flush without the missing
// contributions; a contribution arriving after its round was force-
// flushed crosses the link on its own (see add).
const maxPendingRounds = 1024

// flushExcess force-flushes the oldest rounds past maxPendingRounds per
// edge (streaming only; the batch path flushes everything at once).
func (a *reduceAggregator) flushExcess(cfg *Config, res *Result, out []message) []message {
	for _, e := range a.edgeOrder {
		if excess := len(a.pending[e]) - maxPendingRounds; excess > 0 {
			out = a.flush(cfg, e, a.flushed[e]+excess, res, out)
		}
	}
	return out
}

// flushAll appends every pending aggregate (end of run).
func (a *reduceAggregator) flushAll(cfg *Config, res *Result, out []message) []message {
	for _, e := range a.edgeOrder {
		out = a.flush(cfg, e, a.flushed[e]+len(a.pending[e]), res, out)
	}
	return out
}

// flush emits edge e's pending rounds below upto.
func (a *reduceAggregator) flush(cfg *Config, e *dataflow.Edge, upto int, res *Result, out []message) []message {
	pend := a.pending[e]
	for a.flushed[e] < upto && len(pend) > 0 {
		agg := pend[0]
		pend = pend[1:]
		a.flushed[e]++
		if agg == nil {
			continue // round with no contribution (cannot happen, but stay safe)
		}
		a.finalize(cfg, e, agg, res)
		out = append(out, *agg)
	}
	a.pending[e] = pend
	return out
}

// finalize turns a combined aggregate into the message that crosses the
// root link: it is packetized afresh from the combined value (packetize)
// under the next number of the edge's contiguous sequence stream, and
// send accounting is rebuilt.
func (a *reduceAggregator) finalize(cfg *Config, e *dataflow.Edge, agg *message, res *Result) {
	a.seq[e]++
	agg.seq = a.seq[e]
	n, ok := wire.Size(agg.value)
	packetize(cfg.Platform.Radio, agg, n, ok)
	res.MsgsSent += agg.packets
	res.PayloadBytes += dataflow.WireSize(agg.value)
}

// sortByTime puts one window's messages in time order — stably, so each
// origin's subsequence stays in emission order, which is all delivery
// needs — and returns the air bytes they offer the channel, and scratch
// as sortRuns hands it back.
func sortByTime(msgs, scratch []message) (air int, _ []message) {
	scratch = sortRuns(msgs, scratch, func(a, b *message) bool { return a.time < b.time })
	for i := range msgs {
		air += msgs[i].air
	}
	return air, scratch
}

// aggregateReduceMessages is the batch path: feed every message, flush
// every round, and return the time-sorted stream the channel carries.
func aggregateReduceMessages(cfg Config, msgs []message, res *Result) []message {
	a := newReduceAggregator(cfg.Nodes)
	out := a.add(&cfg, msgs, res, make([]message, 0, len(msgs)))
	out = a.flushAll(&cfg, res, out)
	sortByTime(out, msgs) // msgs is consumed: every element was copied or combined
	return out
}
