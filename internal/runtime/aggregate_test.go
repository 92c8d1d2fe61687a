package runtime

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"wishbone/internal/dataflow"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
)

// twoReduceApp builds a graph with two independent node-resident reduce
// operators whose cut edges both cross to the server — the configuration
// that exposed the shared-fragment-sequence bug.
func twoReduceApp() (*dataflow.Graph, map[int]bool, *dataflow.Edge, *dataflow.Edge) {
	g := dataflow.New()
	src := g.Add(&dataflow.Operator{Name: "src", NS: dataflow.NSNode, SideEffect: true})
	combine := func(a, b dataflow.Value) dataflow.Value {
		x, y := a.([]float64), b.([]float64)
		return []float64{x[0] + y[0]}
	}
	mkReduce := func(name string) *dataflow.Operator {
		return g.Add(&dataflow.Operator{
			Name: name, NS: dataflow.NSNode, Reduce: true, Combine: combine,
			Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) { emit(v) },
		})
	}
	ra, rb := mkReduce("ra"), mkReduce("rb")
	sink := g.Add(&dataflow.Operator{Name: "sink", NS: dataflow.NSServer, SideEffect: true,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {}})
	g.Connect(src, ra, 0)
	g.Connect(src, rb, 0)
	g.Connect(ra, sink, 0)
	g.Connect(rb, sink, 0)
	onNode := map[int]bool{src.ID(): true, ra.ID(): true, rb.ID(): true}
	var ea, eb *dataflow.Edge
	for _, e := range g.Edges() {
		if e.From == ra {
			ea = e
		}
		if e.From == rb {
			eb = e
		}
	}
	return g, onNode, ea, eb
}

// contributions fabricates the per-node reduce-edge elements of `rounds`
// emission rounds from `nodes` nodes on both edges, interleaved the way
// the node phase produces them.
func contributions(ea, eb *dataflow.Edge, nodes, rounds int) []message {
	var msgs []message
	for r := 0; r < rounds; r++ {
		for n := 0; n < nodes; n++ {
			t := float64(r) + float64(n)/10
			msgs = append(msgs, message{time: t, nodeID: n, edge: ea, value: []float64{1}, packets: 1, air: 20})
			msgs = append(msgs, message{time: t, nodeID: n, edge: eb, value: []float64{2}, packets: 1, air: 20})
		}
	}
	return msgs
}

// TestAggregateFragmentSeqPerEdge is the regression test for the shared
// fragment-sequence counter: every reduce edge's aggregates must carry a
// contiguous 1..n sequence in their fragment headers, because the server
// reassembles (and dedupes by sequence) per (origin, edge) stream. The
// pre-fix code numbered aggregates with one counter across all edges,
// leaving per-edge gaps that can collide after the uint16 wraps.
func TestAggregateFragmentSeqPerEdge(t *testing.T) {
	g, onNode, ea, eb := twoReduceApp()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Graph: g, OnNode: onNode, Platform: platform.Gumstix(), Nodes: 3, Duration: 10}
	res := &Result{}
	out := aggregateReduceMessages(cfg, contributions(ea, eb, 3, 4), res, nil)

	seqs := map[*dataflow.Edge][]uint16{}
	for i := range out {
		m := &out[i]
		if len(m.frags) == 0 {
			t.Fatalf("aggregate on %s has no marshalled fragments", m.edge)
		}
		seqs[m.edge] = append(seqs[m.edge], binary.BigEndian.Uint16(m.frags[0]))
	}
	if len(seqs[ea]) != 4 || len(seqs[eb]) != 4 {
		t.Fatalf("want 4 aggregates per edge, got %d/%d", len(seqs[ea]), len(seqs[eb]))
	}
	for _, e := range []*dataflow.Edge{ea, eb} {
		for i, s := range seqs[e] {
			if s != uint16(i+1) {
				t.Fatalf("edge %s aggregate %d carries fragment seq %d, want contiguous per-edge numbering %d",
					e, i, s, i+1)
			}
		}
	}
}

// TestAggregateDedicatedOrigin is the regression test for aggregate
// origin attribution: an in-network aggregate combines contributions from
// many nodes, so it must carry the dedicated AggregateOrigin rather than
// inheriting whichever node contributed first (which landed its fragments
// in that node's reassembler and charged relocated server state to an
// arbitrary contributor).
func TestAggregateDedicatedOrigin(t *testing.T) {
	g, onNode, ea, eb := twoReduceApp()
	cfg := Config{Graph: g, OnNode: onNode, Platform: platform.Gumstix(), Nodes: 2, Duration: 10}
	res := &Result{}
	out := aggregateReduceMessages(cfg, contributions(ea, eb, 2, 3), res, nil)
	if len(out) == 0 {
		t.Fatal("no aggregates produced")
	}
	for i := range out {
		if out[i].nodeID != AggregateOrigin {
			t.Fatalf("aggregate on %s attributed to node %d, want AggregateOrigin (%d)",
				out[i].edge, out[i].nodeID, AggregateOrigin)
		}
	}
}

// TestAggregateParityBatchedUpstream pins in-network aggregation against
// the batched node phase: a reduce operator fed by a batched upstream (the
// passthrough fast path injects whole runs of arrivals as one batch, which
// the work-less reduce operator forwards as a batch to its cut edge) must
// produce aggregates with exactly the fragment bytes, timestamps, origins
// and accounting of the per-element path.
func TestAggregateParityBatchedUpstream(t *testing.T) {
	build := func() (*dataflow.Graph, *dataflow.Operator, map[int]bool) {
		g := dataflow.New()
		src := g.Add(&dataflow.Operator{Name: "src", NS: dataflow.NSNode, SideEffect: true})
		// Work-less reduce operator: forwards its input (batched when the
		// input arrives batched) and combines in-network.
		sum := g.Add(&dataflow.Operator{
			Name: "sum", NS: dataflow.NSNode, Reduce: true,
			Combine: func(a, b dataflow.Value) dataflow.Value {
				return []float64{a.([]float64)[0] + b.([]float64)[0]}
			},
		})
		sink := g.Add(&dataflow.Operator{Name: "sink", NS: dataflow.NSServer, SideEffect: true,
			Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {}})
		g.Connect(src, sum, 0)
		g.Connect(sum, sink, 0)
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		return g, src, map[int]bool{src.ID(): true, sum.ID(): true}
	}

	aggregates := func(noBatch bool) []string {
		g, src, onNode := build()
		cfg := Config{
			Graph: g, OnNode: onNode, Platform: platform.Gumstix(),
			Nodes: 3, Duration: 6, Seed: 5,
		}
		if noBatch {
			var err error
			if cfg, err = PerElementPrograms(cfg); err != nil {
				t.Fatal(err)
			}
		}
		inputs := make([][]profile.Input, cfg.Nodes)
		arrivals := make([][]arrival, cfg.Nodes)
		for n := 0; n < cfg.Nodes; n++ {
			events := make([]dataflow.Value, 4)
			for i := range events {
				events[i] = []float64{float64(10*n + i)}
			}
			inputs[n] = []profile.Input{{Source: src, Events: events, Rate: 2}}
			a, err := buildArrivals(inputs[n], 1, cfg.Duration)
			if err != nil {
				t.Fatal(err)
			}
			arrivals[n] = a
		}
		nodeRes, arenas, err := runNodes(cfg, inputs, arrivals)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			for _, a := range arenas {
				releaseArena(a)
			}
		}()
		var msgs []message
		for n := range nodeRes {
			msgs = append(msgs, nodeRes[n].s.msgs...)
		}
		res := &Result{}
		out := aggregateReduceMessages(cfg, msgs, res, nil)
		var got []string
		for i := range out {
			m := &out[i]
			var frags bytes.Buffer
			for _, f := range m.frags {
				frags.Write(f)
			}
			got = append(got, fmt.Sprintf("t=%.3f origin=%d edge=%v pkts=%d air=%d frags=%x",
				m.time, m.nodeID, m.edge, m.packets, m.air, frags.Bytes()))
		}
		return got
	}

	perElem := aggregates(true)
	batched := aggregates(false)
	if len(perElem) == 0 {
		t.Fatal("per-element run produced no aggregates")
	}
	if fmt.Sprint(batched) != fmt.Sprint(perElem) {
		t.Errorf("aggregate fragments diverged:\nperElem: %v\nbatched: %v", perElem, batched)
	}
}

// TestAggregateStateNotChargedToContributor pins the end-to-end effect of
// the dedicated origin: a stateful relocated operator fed by both a plain
// cut edge and a reduce cut edge must keep the aggregate stream's state
// separate from node 0's own. Pre-fix, aggregates inherited node 0's
// nodeID and doubled its per-origin count.
func TestAggregateStateNotChargedToContributor(t *testing.T) {
	g := dataflow.New()
	src := g.Add(&dataflow.Operator{Name: "src", NS: dataflow.NSNode, SideEffect: true})
	sum := g.Add(&dataflow.Operator{
		Name: "sum", NS: dataflow.NSNode, Reduce: true,
		Combine: func(a, b dataflow.Value) dataflow.Value {
			return []float64{a.([]float64)[0] + b.([]float64)[0]}
		},
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) { emit(v) },
	})
	direct := g.Add(&dataflow.Operator{Name: "direct", NS: dataflow.NSNode,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) { emit(v) }})
	// counts is a relocated stateful node operator: one count per origin.
	var maxCount int
	counts := g.Add(&dataflow.Operator{
		Name: "counts", NS: dataflow.NSNode, Stateful: true,
		NewState: func() any { return new(int) },
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			n := ctx.State.(*int)
			*n++
			if *n > maxCount {
				maxCount = *n
			}
		},
	})
	g.Connect(src, sum, 0)
	g.Connect(src, direct, 0)
	g.Connect(sum, counts, 0)
	g.Connect(direct, counts, 0)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	onNode := map[int]bool{src.ID(): true, sum.ID(): true, direct.ID(): true}

	res, err := Run(Config{
		Graph: g, OnNode: onNode, Platform: losslessPlatform(),
		Nodes: 2, Duration: 8, Seed: 3,
		Inputs: func(nodeID int) []profile.Input {
			return []profile.Input{{Source: src, Events: []dataflow.Value{[]float64{1}}, Rate: 2}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Per origin: 16 direct elements from each node, 16 aggregate rounds
	// from AggregateOrigin. Everything is delivered on the lossless
	// channel, so any count above 16 means two origins shared one state
	// row (the pre-fix behavior charged node 0 with 32).
	perOrigin := res.InputEvents / 2
	if maxCount != perOrigin {
		t.Fatalf("max per-origin count %d, want %d (aggregates must not share a contributor's state)",
			maxCount, perOrigin)
	}
}
