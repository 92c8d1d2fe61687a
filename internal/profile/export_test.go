package profile

import (
	"wishbone/internal/cost"
	"wishbone/internal/dataflow"
	"wishbone/internal/dataflow/reference"
)

// RunReference profiles the graph through the reference tree-walking
// Executor — the oracle the parity tests hold Run's reports to.
func RunReference(g *dataflow.Graph, inputs []Input) (*Report, error) {
	rep, maxEvents, err := newReport(g, inputs)
	if err != nil {
		return nil, err
	}
	ex := reference.NewExecutor(g, 0)
	// Wrap work functions by measuring counter deltas around each Push:
	// the executor exposes a per-op counter; we snapshot totals around
	// each injected event per op to find peaks per invocation.
	invCounters := make(map[int]*cost.Counter)
	ex.CounterFor = func(op *dataflow.Operator) *cost.Counter {
		c, ok := invCounters[op.ID()]
		if !ok {
			c = &cost.Counter{}
			invCounters[op.ID()] = c
		}
		rep.OpInvocations[op.ID()]++
		return c
	}
	perEventBytes := make(map[*dataflow.Edge]int64)
	ex.OnEdge = func(e *dataflow.Edge, v dataflow.Value) {
		n := int64(dataflow.WireSize(v))
		rep.EdgeBytes[e] += n
		rep.EdgeElems[e]++
		perEventBytes[e] += n
	}

	for i := 0; i < maxEvents; i++ {
		for _, in := range inputs {
			if i >= len(in.Events) {
				continue
			}
			ex.Inject(in.Source, in.Events[i])
			// Fold this event's per-op deltas into totals and peaks.
			for id, c := range invCounters {
				rep.OpTotal[id].AddCounter(c)
				if c.Total() > rep.OpPeak[id].Total() {
					peak := &cost.Counter{}
					peak.AddCounter(c)
					rep.OpPeak[id] = peak
				}
				c.Reset()
			}
			for e, n := range perEventBytes {
				if n > rep.EdgePeak[e] {
					rep.EdgePeak[e] = n
				}
				delete(perEventBytes, e)
			}
		}
	}
	return rep, nil
}
