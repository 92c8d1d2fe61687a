package main

import (
	"fmt"
	"time"
)

// simWorkload is sim-fanin and sim-edge: one batch runtime.Run of 64
// Gumstix-class motes per request, with per-node speech traces. The two
// differ only in where the pipeline is cut and whether the sharded,
// parallel path is on — the same runtime layer used the other way round.
type simWorkload struct {
	name            string
	seed            int64
	cut             int // pipeline stages on the node
	shards, workers int
	nodes           int
	duration        float64
	perRound        int // runtime.Run calls per repeat

	app       *app
	plat      *platformT
	traces    [][]traceInput
	node, srv *program
	cfg       simConfig
	ref       *simResult
}

func newSimFanin(seed int64, tiny bool) workload {
	w := &simWorkload{name: "sim-fanin", seed: seed, cut: 1, shards: 1, workers: 1, nodes: 64, duration: 10, perRound: 4}
	if tiny {
		w.nodes, w.duration, w.perRound = 8, 2, 1
	}
	return w
}

func newSimEdge(seed int64, tiny bool) workload {
	w := &simWorkload{name: "sim-edge", seed: seed, cut: 6, shards: 2, workers: 2, nodes: 64, duration: 10, perRound: 4}
	if tiny {
		w.nodes, w.duration, w.perRound = 8, 2, 1
	}
	return w
}

// speechTraces generates one 2 s recording per node, seeded from the
// workload seed.
func speechTraces(a *app, seed int64, nodes int) [][]traceInput {
	traces := make([][]traceInput, nodes)
	for n := range traces {
		traces[n] = a.trace(seed*100003+int64(n), 2.0)
	}
	return traces
}

func (w *simWorkload) setup() error {
	w.app = newSpeechApp()
	w.plat = basestationGumstix()
	w.traces = speechTraces(w.app, w.seed, w.nodes)
	onNode := w.app.cutAfter(w.cut)
	var err error
	if w.node, w.srv, err = compilePartition(w.app.graph, onNode); err != nil {
		return err
	}
	w.cfg = simConfig{
		Graph:         w.app.graph,
		OnNode:        onNode,
		Platform:      w.plat,
		Nodes:         w.nodes,
		Duration:      w.duration,
		Inputs:        func(n int) []traceInput { return w.traces[n] },
		Seed:          w.seed,
		NodeProgram:   w.node,
		ServerProgram: w.srv,
	}
	ref := w.cfg
	ref.Shards, ref.Workers = 1, 1
	if w.ref, err = simRun(ref); err != nil {
		return err
	}
	if pct := w.ref.PercentMsgsReceived(); pct < 90 {
		return fmt.Errorf("%s: channel collapsed (%.1f%% received); the server side would idle", w.name, pct)
	}
	return nil
}

func (w *simWorkload) close() {}

func (w *simWorkload) run(tr *tracer) (*rep, error) {
	cfg := w.cfg
	cfg.Shards, cfg.Workers = w.shards, w.workers
	var timings *stageTimings
	var batched0, total0 int64
	if tr != nil {
		timings = &stageTimings{}
		cfg.Timings = timings
		batched0, total0 = batchTotals(w.node, w.srv)
	}
	// The traced run makes one call, so its spans and counters describe
	// exactly one simulation.
	calls := w.perRound
	if tr != nil {
		calls = 1
	}
	r := &rep{requests: calls}
	results := make([]*simResult, calls)
	errs := make([]error, calls)
	id := tr.begin("runtime.run", 0, "run-0")
	m := startMeasure()
	for i := range results {
		start := time.Now()
		results[i], errs[i] = simRun(cfg)
		r.latMs = append(r.latMs, ms(time.Since(start)))
	}
	m.stop(r)
	tr.end(id)
	if tr != nil && errs[0] == nil {
		reportStages(tr, id, "run-0", timings)
		b, t := batchTotals(w.node, w.srv)
		tr.count("dataflow.batched", float64(b-batched0))
		tr.count("dataflow.total", float64(t-total0))
	}
	for i, res := range results {
		if errs[i] != nil {
			r.fail("runtime.Run: %v", errs[i])
			continue
		}
		r.arrivals += int64(res.InputEvents)
		if *res != *w.ref {
			r.fail("%s: Result differs from the sequential batch reference: %+v vs %+v", w.name, *res, *w.ref)
		}
		resultCounts(r, res)
	}
	return r, nil
}

// reportStages places the run's own stage timings under its span.
func reportStages(tr *tracer, parent int, op string, t *stageTimings) {
	tr.reported("runtime.node", parent, op, secs(t.NodeSeconds()))
	tr.reported("runtime.deliver", parent, op, secs(t.DeliverySeconds()))
	tr.count("runtime.overlap_ms", 1e3*t.OverlapSeconds())
	tr.count("runtime.wall_ms", 1e3*t.WallSeconds())
}

// resultCounts records the simulated statistics that must be identical
// across commits.
func resultCounts(r *rep, res *simResult) {
	r.setCount("runtime.msgs_sent", float64(res.MsgsSent))
	r.setCount("runtime.msgs_received", float64(res.MsgsReceived))
	r.setCount("runtime.server_emits", float64(res.ServerEmits))
	r.setCount("runtime.delivered_bytes", float64(res.DeliveredBytes))
}

func (w *simWorkload) layers(tr *tracer, traced *rep, m map[string]float64) error {
	stageMetrics(tr, m)

	// The same configuration with one worker: the ratio to runtime.wall_ms
	// is what the parallel path buys.
	one := w.cfg
	one.Shards, one.Workers = w.shards, 1
	t1 := &stageTimings{}
	one.Timings = t1
	if _, err := simRun(one); err != nil {
		return err
	}
	m["runtime.wall_ms_workers1"] = 1e3 * t1.WallSeconds()

	id := tr.begin("runtime.compile_partition", 0, "layers")
	_, _, err := compilePartition(w.app.graph, w.cfg.OnNode)
	tr.end(id)
	if err != nil {
		return err
	}
	m["runtime.compile_partition_ms"] = tr.totalMs("runtime.compile_partition")

	cut, err := replayPrograms(tr, w.node, w.srv, w.app.pipeline[0], w.nodes, w.duration, w.traces)
	if err != nil {
		return err
	}
	m["dataflow.node_program_ms"] = tr.totalMs("dataflow.node_program")
	m["dataflow.server_program_ms"] = tr.totalMs("dataflow.server_program")
	if total := tr.counter("dataflow.total"); total > 0 {
		m["dataflow.batch_hit_ratio"] = tr.counter("dataflow.batched") / total
	}
	packets, wireMs, err := replayWire(tr, cut, w.plat, m)
	if err != nil {
		return err
	}
	netsimMs := replayNetsim(tr, packets, w.plat, w.seed, m)
	m["runtime.self_ms"] = m["runtime.wall_ms"] - (wireMs + netsimMs +
		m["dataflow.node_program_ms"] + m["dataflow.server_program_ms"])
	return nil
}

// stageMetrics turns the traced run's reported stage spans into metrics.
func stageMetrics(tr *tracer, m map[string]float64) {
	m["runtime.node_ms"] = tr.totalMs("runtime.node")
	m["runtime.deliver_ms"] = tr.totalMs("runtime.deliver")
	m["runtime.overlap_ms"] = tr.counter("runtime.overlap_ms")
	m["runtime.wall_ms"] = tr.counter("runtime.wall_ms")
}

// cutValues is what one workload sends over the radio: every node's
// cut-edge elements in emission order.
type cutValues struct {
	perNode [][]value
	edge    *edge
	count   int
}

// arrivalsFor expands a node's periodic trace into the event sequence the
// runtime offers it over duration seconds.
func arrivalsFor(in traceInput, duration float64) []value {
	n := int(duration * in.Rate)
	out := make([]value, n)
	for i := range out {
		out[i] = in.Events[i%len(in.Events)]
	}
	return out
}

// replayPrograms pushes the workload's per-origin inputs straight through
// the node partition, and the cut-edge values that come out straight
// through the server partition, with no runtime around either: the work
// functions plus the engine's dispatch, and nothing else.
func replayPrograms(tr *tracer, node, srv *program, src *operator, nodes int, duration float64, traces [][]traceInput) (*cutValues, error) {
	cut := &cutValues{perNode: make([][]value, nodes)}
	events := make([][]value, nodes)
	for n := range events {
		events[n] = arrivalsFor(traces[n][0], duration)
	}
	id := tr.begin("dataflow.node_program", 0, "layers")
	for n := 0; n < nodes; n++ {
		vals, edges := captureCut(node, n, src, events[n])
		cut.perNode[n] = vals
		cut.count += len(vals)
		if len(edges) > 0 {
			cut.edge = edges[0]
		}
	}
	tr.end(id)
	if cut.edge == nil {
		return nil, fmt.Errorf("node partition emitted nothing on a cut edge")
	}
	id = tr.begin("dataflow.server_program", 0, "layers")
	for n := 0; n < nodes; n++ {
		if err := pushServer(srv, n, cut.edge, cut.perNode[n]); err != nil {
			return nil, err
		}
	}
	tr.end(id)
	return cut, nil
}

// replayWire runs every cut-edge value through the packet codec stage by
// stage — marshal, fragment, reassemble, unmarshal — one pass per stage so
// each gets its own span. It returns each element's packet count and the
// codec's total time over the replayed elements.
func replayWire(tr *tracer, cut *cutValues, plat *platformT, m map[string]float64) (packets []int, totalMs float64, err error) {
	payload := plat.Radio.PacketPayload
	n := float64(cut.count)

	encs := make([][]byte, 0, cut.count)
	bytes := 0
	id := tr.begin("wire.marshal", 0, "layers")
	for _, vals := range cut.perNode {
		for _, v := range vals {
			enc, err := wireMarshal(nil, v)
			if err != nil {
				return nil, 0, err
			}
			encs = append(encs, enc)
			bytes += len(enc)
		}
	}
	tr.end(id)

	frags := make([][][]byte, len(encs))
	packets = make([]int, len(encs))
	id = tr.begin("wire.fragment", 0, "layers")
	for i, enc := range encs {
		count, total, err := wireFragmentSpan(len(enc), payload)
		if err != nil {
			return nil, 0, err
		}
		if frags[i], err = wireFragmentTo(enc, uint16(i), payload, make([]byte, total), make([][]byte, 0, count)); err != nil {
			return nil, 0, err
		}
		packets[i] = count
	}
	tr.end(id)

	var re reassembler
	done := 0
	id = tr.begin("wire.reassemble", 0, "layers")
	for _, fs := range frags {
		for _, f := range fs {
			_, ok, err := re.Offer(f)
			if err != nil {
				return nil, 0, err
			}
			if ok {
				done++
			}
		}
	}
	tr.end(id)
	if done != len(encs) {
		return nil, 0, fmt.Errorf("wire replay: reassembled %d of %d elements", done, len(encs))
	}

	id = tr.begin("wire.unmarshal", 0, "layers")
	for _, enc := range encs {
		if _, _, err := wireUnmarshal(enc); err != nil {
			return nil, 0, err
		}
	}
	tr.end(id)

	// Reassembler.Offer decodes the completed element itself, so its pass
	// contains an unmarshal pass; the reassembly share is the difference.
	un := tr.totalMs("wire.unmarshal")
	reasm := max(tr.totalMs("wire.reassemble")-un, 0)
	m["wire.marshal_ns_per_msg"] = 1e6 * tr.totalMs("wire.marshal") / n
	m["wire.fragment_ns_per_msg"] = 1e6 * tr.totalMs("wire.fragment") / n
	m["wire.reassemble_ns_per_msg"] = 1e6 * reasm / n
	m["wire.unmarshal_ns_per_msg"] = 1e6 * un / n
	m["wire.bytes_per_msg"] = float64(bytes) / n
	return packets, tr.totalMs("wire.marshal") + tr.totalMs("wire.fragment") + reasm + un, nil
}

// replayNetsim times the two things the runtime asks of the radio model:
// one batch of loss draws per message (a draw per packet), and the
// closed-form pricing of a window's offered load. It returns the radio
// model's total time for one window of the replayed elements.
func replayNetsim(tr *tracer, packets []int, plat *platformT, seed int64, m map[string]float64) float64 {
	s := newLossSampler(seed, 0)
	id := tr.begin("netsim.loss_draw", 0, "layers")
	for _, n := range packets {
		s.Draws(n)
	}
	tr.end(id)
	const pricings = 100000
	ch := channelFor(plat)
	sink := 0.0
	id = tr.begin("netsim.delivery_ratio", 0, "layers")
	for i := 0; i < pricings; i++ {
		sink += ch.DeliveryRatio(float64(i) * 100)
	}
	tr.end(id)
	if sink < 0 {
		panic("unreachable: keeps the pricing loop live")
	}
	m["netsim.loss_draw_ns_per_msg"] = 1e6 * tr.totalMs("netsim.loss_draw") / float64(len(packets))
	m["netsim.delivery_ratio_ns"] = 1e6 * tr.totalMs("netsim.delivery_ratio") / pricings
	// A window prices its offered load once.
	return tr.totalMs("netsim.loss_draw") + m["netsim.delivery_ratio_ns"]/1e6
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func secs(s float64) time.Duration { return time.Duration(s * 1e9) }
