package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"
)

// loopbackServer is an in-process partition service behind a real
// 127.0.0.1 listener.
type loopbackServer struct {
	url   string
	srv   *http.Server
	stats func() serviceStats
	stop  func()
	done  chan struct{}
}

func startLoopback(cacheEntries int) (*loopbackServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	handler, stats, stop := newService(cacheEntries)
	l := &loopbackServer{
		url:   "http://" + ln.Addr().String(),
		srv:   &http.Server{Handler: handler},
		stats: stats, stop: stop,
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return l, nil
}

// close stops the service and waits for its accept loop to end.
func (l *loopbackServer) close() {
	l.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if l.srv.Shutdown(ctx) != nil {
		l.srv.Close()
	}
	<-l.done
}

// loopbackTransport opens at most conns connections to a host, so a workload
// never drives the service with more connections than it has cores.
func loopbackTransport(conns int) *http.Transport {
	return &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
}

// streamHTTP is the stream-http workload: one POST /v1/simulate/stream per
// request through server.Client.SimulateStream — a few nodes of speech
// shipping raw audio for many simulated minutes, as pre-encoded i16s frames
// in 64-frame chunks. It is the streaming entry point end to end: JSON
// token walk, Session.OfferRaw into the ingest arena, and the windowed
// (by default pipelined) session.
type streamHTTP struct {
	seed     int64
	nodes    int
	duration float64
	window   float64
	shards   int

	app    *app
	plat   *platformT
	traces [][]traceInput
	encs   [][][]byte // node → frame → JSON text
	cfg    simConfig
	ref    *simResult

	srv       *loopbackServer
	transport *http.Transport
	client    *serviceClient
}

const streamChunk = 64

func newStreamHTTP(seed int64, tiny bool) workload {
	w := &streamHTTP{seed: seed, nodes: 4, duration: 300, window: 30, shards: 4}
	if tiny {
		w.nodes, w.duration, w.window = 2, 20, 5
	}
	return w
}

func (w *streamHTTP) setup() error {
	w.app = newSpeechApp()
	// The service resolves the platform by name, so this workload runs on
	// the stock Gumstix radio.
	w.plat = platformByName("Gumstix")
	w.traces = speechTraces(w.app, w.seed, w.nodes)
	w.encs = make([][][]byte, w.nodes)
	for n, tr := range w.traces {
		for _, ev := range tr[0].Events {
			raw, err := json.Marshal(ev)
			if err != nil {
				return err
			}
			w.encs[n] = append(w.encs[n], raw)
		}
	}
	w.cfg = simConfig{
		Graph:    w.app.graph,
		OnNode:   w.app.cutAfter(1),
		Platform: w.plat,
		Nodes:    w.nodes,
		Duration: w.duration,
		Inputs:   func(n int) []traceInput { return w.traces[n] },
		Seed:     w.seed,
	}
	ref := w.cfg
	ref.Shards, ref.Workers = 1, 1
	var err error
	if w.ref, err = simRun(ref); err != nil {
		return err
	}
	if w.srv, err = startLoopback(0); err != nil {
		return err
	}
	w.transport = loopbackTransport(1)
	w.client = newServiceClient(w.srv.url, &http.Client{Transport: w.transport})
	return nil
}

func (w *streamHTTP) close() {
	if w.srv != nil {
		w.transport.CloseIdleConnections()
		w.srv.close()
		w.srv = nil
	}
}

// frames is the number of frame periods in the run, and period the frame
// period as the runtime's own arrival builder computes it.
func (w *streamHTTP) frames() (n int, period float64) {
	rate := w.traces[0][0].Rate
	return int(w.duration * rate), 1 / rate
}

func (w *streamHTTP) run(tr *tracer) (*rep, error) {
	frames, period := w.frames()
	src := w.app.pipeline[0].ID()
	k, n := 0, 0
	batch := make([]arrivalWire, 0, streamChunk)
	next := func() ([]arrivalWire, bool) {
		batch = batch[:0]
		for k < frames && len(batch) < streamChunk {
			batch = append(batch, arrivalWire{
				Node: n, Time: float64(k) * period, Source: src, Type: "i16s",
				Value: w.encs[n][k%len(w.encs[n])],
			})
			if n++; n == w.nodes {
				n, k = 0, k+1
			}
		}
		return batch, len(batch) > 0
	}
	req := streamRequest{
		Graph: w.app.spec, Platform: w.plat.Name, OnNode: onNodeIDs(w.cfg.OnNode),
		Nodes: w.nodes, Duration: w.duration, Seed: w.seed,
		Shards: w.shards, WindowSeconds: w.window,
	}
	r := &rep{requests: 1}
	id := tr.begin("server.simulate_stream", 0, "stream-0")
	m := startMeasure()
	resp, err := w.client.SimulateStream(context.Background(), req, next)
	m.stop(r)
	tr.end(id)
	r.latMs = []float64{ms(r.wall)}
	r.arrivals = int64(frames * w.nodes)
	if err != nil {
		r.fail("POST /v1/simulate/stream: %v", err)
		return r, nil
	}
	if resp.Result == nil {
		r.fail("POST /v1/simulate/stream: no result")
		return r, nil
	}
	res := resultFromWire(resp.Result)
	if res != *w.ref {
		r.fail("stream-http: Result differs from the sequential batch reference: %+v vs %+v", res, *w.ref)
	}
	resultCounts(r, &res)
	return r, nil
}

// feedDirect drives the same frames through a runtime.Session in process,
// the way the endpoint does but with no HTTP, chunking or JSON envelope
// around OfferRaw.
func (w *streamHTTP) feedDirect(cfg simConfig) (*simResult, *rep, int, error) {
	frames, period := w.frames()
	src := w.app.pipeline[0]
	r := &rep{}
	m := startMeasure()
	sess, err := newSession(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	for k := 0; k < frames; k++ {
		t := float64(k) * period
		for n := 0; n < w.nodes; n++ {
			if err := sess.OfferRaw(n, t, src, "i16s", w.encs[n][k%len(w.encs[n])]); err != nil {
				sess.Close()
				return nil, nil, 0, err
			}
		}
	}
	res, err := sess.Close()
	m.stop(r)
	if err != nil {
		return nil, nil, 0, err
	}
	r.arrivals = int64(frames * w.nodes)
	return res, r, sess.PeakBuffered(), nil
}

func (w *streamHTTP) layers(tr *tracer, traced *rep, m map[string]float64) error {
	// The session behind the endpoint, fed directly: what is left of the
	// HTTP wall is the endpoint's own cost.
	cfg := w.cfg
	cfg.Inputs = nil
	cfg.Shards, cfg.WindowSeconds = w.shards, w.window
	timings := &stageTimings{}
	cfg.Timings = timings
	runtime.GC()
	id := tr.begin("runtime.session_direct", 0, "layers")
	res, direct, peak, err := w.feedDirect(cfg)
	tr.end(id)
	if err != nil {
		return err
	}
	if *res != *w.ref {
		return fmt.Errorf("direct session Result differs from the reference: %+v vs %+v", *res, *w.ref)
	}
	reportStages(tr, id, "layers", timings)
	stageMetrics(tr, m)
	arrivals := float64(direct.arrivals)
	m["runtime.session_direct_ms"] = tr.totalMs("runtime.session_direct")
	m["server.stream_overhead_ms"] = ms(traced.wall) - m["runtime.session_direct_ms"]
	m["runtime.ingest_alloc_bytes_per_arrival"] = float64(direct.allocBytes) / arrivals
	m["runtime.mallocs_per_arrival"] = float64(direct.mallocs) / arrivals
	m["runtime.peak_buffered"] = float64(peak)

	// One worker: no pipelining, the stages run in phase.
	one := cfg
	one.Workers = 1
	t1 := &stageTimings{}
	one.Timings = t1
	runtime.GC()
	if _, _, _, err := w.feedDirect(one); err != nil {
		return err
	}
	m["runtime.wall_ms_workers1"] = 1e3 * t1.WallSeconds()

	// Decode alone: every frame through the ingest arena with no session
	// behind it. A decoder never recycles its arena, so one is used per
	// window's worth of arrivals.
	frames, _ := w.frames()
	perWindow := int(w.window*w.traces[0][0].Rate) * w.nodes
	dec := &arrivalDecoder{}
	decoded := 0
	id = tr.begin("runtime.ingest_decode", 0, "layers")
	for k := 0; k < frames; k++ {
		for n := 0; n < w.nodes; n++ {
			if _, err := dec.Decode("i16s", w.encs[n][k%len(w.encs[n])]); err != nil {
				return err
			}
			if decoded++; decoded%perWindow == 0 {
				dec = &arrivalDecoder{}
			}
		}
	}
	tr.end(id)
	m["runtime.ingest_decode_ns_per_arrival"] = 1e6 * tr.totalMs("runtime.ingest_decode") / float64(decoded)

	// The layers under the session, replayed on one window's worth of each
	// node's stream and scaled to the run.
	node, srv, err := compilePartition(w.app.graph, w.cfg.OnNode)
	if err != nil {
		return err
	}
	cut, err := replayPrograms(tr, node, srv, w.app.pipeline[0], w.nodes, w.window, w.traces)
	if err != nil {
		return err
	}
	scale := w.duration / w.window
	m["dataflow.node_program_ms"] = scale * tr.totalMs("dataflow.node_program")
	m["dataflow.server_program_ms"] = scale * tr.totalMs("dataflow.server_program")
	if batched, total := batchTotals(node, srv); total > 0 {
		m["dataflow.batch_hit_ratio"] = float64(batched) / float64(total)
	}
	packets, wireMs, err := replayWire(tr, cut, w.plat, m)
	if err != nil {
		return err
	}
	netsimMs := replayNetsim(tr, packets, w.plat, w.seed, m)
	m["runtime.self_ms"] = m["runtime.wall_ms"] - (scale*(wireMs+netsimMs) +
		m["dataflow.node_program_ms"] + m["dataflow.server_program_ms"])
	return nil
}
