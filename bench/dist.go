package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// distLoopback is the dist-loopback workload: one dist.Coordinator run per
// request over two in-process partition services on real loopback
// listeners — 64 motes of speech cut after filtBank, one-second windows,
// default options (so every window is checkpointed). It runs the cut
// sim-edge runs locally; what it adds is the /v1/shard protocol: marshal,
// round trips, the per-window barrier, and checkpoints.
type distLoopback struct {
	seed     int64
	nodes    int
	duration float64
	window   float64

	app    *app
	plat   *platformT
	traces [][]traceInput
	cfg    simConfig
	ref    *simResult

	hosts     []*loopbackServer
	peers     []string
	transport *http.Transport
}

const distHosts = 2

func newDistLoopback(seed int64, tiny bool) workload {
	w := &distLoopback{seed: seed, nodes: 64, duration: 30, window: 1}
	if tiny {
		w.nodes, w.duration = 8, 4
	}
	return w
}

func (w *distLoopback) setup() error {
	w.app = newSpeechApp()
	// Hosts resolve the platform by name: the stock Gumstix radio.
	w.plat = platformByName("Gumstix")
	w.traces = speechTraces(w.app, w.seed, w.nodes)
	w.cfg = simConfig{
		Graph:         w.app.graph,
		OnNode:        w.app.cutAfter(6),
		Platform:      w.plat,
		Nodes:         w.nodes,
		Duration:      w.duration,
		WindowSeconds: w.window,
		Inputs:        func(n int) []traceInput { return w.traces[n] },
		Seed:          w.seed,
	}
	ref := w.cfg
	ref.Shards, ref.Workers = 1, 1
	var err error
	if w.ref, err = simRun(ref); err != nil {
		return err
	}
	w.hosts, w.peers = nil, nil
	for i := 0; i < distHosts; i++ {
		h, err := startLoopback(0)
		if err != nil {
			w.close()
			return err
		}
		w.hosts = append(w.hosts, h)
		w.peers = append(w.peers, h.url)
	}
	w.transport = loopbackTransport(1)
	return nil
}

func (w *distLoopback) close() {
	if w.transport != nil {
		w.transport.CloseIdleConnections()
	}
	for _, h := range w.hosts {
		h.close()
	}
	w.hosts = nil
}

func (w *distLoopback) run(tr *tracer) (*rep, error) {
	hc := &http.Client{Transport: w.transport}
	var rec *rpcRecorder
	if tr != nil {
		rec = &rpcRecorder{next: w.transport, tr: tr}
		hc.Transport = rec
	}
	r := &rep{requests: 1}
	id := tr.begin("dist.run", 0, "run-0")
	if rec != nil {
		rec.parent = id
	}
	m := startMeasure()
	res, distributed, err := distRun(context.Background(), w.peers, hc, w.app.spec, w.cfg)
	m.stop(r)
	tr.end(id)
	r.latMs = []float64{ms(r.wall)}
	if err != nil {
		r.fail("dist.Coordinator.Run: %v", err)
		return r, nil
	}
	r.arrivals = int64(res.InputEvents)
	if !distributed {
		r.fail("dist-loopback: the coordinator ran locally instead of across its peers")
	}
	if *res != *w.ref {
		r.fail("dist-loopback: Result differs from the single-process reference: %+v vs %+v", *res, *w.ref)
	}
	resultCounts(r, res)
	if rec != nil {
		rec.summarize(tr)
	}
	return r, nil
}

// rpcRecorder is the coordinator's http.RoundTripper under tracing: it
// times and sizes every /v1/shard RPC from request start to the end of the
// response body, keyed by operation, host and window sequence number.
type rpcRecorder struct {
	next   http.RoundTripper
	tr     *tracer
	parent int

	mu   sync.Mutex
	rpcs []rpc
}

type rpc struct {
	op         string
	host       string
	window     int64
	start, end time.Time
	reqBytes   int64
	respBytes  int64
}

func (rr *rpcRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	c := rpc{op: strings.TrimPrefix(req.URL.Path, "/v1/shard/"), host: req.URL.Host, reqBytes: req.ContentLength}
	if (c.op == "compute" || c.op == "deliver") && req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			c.window = windowOf(body)
			body.Close()
		}
	}
	id := rr.tr.begin("dist.rpc."+c.op, rr.parent, fmt.Sprintf("window-%d", c.window))
	c.start = time.Now()
	resp, err := rr.next.RoundTrip(req)
	if err != nil {
		rr.tr.end(id)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		c.end = time.Now()
		c.respBytes = n
		rr.tr.end(id)
		rr.mu.Lock()
		rr.rpcs = append(rr.rpcs, c)
		rr.mu.Unlock()
	}}
	return resp, nil
}

// windowOf reads the window sequence number from the head of a compute or
// deliver request body; the field precedes the arrivals, so the megabyte
// of arrivals behind it is never parsed.
func windowOf(body io.Reader) int64 {
	head := make([]byte, 256)
	n, _ := io.ReadFull(body, head)
	_, rest, ok := bytes.Cut(head[:n], []byte(`"window":`))
	if !ok {
		return 0
	}
	var win int64
	for _, ch := range rest {
		if ch < '0' || ch > '9' {
			break
		}
		win = win*10 + int64(ch-'0')
	}
	return win
}

// countingBody counts a response body's bytes and reports at Close.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// summarize folds the recorded RPCs into counters on the trace.
func (rr *rpcRecorder) summarize(tr *tracer) {
	rr.mu.Lock()
	rpcs := append([]rpc(nil), rr.rpcs...)
	rr.mu.Unlock()
	sort.Slice(rpcs, func(i, j int) bool { return rpcs[i].start.Before(rpcs[j].start) })

	type hostWindow struct {
		host   string
		window int64
	}
	var reqBytes, respBytes, ckptBytes, ckpts float64
	computeSeen := make(map[hostWindow]bool)
	windowStart := make(map[int64]time.Time) // first compute of the window, any host
	computeRTT := make(map[int64][]float64)  // per window, one per host
	for _, c := range rpcs {
		tr.count("dist.rpc_count."+c.op, 1)
		switch c.op {
		case "compute":
			hw := hostWindow{c.host, c.window}
			if computeSeen[hw] {
				tr.count("dist.retries", 1)
			}
			computeSeen[hw] = true
			if _, ok := windowStart[c.window]; !ok {
				windowStart[c.window] = c.start
			}
			computeRTT[c.window] = append(computeRTT[c.window], ms(c.end.Sub(c.start)))
		case "checkpoint":
			ckptBytes += float64(c.respBytes)
			ckpts++
		}
		if c.op == "compute" || c.op == "deliver" || c.op == "checkpoint" {
			reqBytes += float64(c.reqBytes)
			respBytes += float64(c.respBytes)
		}
	}
	windows := make([]int64, 0, len(windowStart))
	for win := range windowStart {
		windows = append(windows, win)
	}
	sort.Slice(windows, func(i, j int) bool { return windows[i] < windows[j] })
	var periods, stragglers []float64
	for i, win := range windows {
		rtts := computeRTT[win]
		lo, hi := rtts[0], rtts[0]
		for _, d := range rtts {
			lo, hi = min(lo, d), max(hi, d)
		}
		stragglers = append(stragglers, hi-lo)
		if i+1 < len(windows) {
			periods = append(periods, ms(windowStart[windows[i+1]].Sub(windowStart[win])))
		}
	}
	tr.count("window_p50_ms", median(periods))
	tr.count("dist.straggler_ms", median(stragglers))
	if n := float64(len(windows)); n > 0 {
		tr.count("dist.req_bytes_per_window", reqBytes/n)
		tr.count("dist.resp_bytes_per_window", respBytes/n)
	}
	if ckpts > 0 {
		tr.count("dist.checkpoint_bytes", ckptBytes/ckpts)
	}
}

func (w *distLoopback) layers(tr *tracer, traced *rep, m map[string]float64) error {
	for _, op := range []string{"open", "compute", "deliver", "checkpoint", "close"} {
		m["dist.rpc_count."+op] = tr.counter("dist.rpc_count." + op)
	}
	for _, op := range []string{"compute", "deliver", "checkpoint"} {
		m["dist.rpc_p50_ms."+op] = median(tr.durationsMs("dist.rpc." + op))
	}
	for _, name := range []string{"window_p50_ms", "dist.straggler_ms", "dist.retries",
		"dist.req_bytes_per_window", "dist.resp_bytes_per_window", "dist.checkpoint_bytes"} {
		m[name] = tr.counter(name)
	}
	// The run's self time is what its RPC spans do not cover (hosts are
	// called concurrently, so overlapping RPCs count once): the
	// coordinator's own marshalling, merging and pricing.
	m["dist.coordinator_self_share"] = tr.selfMs("dist.run") / tr.totalMs("dist.run")

	// The same windows in one process: the price of distribution, and the
	// stage clocks no HTTP hop can carry.
	local := w.cfg
	local.Inputs = nil
	local.ArrivalSource = func(n int) (arrivalStream, error) {
		return inputStream(w.traces[n], w.duration)
	}
	timings := &stageTimings{}
	local.Timings = timings
	id := tr.begin("runtime.run_local", 0, "layers")
	res, err := simRun(local)
	tr.end(id)
	if err != nil {
		return err
	}
	if *res != *w.ref {
		return fmt.Errorf("single-process streaming Result differs from the reference: %+v vs %+v", *res, *w.ref)
	}
	reportStages(tr, id, "layers", timings)
	stageMetrics(tr, m)
	m["dist.local_ratio"] = tr.totalMs("runtime.run_local") / ms(traced.wall)

	one := local
	one.Workers = 1
	t1 := &stageTimings{}
	one.Timings = t1
	if _, err := simRun(one); err != nil {
		return err
	}
	m["runtime.wall_ms_workers1"] = 1e3 * t1.WallSeconds()
	return w.snapshotLayers(tr, local, m)
}

// snapshotLayers freezes an in-process session of the same run at its
// midpoint and resumes it: the codec host checkpoints ride on.
func (w *distLoopback) snapshotLayers(tr *tracer, cfg simConfig, m map[string]float64) error {
	cfg.ArrivalSource, cfg.Timings = nil, nil
	src := w.app.pipeline[0]
	rate := w.traces[0][0].Rate
	frames, period := int(w.duration*rate), 1/rate
	feed := func(s *session, from, to int) error {
		for k := from; k < to; k++ {
			for n := 0; n < w.nodes; n++ {
				ev := w.traces[n][0].Events
				if err := s.Offer(n, arrival{Time: float64(k) * period, Source: src, Value: ev[k%len(ev)]}); err != nil {
					return err
				}
			}
		}
		return nil
	}
	s, err := newSession(cfg)
	if err != nil {
		return err
	}
	if err := feed(s, 0, frames/2); err != nil {
		s.Close()
		return err
	}
	m["runtime.peak_buffered"] = float64(s.PeakBuffered())
	id := tr.begin("runtime.snapshot", 0, "layers")
	snap, err := s.Snapshot()
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("runtime.resume", 0, "layers")
	s, err = resumeSession(cfg, snap)
	tr.end(id)
	if err != nil {
		return err
	}
	if err := feed(s, frames/2, frames); err != nil {
		s.Close()
		return err
	}
	res, err := s.Close()
	if err != nil {
		return err
	}
	if *res != *w.ref {
		return fmt.Errorf("resumed session Result differs from the reference: %+v vs %+v", *res, *w.ref)
	}
	m["runtime.snapshot_ms"] = tr.totalMs("runtime.snapshot")
	m["runtime.resume_ms"] = tr.totalMs("runtime.resume")
	m["runtime.snapshot_bytes"] = float64(len(snap))
	return nil
}
