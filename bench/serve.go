package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"time"
)

// serveMix is the serve-mix workload: two tenants in a closed loop (each
// waits for its reply before sending the next request) working through a
// fixed, seeded request sequence against one partition service whose cache
// (8 entries) is smaller than the working set — twelve (graph, trace) keys
// with Zipf popularity, each asking for profiles, partitions (exact and
// lagrangian alternating) and small simulations. Hot keys hit; the tail is
// evicted and recompiled. A repeat is the next perRound requests of the
// (cyclic) sequence on the same server, so repeats after the warm-up see
// the cache in steady state, not a cold start.
type serveMix struct {
	seed     int64
	requests int // length of the sequence
	perRound int
	pos      int // next request of the sequence

	keys []*serveKey
	seq  []serveReq

	srv       *loopbackServer
	transport *http.Transport
	client    *serviceClient
}

// serveKey is one (graph, trace seed) pair with the reference outputs its
// requests are checked against.
type serveKey struct {
	app     *app
	trace   traceSpec
	cut     []int
	limits  *limitsWire
	wscript bool

	refReport []byte                 // canonical JSON of the profile report
	refPlan   map[string]planOutcome // by solver backend
	refSim    simResult
	simCfg    simConfig
}

type serveKind int

const (
	kindProfile serveKind = iota
	kindPartition
	kindSimulate
)

var serveKindNames = [...]string{"profile", "partition", "simulate"}

type serveReq struct {
	key     int
	kind    serveKind
	backend string
}

const (
	serveTenants      = 2
	serveCacheEntries = 8
	serveSimNodes     = 2
	serveSimSeconds   = 3
	servePlanPlatform = "TMoteSky"
	serveSimPlatform  = "Gumstix"
	// serveZipf is the popularity exponent over the twelve keys, set so the
	// cache-level hit ratio lands near 0.8.
	serveZipf = 1.8
)

// serveWscript is the tenant-supplied program of the mix: branch-free work
// functions, so every invocation of an operator burns the same fuel and
// fuel per call is a deterministic count.
const serveWscript = `
namespace Node {
  s = source("x", 40);
  energy = iterate v in s state { acc = 0.0; } {
    acc = acc * 0.75 + v * v;
    emit acc;
  };
  scaled = iterate e in energy { emit e * 0.001 + 1.0; };
}
main = scaled;
`

func newServeMix(seed int64, tiny bool) workload {
	w := &serveMix{seed: seed, requests: 3000, perRound: 500}
	if tiny {
		w.requests, w.perRound = 72, 72
	}
	return w
}

func (w *serveMix) setup() error {
	ws, err := newWscriptApp(serveWscript, 64)
	if err != nil {
		return err
	}
	apps := []*app{newSpeechApp(), newEEGApp(2), ws, newEEGApp(4)}
	ctx := context.Background()
	w.keys = nil
	// Keys are ordered graph-major, so the most popular keys share one
	// graph's cached entry and programs and differ in their reports.
	for _, a := range apps {
		for t := 0; t < 3; t++ {
			k := &serveKey{
				app:     a,
				trace:   traceSpec{Seed: w.seed*101 + int64(t) + 1, Seconds: serveSimSeconds, Events: 64},
				cut:     onNodeIDs(a.nodeNamespaceCut()),
				wscript: a.name == "wscript",
				refPlan: make(map[string]planOutcome),
			}
			if k.wscript {
				k.limits = &limitsWire{Fuel: 1 << 20, MemBytes: 1 << 20}
			}
			in := a.trace(k.trace.Seed, k.trace.Seconds)
			rep, err := planProfile(ctx, a.graph, in)
			if err != nil {
				return err
			}
			if k.refReport, err = json.Marshal(reportToWire(rep)); err != nil {
				return err
			}
			for _, b := range planBackends {
				dep, err := planAuto(ctx, b, a.graph, in, platformByName(servePlanPlatform))
				if err != nil {
					return fmt.Errorf("%s on %s: %w", a.name, servePlanPlatform, err)
				}
				if err := verifyAssignment(dep.Assignment, dep.Spec, dep.RateMultiple); err != nil {
					return fmt.Errorf("%s on %s (%s): %w", a.name, servePlanPlatform, b, err)
				}
				k.refPlan[b] = planOutcome{OnNode: onNodeIDs(dep.Assignment.OnNode), Rate: dep.RateMultiple,
					Objective: dep.Assignment.Objective, Solves: len(dep.Solves)}
			}
			// The service offers every node the one shared recording.
			k.simCfg = simConfig{
				Graph: a.graph, OnNode: a.nodeNamespaceCut(), Platform: platformByName(serveSimPlatform),
				Nodes: serveSimNodes, Duration: serveSimSeconds, Seed: k.trace.Seed,
				Inputs: func(int) []traceInput { return in },
				Shards: 1, Workers: 1,
			}
			res, err := simRun(k.simCfg)
			if err != nil {
				return err
			}
			k.refSim = *res
			w.keys = append(w.keys, k)
		}
	}
	w.seq, w.pos = w.sequence(), 0
	if w.srv, err = startLoopback(serveCacheEntries); err != nil {
		return err
	}
	w.transport = loopbackTransport(serveTenants)
	w.client = newServiceClient(w.srv.url, &http.Client{Transport: w.transport})
	return nil
}

// sequence builds the request list: each key appears in proportion to its
// Zipf weight (a fixed multiset, so two seeds differ in order, not in
// mix), cycling through the three request kinds, and the whole list is
// shuffled by the seed.
func (w *serveMix) sequence() []serveReq {
	weights := make([]float64, len(w.keys))
	sum := 0.0
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), serveZipf)
		sum += weights[i]
	}
	var seq []serveReq
	for k := range w.keys {
		n := int(math.Round(float64(w.requests) * weights[k] / sum))
		if n < 3 {
			n = 3
		}
		for j := 0; j < n; j++ {
			seq = append(seq, serveReq{key: k, kind: serveKind(j % 3), backend: planBackends[(j/3)%2]})
		}
	}
	rand.New(rand.NewSource(w.seed)).Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

func (w *serveMix) close() {
	if w.srv != nil {
		w.transport.CloseIdleConnections()
		w.srv.close()
		w.srv = nil
	}
}

// serveOutcome is one request as its tenant saw it.
type serveOutcome struct {
	latMs    float64
	hit      bool
	arrivals int
	err      string
}

// do sends one request and checks the reply against the key's reference.
func (w *serveMix) do(ctx context.Context, rq serveReq) serveOutcome {
	k := w.keys[rq.key]
	var out serveOutcome
	start := time.Now()
	switch rq.kind {
	case kindProfile:
		resp, err := w.client.Profile(ctx, profileRequest{Graph: k.app.spec, Trace: k.trace})
		out.latMs = ms(time.Since(start))
		if err != nil {
			out.err = err.Error()
			break
		}
		out.hit = resp.CacheHit
		if got, _ := json.Marshal(resp.Report); !bytes.Equal(got, k.refReport) {
			out.err = "profile report differs from the in-process reference"
		}
	case kindPartition:
		resp, err := w.client.Partition(ctx, partitionRequest{Graph: k.app.spec, Trace: k.trace,
			Platform: servePlanPlatform, Solver: rq.backend})
		out.latMs = ms(time.Since(start))
		if err != nil {
			out.err = err.Error()
			break
		}
		out.hit = resp.CacheHit
		ref := k.refPlan[rq.backend]
		got := planOutcome{OnNode: resp.Assignment.OnNode, Rate: resp.RateMultiple,
			Objective: resp.Assignment.Objective, Solves: resp.Probes}
		if !reflect.DeepEqual(got, ref) {
			out.err = fmt.Sprintf("partition %+v differs from the in-process reference %+v", got, ref)
		}
	case kindSimulate:
		resp, err := w.client.Simulate(ctx, simulateRequest{Graph: k.app.spec, Trace: k.trace,
			Platform: serveSimPlatform, OnNode: k.cut, Nodes: serveSimNodes, Duration: serveSimSeconds,
			Seed: k.trace.Seed, Limits: k.limits})
		out.latMs = ms(time.Since(start))
		if err != nil {
			out.err = err.Error()
			break
		}
		out.hit = resp.CacheHit
		if resp.Result == nil {
			out.err = "simulate: no result"
			break
		}
		res := resultFromWire(resp.Result)
		out.arrivals = res.InputEvents
		if res != k.refSim {
			out.err = fmt.Sprintf("simulate Result %+v differs from the in-process reference %+v", res, k.refSim)
		}
	}
	return out
}

func (w *serveMix) run(tr *tracer) (*rep, error) {
	ctx := context.Background()
	round := make([]serveReq, w.perRound)
	for i := range round {
		round[i] = w.seq[(w.pos+i)%len(w.seq)]
	}
	w.pos = (w.pos + w.perRound) % len(w.seq)
	outs := make([]serveOutcome, len(round))
	before := w.srv.stats()

	// The queue gauge is polled only under tracing; a tracing-off run has
	// nothing but the two tenants and the service.
	var pollWG sync.WaitGroup
	stopPoll := make(chan struct{})
	if tr != nil {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopPoll:
					return
				case <-tick.C:
					tr.max("server.queued_jobs_max", float64(w.srv.stats().QueuedJobs))
				}
			}
		}()
	}

	r := &rep{requests: len(round)}
	var next atomic.Int64
	var wg sync.WaitGroup
	m := startMeasure()
	for t := 0; t < serveTenants; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(round) {
					return
				}
				rq := round[i]
				op := fmt.Sprintf("req-%d", i)
				id := tr.begin("server."+serveKindNames[rq.kind], 0, op)
				outs[i] = w.do(ctx, rq)
				tr.end(id)
			}
		}()
	}
	wg.Wait()
	m.stop(r)
	close(stopPoll)
	pollWG.Wait()

	r.latMs = make([]float64, len(outs))
	for i, o := range outs {
		r.latMs[i] = o.latMs
		r.arrivals += int64(o.arrivals)
		if o.err != "" {
			rq := round[i]
			r.fail("%s %s key %d: %s", serveKindNames[rq.kind], w.keys[rq.key].app.name, rq.key, o.err)
		}
	}
	if tr != nil {
		w.traceOutcomes(tr, round, outs, before, w.srv.stats())
	}
	return r, nil
}

// traceOutcomes records what the spans alone do not say: which requests
// were cold, which ran the tenant's VM program, and the service's own
// counters across the run.
func (w *serveMix) traceOutcomes(tr *tracer, round []serveReq, outs []serveOutcome, before, after serviceStats) {
	for i, o := range outs {
		name := "server.warm"
		if !o.hit {
			name = "server.cold"
		}
		tr.reported(name, 0, fmt.Sprintf("req-%d", i), time.Duration(o.latMs*1e6))
		if rq := round[i]; rq.kind == kindSimulate && w.keys[rq.key].wscript {
			tr.reported("wvm.simulate", 0, fmt.Sprintf("req-%d", i), time.Duration(o.latMs*1e6))
		}
	}
	hits := float64(after.CacheHits - before.CacheHits)
	misses := float64(after.CacheMisses - before.CacheMisses)
	if hits+misses > 0 {
		tr.count("server.cache_hit_ratio", hits/(hits+misses))
	}
	tr.count("server.cache_shared", float64(after.CacheShared-before.CacheShared))
	for _, b := range planBackends {
		tr.count("server.solver_runs."+b, float64(after.Solvers[b].Runs-before.Solvers[b].Runs))
	}
	var fuel, calls uint64
	for key, f := range after.Fuel {
		fuel += f.Fuel - before.Fuel[key].Fuel
		calls += f.Calls - before.Fuel[key].Calls
	}
	if calls > 0 {
		tr.count("wvm.fuel_per_call", float64(fuel)/float64(calls))
	}
}

func (w *serveMix) layers(tr *tracer, traced *rep, m map[string]float64) error {
	for _, kind := range serveKindNames {
		m["server."+kind+"_p50_ms"] = median(tr.durationsMs("server." + kind))
	}
	m["server.cold_p50_ms"] = median(tr.durationsMs("server.cold"))
	m["server.warm_p50_ms"] = median(tr.durationsMs("server.warm"))
	m["wvm.simulate_p50_ms"] = median(tr.durationsMs("wvm.simulate"))
	for _, name := range []string{"server.cache_hit_ratio", "server.cache_shared", "server.queued_jobs_max",
		"server.solver_runs.exact", "server.solver_runs.lagrangian", "wvm.fuel_per_call"} {
		m[name] = tr.counter(name)
	}

	// HTTP overhead: the hottest key's simulation, warm, through the
	// service versus the same runtime.Run in process with the partition
	// precompiled (what a cache hit saves the service too).
	k := w.keys[0]
	node, srv, err := compilePartition(k.app.graph, k.simCfg.OnNode)
	if err != nil {
		return err
	}
	local := k.simCfg
	local.NodeProgram, local.ServerProgram = node, srv
	local.Shards, local.Workers = 0, 0
	rq := serveReq{key: 0, kind: kindSimulate}
	ctx := context.Background()
	w.do(ctx, rq)
	const n = 30
	for i := 0; i < n; i++ {
		id := tr.begin("server.simulate_warm", 0, "layers")
		o := w.do(ctx, rq)
		tr.end(id)
		if o.err != "" {
			return fmt.Errorf("warm simulate: %s", o.err)
		}
		id = tr.begin("runtime.run_local", 0, "layers")
		_, err := simRun(local)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	m["server.http_overhead_ms"] = median(tr.durationsMs("server.simulate_warm")) - median(tr.durationsMs("runtime.run_local"))
	id := tr.begin("runtime.compile_partition", 0, "layers")
	_, _, err = compilePartition(w.keys[3].app.graph, w.keys[3].simCfg.OnNode)
	tr.end(id)
	if err != nil {
		return err
	}
	m["runtime.compile_partition_ms"] = tr.totalMs("runtime.compile_partition")
	return nil
}
