// Package server is Wishbone's multi-tenant partition service: a
// long-running HTTP/JSON API that accepts dataflow graphs by description
// (wire.GraphSpec — a built-in application or wscript source, since work
// functions cannot cross a process boundary), re-elaborates them once, and
// serves profile, partition (full AutoPartition including the §4.3 rate
// search), and simulate requests concurrently.
//
// The paper's toolchain is a one-shot compiler run per application; the
// service turns the same profile→ILP→partition loop into shared
// infrastructure, the way distributed NUM work treats resource allocation
// as a service many clients query. Three properties make that cheap:
//
//   - Compiled Programs are immutable and goroutine-shareable
//     (dataflow.Compile), so one compilation serves every tenant; each
//     request executes its own Instance.
//   - Everything expensive is content-addressed: graphs by the canonical
//     (spec ‖ structural-hash) digest, Programs by (graph, partition,
//     variant), reports by (graph, trace). An LRU bounds residency.
//   - A singleflight layer under the cache compiles once per key even
//     when a thundering herd of tenants misses simultaneously.
//
// Heavy work (profiling, solver runs, simulations) runs under a bounded
// job pool; simulations additionally bound their per-node worker pools
// (the PR 1 machinery) so one tenant cannot monopolize the host.
// Per-endpoint metrics — cache hit rate, latencies, in-flight jobs — are
// served at GET /v1/stats.
//
// # Solver selection
//
// Partition (and auto-partitioned simulate) requests carry an optional
// "solver" field naming a backend from internal/solver: "exact" (default,
// the branch-and-bound ILP), "lagrangian" (§9-style relaxation with a
// proven dual gap) or "greedy" (cut-ordering baseline); any other name is
// a 400. The response's assignment is stamped with the producing
// backend's name and objective gap, and /v1/stats exposes a per-backend
// breakdown — runs, feasible answers, errors, and latency — under
// "solvers". Request cancellation propagates into the solve: an abandoned
// HTTP request aborts its branch-and-bound search.
//
// Every metered route is one row of the routes table and runs through one
// adapter (endpoint) that owns timing, the bounded body decode, the job
// slot and the error→status mapping; docs/service.md has the full table,
// the typed error codes and the streaming body framing. The tenant-facing
// endpoints (all request/response bodies in internal/wire; the /v1/shard/*
// protocol is described in shard.go):
//
//	POST /v1/graph           → structure + content hash of a spec's graph
//	POST /v1/profile         → profile.Report (§3), synthetic trace
//	POST /v1/profile/stream  → profile.Report against a client-supplied trace
//	POST /v1/partition       → AutoPartition assignment + sustainable rate
//	POST /v1/simulate        → runtime.Result (§7.3), explicit or auto cut
//	POST /v1/simulate/stream → streaming ingestion; optional replan control loop
//	GET  /v1/stats           → metrics snapshot
//	GET  /healthz            → liveness
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"wishbone/internal/core"
	"wishbone/internal/dataflow"
	"wishbone/internal/freelist"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	wbruntime "wishbone/internal/runtime"
	"wishbone/internal/solver"
	"wishbone/internal/wire"
	"wishbone/internal/wvm"
)

// Config tunes a Server.
type Config struct {
	// CacheEntries bounds the content-addressed LRU (graphs, Programs,
	// reports). 0 means 256.
	CacheEntries int

	// MaxJobs bounds concurrently executing heavy requests (profile,
	// partition, simulate); excess requests queue. 0 means GOMAXPROCS.
	MaxJobs int

	// SimWorkers bounds each simulation's node worker pool. 0 lets the
	// runtime use GOMAXPROCS.
	SimWorkers int

	// StreamMaxBuffered bounds a streaming simulation's window buffer
	// (arrivals held for the ingestion window in progress). A tenant
	// whose firehose exceeds it gets 429 with code "backpressure" instead
	// of occupying a job slot while the buffer grows. 0 means 1<<18.
	StreamMaxBuffered int

	// MaxShardSessions bounds concurrently open shard-host sessions
	// (/v1/shard/open; each pins per-origin instances until closed).
	// Excess opens get 429. 0 means 256.
	MaxShardSessions int

	// ReplanMaxPerSession caps mid-stream re-partitions per controlled
	// session regardless of the tenant's requested MaxReplans: each
	// replan runs a solver inside the tenant's stream, so an operator can
	// bound that work. 0 means no server-side cap.
	ReplanMaxPerSession int
}

// Server implements the partition service. Create with New, expose with
// Handler, and stop by shutting down the owning http.Server (its Shutdown
// drains in-flight requests, which drain the job pool).
type Server struct {
	cfg     Config
	cache   *Cache
	metrics *Metrics
	jobs    chan struct{}
	mux     *http.ServeMux

	mu     sync.Mutex
	closed bool

	// retiredFuel holds the metering counters of evicted wscript entries,
	// keyed by graph content hash: the cache's OnEvict folds a retiring
	// entry's meter in here, so /v1/stats "fuel" stays cumulative across
	// eviction (a rebuilt entry starts a fresh meter at zero — resident
	// plus retired is the true total, never double-counted).
	fuelMu      sync.Mutex
	retiredFuel map[string]FuelSnapshot

	// Shard-host sessions (see shard.go): the only cross-request mutable
	// state the server keeps besides the cache.
	shardMu       sync.Mutex
	shardSessions map[string]*shardSession
	shardClosed   bool
	shardExpired  int64 // idle sessions a full table evicted
	// scratches lists released compute scratches, at most MaxJobs
	// (releaseScratch).
	scratches freelist.List[*computeScratch]

	// now is the lease clock (tests substitute a fake one).
	now func() time.Time
	// bodyIdle bounds a request body's silence (tests shorten it).
	bodyIdle time.Duration
}

// New returns a ready Server.
func New(cfg Config) *Server {
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		cfg:           cfg,
		cache:         NewCache(cfg.CacheEntries),
		metrics:       NewMetrics(),
		jobs:          make(chan struct{}, cfg.MaxJobs),
		mux:           http.NewServeMux(),
		retiredFuel:   make(map[string]FuelSnapshot),
		shardSessions: make(map[string]*shardSession),
		now:           time.Now,
		bodyIdle:      bodyIdle,
	}
	s.scratches.Max = cfg.MaxJobs
	s.cache.OnEvict(s.retireEntry)
	for i := range routes {
		rt := &routes[i]
		s.mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) { rt.serve(s, rt, w, r) })
	}
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close marks the server draining: new requests get 503 while the owning
// http.Server's Shutdown finishes the in-flight ones. Open shard-host
// sessions are aborted — their coordinator fails its next call and
// retries the whole run elsewhere.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.abortShardSessions()
}

// Stats returns the current metrics snapshot (also served at /v1/stats).
func (s *Server) Stats() Snapshot {
	snap := s.metrics.Snapshot(s.cache)
	snap.Batch = s.batchStats()
	snap.Fuel = s.fuelStats()
	s.shardMu.Lock()
	snap.ShardSessionsExpired = s.shardExpired
	s.shardMu.Unlock()
	return snap
}

// batchStats aggregates batch-hit counters across every cached partition
// Program pair, keyed by operator name. Instances fold their local counters
// into the Program at release, so the totals cover every simulation the
// cache served (including shard-host sessions). Cached profiling Programs
// keep no batch-hit counters.
func (s *Server) batchStats() map[string]BatchSnapshot {
	agg := make(map[string]BatchSnapshot)
	s.cache.Each(func(val any) {
		pp, ok := val.(*partitionPrograms)
		if !ok {
			return
		}
		for _, st := range append(pp.node.BatchStats(), pp.server.BatchStats()...) {
			b := agg[st.Op.Name]
			b.Batched += st.Batched
			b.Total += st.Total
			agg[st.Op.Name] = b
		}
	})
	if len(agg) == 0 {
		return nil
	}
	for name, b := range agg {
		b.HitRate = float64(b.Batched) / float64(b.Total)
		agg[name] = b
	}
	return agg
}

// retireEntry is the cache's eviction hook: it folds an evicted wscript
// entry's meter into the persistent per-graph totals before the entry
// (and its meter) become garbage.
func (s *Server) retireEntry(val any) {
	e, ok := val.(*entry)
	if !ok || e.meter == nil {
		return
	}
	s.fuelMu.Lock()
	defer s.fuelMu.Unlock()
	f := s.retiredFuel[e.key]
	f.Fuel += e.meter.Fuel()
	f.Calls += e.meter.Calls()
	f.FuelTrips += e.meter.FuelTrips()
	f.MemTrips += e.meter.MemTrips()
	s.retiredFuel[e.key] = f
}

// fuelStats aggregates VM metering counters across every resident wscript
// entry, keyed by graph content hash, plus the retired totals of evicted
// ones. Budget variants of one program are distinct entries sharing the
// key, so a graph's row covers all of them.
func (s *Server) fuelStats() map[string]FuelSnapshot {
	agg := make(map[string]FuelSnapshot)
	s.fuelMu.Lock()
	for key, f := range s.retiredFuel {
		agg[key] = f
	}
	s.fuelMu.Unlock()
	s.cache.Each(func(val any) {
		e, ok := val.(*entry)
		if !ok || e.meter == nil {
			return
		}
		f := agg[e.key]
		f.Fuel += e.meter.Fuel()
		f.Calls += e.meter.Calls()
		f.FuelTrips += e.meter.FuelTrips()
		f.MemTrips += e.meter.MemTrips()
		agg[e.key] = f
	})
	if len(agg) == 0 {
		return nil
	}
	return agg
}

// httpError carries a status code (and optional machine-readable error
// code) through the handler helpers.
type httpError struct {
	code int
	kind string // wire.ErrorResponse.Code, e.g. "backpressure"
	err  error
}

func (e *httpError) Error() string { return e.err.Error() }

func badRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, err: fmt.Errorf(format, args...)}
}

func overloaded(err error) error {
	return &httpError{code: http.StatusTooManyRequests, kind: "backpressure", err: err}
}

// meteringError maps a wscript VM budget trip to a typed 422, or returns
// nil for anything else. Callers check it before the generic bad-arrival →
// 400 mapping: a metered abort is the tenant's program exceeding its own
// budget, not a malformed request, and the typed code lets clients react
// (raise the budget, shrink the program) without parsing text.
func meteringError(err error) error {
	switch {
	case errors.Is(err, wvm.ErrFuelExhausted):
		return &httpError{code: http.StatusUnprocessableEntity, kind: "fuel_exhausted", err: err}
	case errors.Is(err, wvm.ErrMemLimit):
		return &httpError{code: http.StatusUnprocessableEntity, kind: "mem_limit", err: err}
	}
	return nil
}

// runGuarded invokes f, converting error-typed panics — wscript runtime
// aborts, VM metering trips — into returned errors. The profile paths
// execute work functions on the request goroutine without the runtime's
// recovery, and net/http would silently swallow the panic (one empty 200
// and a dead connection). Non-error panics are real bugs and propagate.
func runGuarded(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(error)
			if !ok {
				panic(r)
			}
			err = e
		}
	}()
	return f()
}

// limitsOf converts the wire budget (absent = unlimited).
func limitsOf(lw *wire.LimitsWire) wvm.Limits {
	if lw == nil {
		return wvm.Limits{}
	}
	return wvm.Limits{Fuel: lw.Fuel, MemBytes: lw.MemBytes}
}

// route is one row of the registration table: where a request arrives,
// the /v1/stats endpoint key it is metered under, and whether its business
// function runs inside a job slot. The slot column is a table constant,
// not a setting: the heavy routes (elaboration is as costly as profiling
// for large specs, so /v1/graph counts) queue behind MaxJobs, while the
// shard-session bookkeeping calls must stay answerable with every slot
// busy — a coordinator tears down the very sessions that occupy them.
type route struct {
	pattern string
	metric  string
	slot    bool
	serve   routeHandler
}

// routeHandler serves one request of route rt on server s.
type routeHandler func(s *Server, rt *route, w http.ResponseWriter, r *http.Request)

// routes is every metered endpoint of the service. New registers exactly
// these rows and the route-table test walks the same slice, so a route
// cannot exist without the body bound, the metric and the slot policy the
// adapter enforces through the business-function signature.
var routes = []route{
	{"POST /v1/graph", "graph", true, plain((*Server).graph)},
	{"POST /v1/profile", "profile", true, plain((*Server).profile)},
	{"POST /v1/profile/stream", "profile_stream", true, endpoint((*Server).profileStream)},
	{"POST /v1/partition", "partition", true, plain((*Server).partition)},
	{"POST /v1/simulate", "simulate", true, plain((*Server).simulate)},
	{"POST /v1/simulate/stream", "simulate_stream", true, endpoint((*Server).simulateStream)},
	{"POST /v1/shard/open", "shard_open", true, plain((*Server).shardOpen)},
	{"POST /v1/shard/compute", "shard_compute", true, endpoint((*Server).shardCompute)},
	{"POST /v1/shard/deliver", "shard_deliver", true, plain((*Server).shardDeliver)},
	{"POST /v1/shard/checkpoint", "shard_checkpoint", false, plain((*Server).shardCheckpoint)},
	{"POST /v1/shard/close", "shard_close", false, plain((*Server).shardClose)},
	{"POST /v1/shard/abort", "shard_abort", false, plain((*Server).shardAbort)},
}

// endpoint adapts a business function to a route. It is the one place a
// request becomes a metered, bounded, slot-governed call: it times the
// request into the route's metric, decodes the first JSON value of the
// body — the whole request, or a streaming route's header — under the
// body budget, holds a job slot around fn when the route says so, and
// writes fn's response or its error's status. fn reports (response,
// served-from-cache, error) and sees nothing of HTTP; a streaming fn
// keeps decoding its chunks from the same budgeted body.
func endpoint[Req, Resp any](fn func(*Server, context.Context, *Req, *requestBody) (Resp, bool, error)) routeHandler {
	return func(s *Server, rt *route, w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var hit bool
		var err error
		defer func() { s.metrics.Observe(rt.metric, time.Since(start), hit, err) }()
		body := &requestBody{src: r.Body, rc: http.NewResponseController(w), idle: s.bodyIdle}
		body.Decoder = json.NewDecoder(body)
		var req Req
		if err = body.Decode(&req); err != nil {
			err = bodyError(err)
			fail(w, err)
			return
		}
		body.renew()
		if rt.slot {
			if err = s.acquireJob(r.Context()); err != nil {
				fail(w, err)
				return
			}
			defer s.releaseJob()
		}
		var resp Resp
		if resp, hit, err = fn(s, r.Context(), &req, body); err != nil {
			fail(w, err)
			return
		}
		respond(w, resp)
	}
}

// plain is endpoint for the routes whose body is one JSON value.
func plain[Req, Resp any](fn func(*Server, context.Context, *Req) (Resp, bool, error)) routeHandler {
	return endpoint(func(s *Server, ctx context.Context, req *Req, _ *requestBody) (Resp, bool, error) {
		return fn(s, ctx, req)
	})
}

// respond writes v as JSON.
func respond(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// fail writes the error with its status code (500 unless wrapped).
func fail(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	kind := ""
	if he, ok := err.(*httpError); ok {
		code = he.code
		kind = he.kind
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(wire.ErrorResponse{Error: err.Error(), Code: kind})
}

// maxBodyBytes bounds how much request body one JSON value may make the
// decoder buffer, and how long a /v1/shard/compute tail may be. The largest
// body the tests and benchmark workloads send is one compute window
// (528 698 B for dist-loopback: 1 s of 32 origins); a default 10 s window
// from `wishbone -hosts` is about ten times that, so the bound leaves room
// well above it while still refusing to buffer without limit.
const maxBodyBytes = 64 << 20

var (
	errBodyTooLarge = errors.New("request body value exceeds the size limit")
	errBodyIdle     = errors.New("request body stalled past the idle bound")
)

// requestBody is a request's JSON decoder reading through a byte budget.
// A plain route spends one budget on its whole body; the compute route one
// on its header and one on its binary tail. A streaming route's
// body has no total bound — the trace is never resident — so renew grants
// a fresh budget after the header and after every arrival: what is capped
// is the single value the decoder would otherwise buffer whole. Every read
// gets idle to deliver a byte; net/http lifts the deadline when the body
// ends, so a handler computing past it keeps its connection and context.
type requestBody struct {
	*json.Decoder
	src   io.Reader
	spent int64
	rc    *http.ResponseController // nil: no idle bound
	idle  time.Duration
}

func (b *requestBody) Read(p []byte) (int, error) {
	if b.spent >= maxBodyBytes {
		return 0, errBodyTooLarge
	}
	if room := maxBodyBytes - b.spent; int64(len(p)) > room {
		p = p[:room]
	}
	if b.rc != nil {
		// A writer without deadlines (ErrNotSupported) leaves the body
		// unbounded in time, as before; the read itself is still valid.
		_ = b.rc.SetReadDeadline(time.Now().Add(b.idle))
	}
	n, err := b.src.Read(p)
	b.spent += int64(n)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		err = errBodyIdle
	}
	return n, err
}

func (b *requestBody) renew() { b.spent = 0 }

// bodyError maps a decoder failure on the request body to its status.
func bodyError(err error) error {
	switch {
	case errors.Is(err, errBodyTooLarge):
		return &httpError{code: http.StatusRequestEntityTooLarge, kind: "body_too_large", err: err}
	case errors.Is(err, errBodyIdle):
		return &httpError{code: http.StatusRequestTimeout, kind: "idle", err: err}
	}
	return badRequest("bad request body: %v", err)
}

// acquireJob takes a slot in the bounded pool, waiting in the queue until
// one frees or the request is abandoned.
func (s *Server) acquireJob(ctx context.Context) error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return &httpError{code: http.StatusServiceUnavailable, err: fmt.Errorf("server: shutting down")}
	}
	s.metrics.JobQueued()
	defer s.metrics.JobDequeued()
	select {
	case s.jobs <- struct{}{}:
		s.metrics.JobStarted()
		return nil
	case <-ctx.Done():
		return &httpError{code: http.StatusServiceUnavailable, err: ctx.Err()}
	}
}

func (s *Server) releaseJob() {
	<-s.jobs
	s.metrics.JobFinished()
}

// getEntry resolves a (GraphSpec, limits) pair to its cached entry,
// building on miss. Limits are part of the key: they compile into the
// graph's work functions, so tenants running the same program under
// different budgets get separate entries (and separate meters).
func (s *Server) getEntry(spec wire.GraphSpec, lim wvm.Limits) (*entry, bool, error) {
	v, hit, err := s.cache.Get("graph:"+specHash(spec)+limitsKey(lim), func() (any, error) {
		return buildEntry(spec, lim)
	})
	if err != nil {
		return nil, false, badRequest("%v", err)
	}
	return v.(*entry), hit, nil
}

// partitionPrograms is the cached compiled pair for one (graph, cut).
type partitionPrograms struct {
	node   *dataflow.Program
	server *dataflow.Program
}

// profileProgram returns the entry's cached profiling Program.
func (s *Server) profileProgram(e *entry) (*dataflow.Program, bool, error) {
	v, hit, err := s.cache.Get("prog:"+e.id+":profile", func() (any, error) {
		return profile.CompileForProfiling(e.graph)
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*dataflow.Program), hit, nil
}

// partitionProgramsFor returns the cached node/server Program pair for a
// cut of the entry's graph.
func (s *Server) partitionProgramsFor(e *entry, onNode map[int]bool) (*partitionPrograms, bool, error) {
	key := "prog:" + e.id + ":part:" + partitionHash(onNode)
	v, hit, err := s.cache.Get(key, func() (any, error) {
		node, srv, err := wbruntime.CompilePartition(e.graph, onNode)
		if err != nil {
			return nil, err
		}
		return &partitionPrograms{node: node, server: srv}, nil
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*partitionPrograms), hit, nil
}

// profiledReport returns the entry's cached profile for a trace spec,
// profiling through the cached Program on miss.
func (s *Server) profiledReport(e *entry, t wire.TraceSpec) (*profile.Report, bool, error) {
	key := fmt.Sprintf("report:%s:%d:%g:%d", e.id, t.Seed, t.Seconds, t.Events)
	progHit := true
	v, hit, err := s.cache.Get(key, func() (any, error) {
		prog, ph, err := s.profileProgram(e)
		if err != nil {
			return nil, err
		}
		progHit = ph
		inputs := e.traces(t)
		if len(inputs) == 0 {
			return nil, fmt.Errorf("server: graph has no profiling inputs")
		}
		var rep *profile.Report
		rerr := runGuarded(func() error {
			var err error
			rep, err = profile.RunProgram(prog, inputs)
			return err
		})
		return rep, rerr
	})
	if err != nil {
		if me := meteringError(err); me != nil {
			return nil, false, me
		}
		return nil, false, err
	}
	return v.(*profile.Report), hit || progHit, nil
}

// maxSimNodes bounds client-requested deployment sizes: a simulation
// allocates per-node instances (O(#operators) tables each) up front, so
// an unbounded nodes field is an OOM vector, not a capacity question.
const maxSimNodes = 4096

// defaultStreamMaxBuffered is the default per-session window-buffer
// bound for /v1/simulate/stream (Config.StreamMaxBuffered): enough for
// 64 nodes at 40 ev/s over a 60 s window with headroom, far below the
// runtime's own hard cap.
const defaultStreamMaxBuffered = 1 << 18

func checkSimSize(nodes int, duration float64) error {
	if nodes <= 0 || duration <= 0 {
		return badRequest("need positive nodes and duration")
	}
	if nodes > maxSimNodes {
		return badRequest("nodes %d exceeds the per-simulation cap %d", nodes, maxSimNodes)
	}
	return nil
}

// parseMode maps the wire mode string.
func parseMode(mode string) (dataflow.Mode, error) {
	switch mode {
	case "", "permissive":
		return dataflow.Permissive, nil
	case "conservative":
		return dataflow.Conservative, nil
	default:
		return 0, badRequest("unknown mode %q (want permissive or conservative)", mode)
	}
}

// parsePlatform resolves the platform name.
func parsePlatform(name string) (*platform.Platform, error) {
	if name == "" {
		return nil, badRequest("missing platform")
	}
	p := platform.ByName(name)
	if p == nil {
		return nil, badRequest("unknown platform %q", name)
	}
	return p, nil
}

func (s *Server) graph(_ context.Context, req *wire.GraphRequest) (*wire.GraphResponse, bool, error) {
	e, hit, err := s.getEntry(req.Graph, wvm.Limits{})
	if err != nil {
		return nil, false, err
	}
	return &wire.GraphResponse{GraphHash: e.key, Graph: wire.NewGraphWire(e.graph)}, hit, nil
}

func (s *Server) profile(_ context.Context, req *wire.ProfileRequest) (*wire.ProfileResponse, bool, error) {
	e, entryHit, err := s.getEntry(req.Graph, wvm.Limits{})
	if err != nil {
		return nil, false, err
	}
	rep, repHit, err := s.profiledReport(e, traceDefaults(req.Trace))
	if err != nil {
		return nil, false, err
	}
	hit := entryHit && repHit
	return &wire.ProfileResponse{GraphHash: e.key, CacheHit: hit, Report: wire.NewReportWire(rep)}, hit, nil
}

func (s *Server) partition(ctx context.Context, req *wire.PartitionRequest) (*wire.PartitionResponse, bool, error) {
	e, res, hit, err := s.autoPartition(ctx, req.Graph, req.Trace, req.Platform, req.Mode, req.Solver)
	if err != nil {
		return nil, false, err
	}
	return &wire.PartitionResponse{
		GraphHash:    e.key,
		CacheHit:     hit,
		RateMultiple: res.RateMultiple,
		Probes:       res.Probes,
		Assignment:   wire.NewAssignmentWire(e.graph, res.Assignment),
	}, hit, nil
}

// autoPartition is the shared auto-partition step — /v1/partition, and a
// simulation's cut when the request names none: profile the graph's
// unmetered entry on the synthetic trace, then run the §4.3 rate search
// with the named solver backend, feeding every backend invocation into
// the per-solver latency metrics. hit reports whether the entry and
// its report both came from cache.
func (s *Server) autoPartition(ctx context.Context, graph wire.GraphSpec, trace wire.TraceSpec,
	platformName, modeName, solverName string) (e *entry, res *core.AutoResult, hit bool, err error) {
	mode, err := parseMode(modeName)
	if err != nil {
		return nil, nil, false, err
	}
	plat, err := parsePlatform(platformName)
	if err != nil {
		return nil, nil, false, err
	}
	search, err := s.rateSearch(solverName)
	if err != nil {
		return nil, nil, false, err
	}
	e, entryHit, err := s.getEntry(graph, wvm.Limits{})
	if err != nil {
		return nil, nil, false, err
	}
	rep, repHit, err := s.profiledReport(e, traceDefaults(trace))
	if err != nil {
		return nil, nil, false, err
	}
	cls, err := e.classify(mode)
	if err != nil {
		return nil, nil, false, badRequest("%v", err)
	}
	spec := profile.BuildSpec(cls, rep, plat)
	res, err = search(ctx, spec, 1.0)
	if err != nil {
		return nil, nil, false, err
	}
	if res.Assignment == nil {
		return nil, nil, false, &httpError{
			code: http.StatusUnprocessableEntity,
			err:  fmt.Errorf("no feasible partition at any rate on %s", plat.Name),
		}
	}
	return e, res, entryHit && repHit, nil
}

// rateSearch builds the named solver backend and returns the paper's
// decision procedure over it: core.AutoPartitionWith from rate scale hi,
// every probe's backend stats folded into the per-solver metrics. Every
// served solve — /v1/partition and a stream's replans — runs through it,
// so this is the one place a served solve is bounded. An unknown backend
// is a bad request.
func (s *Server) rateSearch(solverName string) (func(ctx context.Context, spec *core.Spec, hi float64) (*core.AutoResult, error), error) {
	sv, err := solver.New(solverName, core.DefaultOptions())
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return func(ctx context.Context, spec *core.Spec, hi float64) (*core.AutoResult, error) {
		res, err := core.AutoPartitionWith(ctx, spec, hi, 0.005, core.Limits{}, sv)
		if res != nil {
			s.observeSolves(res.Solves)
		}
		return res, err
	}, nil
}

// observeSolves folds per-probe backend stats into the metrics.
func (s *Server) observeSolves(solves []core.BackendStats) {
	for _, st := range solves {
		s.metrics.ObserveSolver(st.Backend, time.Duration(st.Seconds*float64(time.Second)),
			st.Feasible, st.Err != "")
	}
}

// runSpec is what every simulation entry point's request says about the
// run itself, lifted out of the three wire shapes (SimulateRequest,
// SimulateStreamRequest, ShardOpenRequest) that carry it.
type runSpec struct {
	graph    wire.GraphSpec
	limits   *wire.LimitsWire
	platform string

	// The cut: the explicit on-node operator IDs, or — when auto is set —
	// the shared auto-partition step over (trace, mode, solver).
	onNode       []int
	auto         bool
	trace        wire.TraceSpec
	mode, solver string
	rateScale    float64 // 0 adopts the auto-partition's rate multiple, else 1

	nodes    int
	duration float64
	seed     int64
	shards   int
	scenario *wire.ScenarioWire
}

// resolveRun turns a runSpec into the run's cached entry and a
// runtime.Config carrying everything the three entry points share: graph,
// cut, compiled Programs, platform, deployment size, seed, worker and
// shard budgets, the applied rate (Config.RateScale) and the scenario.
// Callers add only what differs — inputs; window, buffer and resume;
// origins. hit reports whether everything came from cache.
func (s *Server) resolveRun(ctx context.Context, rs *runSpec) (e *entry, cfg wbruntime.Config, hit bool, err error) {
	plat, err := parsePlatform(rs.platform)
	if err != nil {
		return nil, cfg, false, err
	}
	if err := checkSimSize(rs.nodes, rs.duration); err != nil {
		return nil, cfg, false, err
	}
	e, hit, err = s.getEntry(rs.graph, limitsOf(rs.limits))
	if err != nil {
		return nil, cfg, false, err
	}
	rate := rs.rateScale
	var onNode map[int]bool
	if rs.auto {
		_, res, planHit, err := s.autoPartition(ctx, rs.graph, rs.trace, rs.platform, rs.mode, rs.solver)
		if err != nil {
			return nil, cfg, false, err
		}
		hit = hit && planHit
		onNode = res.Assignment.OnNode
		if rate <= 0 {
			rate = res.RateMultiple
		}
	} else {
		onNode = make(map[int]bool, e.graph.NumOperators())
		for _, op := range e.graph.Operators() {
			onNode[op.ID()] = false
		}
		for _, id := range rs.onNode {
			if e.graph.ByID(id) == nil {
				return nil, cfg, false, badRequest("onNode lists unknown operator %d", id)
			}
			onNode[id] = true
		}
	}
	if rate <= 0 {
		rate = 1
	}
	scenario, err := scenarioFromWire(rs.scenario)
	if err != nil {
		return nil, cfg, false, err
	}
	progs, progHit, err := s.partitionProgramsFor(e, onNode)
	if err != nil {
		return nil, cfg, false, err
	}
	return e, wbruntime.Config{
		Graph:         e.graph,
		OnNode:        onNode,
		Platform:      plat,
		Nodes:         rs.nodes,
		Duration:      rs.duration,
		RateScale:     rate,
		Seed:          rs.seed,
		Workers:       s.cfg.SimWorkers,
		Shards:        rs.shards,
		Scenario:      scenario,
		NodeProgram:   progs.node,
		ServerProgram: progs.server,
	}, hit && progHit, nil
}

func (s *Server) simulate(ctx context.Context, req *wire.SimulateRequest) (*wire.SimulateResponse, bool, error) {
	e, cfg, hit, err := s.resolveRun(ctx, &runSpec{
		graph: req.Graph, limits: req.Limits, platform: req.Platform,
		onNode: req.OnNode, auto: len(req.OnNode) == 0,
		trace: req.Trace, mode: req.Mode, solver: req.Solver, rateScale: req.RateScale,
		nodes: req.Nodes, duration: req.Duration, seed: req.Seed, shards: req.Shards,
		scenario: req.Scenario,
	})
	if err != nil {
		return nil, false, err
	}
	t := traceDefaults(req.Trace)
	if req.DistinctTraces {
		cfg.Inputs = func(nodeID int) []profile.Input {
			tt := t
			tt.Seed = t.Seed + int64(nodeID)
			return e.traces(tt)
		}
	} else {
		shared := e.traces(t)
		if len(shared) == 0 {
			return nil, false, badRequest("graph has no trace inputs")
		}
		cfg.Inputs = func(nodeID int) []profile.Input { return shared }
	}

	// Run executes work functions only under its own recovery (a panic on
	// any of its goroutines returns as an ErrBadArrival-wrapped error with
	// the metering error in the chain), so it needs no runGuarded.
	res, err := wbruntime.Run(cfg)
	if err != nil {
		if me := meteringError(err); me != nil {
			return nil, false, me
		}
		return nil, false, badRequest("%v", err)
	}
	return &wire.SimulateResponse{
		GraphHash:    e.key,
		CacheHit:     hit,
		RateMultiple: cfg.RateScale,
		Result:       resultToWire(res),
	}, hit, nil
}

// streamSession is the ingestion surface ingestStream drives: a runtime
// Session or the profile-stream collector.
type streamSession interface {
	OfferRaw(nodeID int, t float64, src *dataflow.Operator, typ string, raw []byte) error
}

// simulateStream is the streaming-ingestion endpoint: the body is a
// SimulateStreamRequest header followed by StreamChunk objects until EOF
// (chunked JSON). Arrivals feed straight into a runtime.Session, so the
// trace is never materialized server-side.
func (s *Server) simulateStream(ctx context.Context, req *wire.SimulateStreamRequest, body *requestBody) (*wire.SimulateResponse, bool, error) {
	e, scfg, hit, err := s.resolveRun(ctx, &runSpec{
		graph: req.Graph, limits: req.Limits, platform: req.Platform,
		onNode: req.OnNode, auto: len(req.OnNode) == 0,
		trace: req.Trace, mode: req.Mode, solver: req.Solver,
		nodes: req.Nodes, duration: req.Duration, seed: req.Seed, shards: req.Shards,
		scenario: req.Scenario,
	})
	if err != nil {
		return nil, false, err
	}
	scfg.WindowSeconds = req.WindowSeconds
	scfg.MaxBufferedArrivals = s.cfg.StreamMaxBuffered
	if scfg.MaxBufferedArrivals <= 0 {
		scfg.MaxBufferedArrivals = defaultStreamMaxBuffered
	}
	var sess *wbruntime.Session
	if len(req.Resume) > 0 {
		// Continue a session snapshotted by an earlier stream request —
		// here or on another host; the runtime verifies the run identity
		// (graph structure, cut, platform, nodes, duration, seed, window).
		sess, err = wbruntime.ResumeSession(scfg, req.Resume)
	} else {
		sess, err = wbruntime.NewSession(scfg)
	}
	if err != nil {
		return nil, false, badRequest("%v", err)
	}

	// With Replan set, attach the control loop. This composes with Resume
	// — a resumed stream restarts drift detection with the post-resume
	// load as its baseline.
	if req.Replan != nil {
		planner, perr := s.replanPlanner(ctx, e, req, scfg.Platform)
		if perr != nil {
			sess.Close()
			return nil, false, perr
		}
		sess.EnableReplan(s.sessionReplanPolicy(req.Replan), planner, nil)
	}
	finish := func(resp *wire.SimulateResponse) *wire.SimulateResponse {
		if req.Replan == nil {
			return resp
		}
		events := sess.Replans()
		moves, kept := 0, 0
		for _, ev := range events {
			if len(ev.Moved) == 0 {
				kept++
			}
			moves += len(ev.Moved)
		}
		s.metrics.ObserveReplanSession(len(events), moves, kept)
		resp.Replans = replansToWire(events)
		return resp
	}

	snap, err := ingestStream(body, e, sess)
	if err != nil {
		sess.Close()
		return nil, false, err
	}
	if snap {
		data, err := sess.Snapshot()
		if err != nil {
			// A graph without snapshot codecs fails before teardown — the
			// session is still open; release it and report the fault.
			sess.Close()
			return nil, false, badRequest("%v", err)
		}
		return finish(&wire.SimulateResponse{
			GraphHash:    e.key,
			CacheHit:     hit,
			RateMultiple: scfg.RateScale,
			Snapshot:     data,
		}), hit, nil
	}
	res, err := sess.Close()
	if err != nil {
		// The final window's work runs inside Close, so what surfaces at
		// teardown maps as an Offer failure does: a budget trip is the
		// tenant's 422, a work-function panic on an arrival a 400, and
		// only an engine invariant a 500.
		return nil, false, runtimeError(err)
	}
	return finish(&wire.SimulateResponse{
		GraphHash:    e.key,
		CacheHit:     hit,
		RateMultiple: scfg.RateScale,
		Result:       resultToWire(res),
	}), hit, nil
}

// replanPolicy maps the wire control-loop knobs onto the runtime policy.
func replanPolicy(rw *wire.ReplanWire) wbruntime.ReplanPolicy {
	return wbruntime.ReplanPolicy{
		Threshold:  rw.Threshold,
		Hysteresis: rw.Hysteresis,
		Cooldown:   rw.Cooldown,
		Decay:      rw.Decay,
		MaxReplans: rw.MaxReplans,
	}
}

// sessionReplanPolicy applies the operator's per-session replan cap on
// top of the tenant's requested policy: a configured ReplanMaxPerSession
// overrides both "unlimited" (0) and any larger tenant value.
func (s *Server) sessionReplanPolicy(rw *wire.ReplanWire) wbruntime.ReplanPolicy {
	policy := replanPolicy(rw)
	if max := s.cfg.ReplanMaxPerSession; max > 0 && (policy.MaxReplans == 0 || policy.MaxReplans > max) {
		policy.MaxReplans = max
	}
	return policy
}

// replansToWire copies the control loop's event log onto the wire.
func replansToWire(events []wbruntime.ReplanEvent) []wire.ReplanEventWire {
	if len(events) == 0 {
		return nil
	}
	out := make([]wire.ReplanEventWire, len(events))
	for i, ev := range events {
		out[i] = wire.ReplanEventWire{
			Time:         ev.Time,
			PlannedLoad:  ev.PlannedLoad,
			ObservedLoad: ev.ObservedLoad,
			RateMultiple: ev.RateMultiple,
			Moved:        ev.Moved,
			Solver:       ev.Solver,
		}
	}
	return out
}

// replanPlanner builds a streaming session's mid-stream planner: on drift
// it re-solves the partition on the profiled spec scaled by the observed
// load multiple (§4.3: load is linear in rate, so the incumbent profile
// re-prices by scaling), through the tenant's chosen backend, and compiles
// the new cut's programs from cache. An omitted or "auto" solver is
// "exact", so a replan depends only on the profile, the observed multiple
// and the request — never on what earlier tenants solved.
func (s *Server) replanPlanner(ctx context.Context, e *entry, req *wire.SimulateStreamRequest, plat *platform.Platform) (wbruntime.Planner, error) {
	mode, err := parseMode(req.Mode)
	if err != nil {
		return nil, err
	}
	cls, err := e.classify(mode)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	rep, _, err := s.profiledReport(e, traceDefaults(req.Trace))
	if err != nil {
		return nil, err
	}
	spec := profile.BuildSpec(cls, rep, plat)
	name := req.Replan.Solver
	if name == "" || name == "auto" {
		name = core.SolverExact
	}
	// Build the solver now — a planner error mid-stream poisons the
	// session, a bad request should fail before ingestion starts.
	search, err := s.rateSearch(name)
	if err != nil {
		return nil, err
	}
	return func(multiple float64) (*wbruntime.Plan, error) {
		if multiple <= 0 {
			return nil, nil // load vanished; nothing to re-fit
		}
		res, err := search(ctx, spec, multiple)
		if err != nil {
			return nil, err
		}
		if res.Assignment == nil {
			return nil, nil // infeasible at any rate: keep the incumbent cut
		}
		progs, _, err := s.partitionProgramsFor(e, res.Assignment.OnNode)
		if err != nil {
			return nil, err
		}
		return &wbruntime.Plan{
			OnNode:        res.Assignment.OnNode,
			NodeProgram:   progs.node,
			ServerProgram: progs.server,
			Solver:        res.Assignment.Stats.Solver,
		}, nil
	}, nil
}

// profileStream is the client-trace profiling endpoint: the body is a
// ProfileStreamRequest header followed by StreamChunk objects until EOF,
// exactly like /v1/simulate/stream. Instead of the synthetic trace, the
// profiler measures operator costs and edge rates against the tenant's
// own arrivals — the profile the control plane's drift detection and
// re-planning consume. The resulting report is trace-specific and never
// cached.
func (s *Server) profileStream(_ context.Context, req *wire.ProfileStreamRequest, body *requestBody) (*wire.ProfileResponse, bool, error) {
	e, _, err := s.getEntry(req.Graph, wvm.Limits{})
	if err != nil {
		return nil, false, err
	}
	prog, _, err := s.profileProgram(e)
	if err != nil {
		return nil, false, err
	}
	pc := newProfileCollector(e.graph)
	if snap, err := ingestStream(body, e, pc); err != nil {
		return nil, false, err
	} else if snap {
		// Stopping here would profile a truncated trace.
		return nil, false, badRequest("the snapshot directive is for /v1/simulate/stream only")
	}
	inputs, err := pc.inputs(req.Rate)
	if err != nil {
		return nil, false, err
	}
	var rep *profile.Report
	rerr := runGuarded(func() error {
		var err error
		rep, err = profile.RunProgram(prog, inputs)
		return err
	})
	if rerr != nil {
		if me := meteringError(rerr); me != nil {
			return nil, false, me
		}
		return nil, false, badRequest("%v", rerr)
	}
	return &wire.ProfileResponse{GraphHash: e.key, Report: wire.NewReportWire(rep)}, false, nil
}

// profileCollector is the streamSession that backs /v1/profile/stream: it
// decodes each raw arrival through the runtime's arena-backed decoder and
// accumulates a per-source trace. Arrivals from every node fold into one
// trace per source — the profiler prices a representative node, the way
// the synthetic-trace path does.
type profileCollector struct {
	g      *dataflow.Graph
	dec    wbruntime.ArrivalDecoder
	traces map[int]*sourceTrace
}

type sourceTrace struct {
	events      []dataflow.Value
	first, last float64
}

func newProfileCollector(g *dataflow.Graph) *profileCollector {
	return &profileCollector{g: g, traces: make(map[int]*sourceTrace)}
}

// OfferRaw implements streamSession over the collector.
func (pc *profileCollector) OfferRaw(nodeID int, t float64, src *dataflow.Operator, typ string, raw []byte) error {
	if len(pc.g.In(src)) > 0 {
		return badRequest("arrival source operator %s is not a graph source", src)
	}
	v, err := pc.dec.Decode(typ, raw)
	if err != nil {
		return badRequest("%v", err)
	}
	tr := pc.traces[src.ID()]
	if tr == nil {
		tr = &sourceTrace{first: t}
		pc.traces[src.ID()] = tr
	}
	if t < tr.first {
		tr.first = t
	}
	if t > tr.last {
		tr.last = t
	}
	tr.events = append(tr.events, v)
	return nil
}

// inputs assembles the profiling inputs, estimating each source's event
// rate from its arrival span unless rate overrides it.
func (pc *profileCollector) inputs(rate float64) ([]profile.Input, error) {
	var inputs []profile.Input
	for _, src := range pc.g.Sources() {
		tr := pc.traces[src.ID()]
		if tr == nil || len(tr.events) == 0 {
			continue
		}
		r := rate
		if r <= 0 {
			if span := tr.last - tr.first; span > 0 && len(tr.events) > 1 {
				r = float64(len(tr.events)-1) / span
			} else {
				r = 1
			}
		}
		inputs = append(inputs, profile.Input{Source: src, Events: tr.events, Rate: r})
	}
	if len(inputs) == 0 {
		return nil, badRequest("stream carried no arrivals")
	}
	return inputs, nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	respond(w, s.Stats())
}

// resultToWire converts a runtime.Result to its wire mirror (wire cannot
// import runtime). The two structs differ only in their tags, so it is a
// pointer conversion — a field added to one side alone stops compiling
// instead of being silently dropped.
func resultToWire(r *wbruntime.Result) *wire.ResultWire { return (*wire.ResultWire)(r) }
