package server

import (
	"sync"
	"time"
)

// Metrics aggregates per-endpoint counters and latencies plus cache,
// job-pool, per-solver-backend, and control-loop replan gauges. All
// methods are safe for concurrent use; Snapshot is what GET /v1/stats
// serves.
type Metrics struct {
	mu        sync.Mutex
	endpoints map[string]*endpointStats
	solvers   map[string]*solverStats
	replan    replanCounters
	inflight  int64
	queued    int64
}

// solverStats accumulates one backend's solve telemetry across requests.
type solverStats struct {
	Runs     int64
	Errors   int64
	Feasible int64
	total    time.Duration
	maxTime  time.Duration
}

// replanCounters accumulates control-loop activity across streaming
// sessions.
type replanCounters struct {
	Sessions int64 // controlled sessions served to completion
	Events   int64 // drift triggers (hysteresis filled)
	Moves    int64 // operator relocations summed over all events
	Kept     int64 // triggers where the planner kept the incumbent cut
}

// endpointStats accumulates one endpoint's counters.
type endpointStats struct {
	Requests  int64
	Errors    int64
	totalime  time.Duration
	maxTime   time.Duration
	CacheHits int64
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		endpoints: make(map[string]*endpointStats),
		solvers:   make(map[string]*solverStats),
	}
}

// ObserveSolver records one backend's solve: its latency, whether it
// produced a feasible answer, and whether it errored.
func (m *Metrics) ObserveSolver(backend string, d time.Duration, feasible, errored bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.solvers[backend]
	if s == nil {
		s = &solverStats{}
		m.solvers[backend] = s
	}
	s.Runs++
	if feasible {
		s.Feasible++
	}
	if errored {
		s.Errors++
	}
	s.total += d
	if d > s.maxTime {
		s.maxTime = d
	}
}

// ObserveReplanSession folds one finished controlled streaming session's
// control-loop activity into the stats: how many drift events fired, how
// many operators relocated in total, and how many triggers kept the
// incumbent cut.
func (m *Metrics) ObserveReplanSession(events, moves, kept int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.replan.Sessions++
	m.replan.Events += int64(events)
	m.replan.Moves += int64(moves)
	m.replan.Kept += int64(kept)
}

// Observe records one finished request.
func (m *Metrics) Observe(endpoint string, d time.Duration, cacheHit bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.endpoints[endpoint]
	if s == nil {
		s = &endpointStats{}
		m.endpoints[endpoint] = s
	}
	s.Requests++
	if err != nil {
		s.Errors++
	}
	if cacheHit {
		s.CacheHits++
	}
	s.totalime += d
	if d > s.maxTime {
		s.maxTime = d
	}
}

// JobStarted / JobFinished track the bounded pool's in-flight gauge;
// JobQueued / JobDequeued track callers waiting for a slot.
func (m *Metrics) JobStarted()  { m.mu.Lock(); m.inflight++; m.mu.Unlock() }
func (m *Metrics) JobFinished() { m.mu.Lock(); m.inflight--; m.mu.Unlock() }
func (m *Metrics) JobQueued()   { m.mu.Lock(); m.queued++; m.mu.Unlock() }
func (m *Metrics) JobDequeued() { m.mu.Lock(); m.queued--; m.mu.Unlock() }

// EndpointSnapshot is one endpoint's externally visible stats.
type EndpointSnapshot struct {
	Requests  int64   `json:"requests"`
	Errors    int64   `json:"errors"`
	CacheHits int64   `json:"cacheHits"`
	MeanMs    float64 `json:"meanMs"`
	MaxMs     float64 `json:"maxMs"`
}

// SolverSnapshot is one solver backend's externally visible stats: how
// often it ran, found a feasible cut, or failed, and its latency profile.
type SolverSnapshot struct {
	Runs     int64   `json:"runs"`
	Feasible int64   `json:"feasible"`
	Errors   int64   `json:"errors"`
	MeanMs   float64 `json:"meanMs"`
	MaxMs    float64 `json:"maxMs"`
}

// ReplanSnapshot is the control-plane section of /v1/stats: replan
// activity aggregated across every controlled streaming session.
type ReplanSnapshot struct {
	Sessions int64 `json:"sessions"`
	Events   int64 `json:"events"`
	Moves    int64 `json:"moves"`
	Kept     int64 `json:"kept"`
}

// BatchSnapshot is one operator's batch-hit counters aggregated across
// every cached compiled Program (dataflow.Program.BatchStats): how many
// elements it processed and how many arrived through a BatchWork
// dispatch.
type BatchSnapshot struct {
	Batched int64   `json:"batched"`
	Total   int64   `json:"total"`
	HitRate float64 `json:"hitRate"`
}

// FuelSnapshot is one wscript graph's accumulated VM metering telemetry,
// aggregated across every resident entry compiled from that source
// (budget variants share the graph's content key): abstract operations
// spent, work-function invocations, and how many invocations tripped the
// fuel or memory budget.
type FuelSnapshot struct {
	Fuel      uint64 `json:"fuel"`
	Calls     uint64 `json:"calls"`
	FuelTrips uint64 `json:"fuelTrips,omitempty"`
	MemTrips  uint64 `json:"memTrips,omitempty"`
}

// Snapshot is the full stats document.
type Snapshot struct {
	Endpoints map[string]EndpointSnapshot `json:"endpoints"`

	// Solvers is the per-backend run, outcome and latency breakdown of
	// every solve the partition endpoints ran.
	Solvers map[string]SolverSnapshot `json:"solvers,omitempty"`

	// Batch is the per-operator batch-hit breakdown of every simulation
	// served from the Program cache, keyed by operator name.
	Batch map[string]BatchSnapshot `json:"batch,omitempty"`

	// Fuel is the per-graph VM metering breakdown of every resident
	// wscript entry, keyed by graph content hash.
	Fuel map[string]FuelSnapshot `json:"fuel,omitempty"`

	// Replan aggregates control-loop activity across controlled streaming
	// sessions.
	Replan *ReplanSnapshot `json:"replan,omitempty"`

	// Program/graph cache counters.
	CacheEntries int64   `json:"cacheEntries"`
	CacheHits    int64   `json:"cacheHits"`
	CacheMisses  int64   `json:"cacheMisses"`
	CacheShared  int64   `json:"cacheShared"` // builds avoided by singleflight
	CacheHitRate float64 `json:"cacheHitRate"`

	// Job pool gauges.
	InFlightJobs int64 `json:"inFlightJobs"`
	QueuedJobs   int64 `json:"queuedJobs"`

	// ShardSessionsExpired counts shard sessions a full table evicted
	// because their coordinator went silent past the idle lease.
	ShardSessionsExpired int64 `json:"shardSessionsExpired"`
}

// Snapshot captures current values, folding in the cache's counters.
func (m *Metrics) Snapshot(c *Cache) Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := Snapshot{Endpoints: make(map[string]EndpointSnapshot, len(m.endpoints))}
	for name, s := range m.endpoints {
		es := EndpointSnapshot{
			Requests:  s.Requests,
			Errors:    s.Errors,
			CacheHits: s.CacheHits,
			MaxMs:     float64(s.maxTime) / float64(time.Millisecond),
		}
		if s.Requests > 0 {
			es.MeanMs = float64(s.totalime) / float64(s.Requests) / float64(time.Millisecond)
		}
		out.Endpoints[name] = es
	}
	if len(m.solvers) > 0 {
		out.Solvers = make(map[string]SolverSnapshot, len(m.solvers))
		for name, s := range m.solvers {
			ss := SolverSnapshot{
				Runs: s.Runs, Feasible: s.Feasible, Errors: s.Errors,
				MaxMs: float64(s.maxTime) / float64(time.Millisecond),
			}
			if s.Runs > 0 {
				ss.MeanMs = float64(s.total) / float64(s.Runs) / float64(time.Millisecond)
			}
			out.Solvers[name] = ss
		}
	}
	if m.replan != (replanCounters{}) {
		out.Replan = &ReplanSnapshot{
			Sessions: m.replan.Sessions,
			Events:   m.replan.Events,
			Moves:    m.replan.Moves,
			Kept:     m.replan.Kept,
		}
	}
	if c != nil {
		out.CacheEntries = int64(c.Len())
		out.CacheHits, out.CacheMisses, out.CacheShared = c.Stats()
		out.CacheHitRate = c.HitRate()
	}
	out.InFlightJobs = m.inflight
	out.QueuedJobs = m.queued
	return out
}
