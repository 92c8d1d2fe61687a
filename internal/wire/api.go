package wire

import "encoding/json"

// Request and response bodies of the partition service's HTTP/JSON API
// (internal/server). Every response carries the graph's canonical content
// hash — the cache key prefix — and whether the request was served from
// cached compiled Programs, so clients (and the throughput benchmark) can
// observe cache behavior end to end.

// TraceSpec parameterizes the deterministic synthetic trace a request is
// profiled or simulated against. Zero values select the server defaults
// (seed 1; 2 seconds; 64 events per wscript source).
type TraceSpec struct {
	Seed    int64   `json:"seed,omitempty"`
	Seconds float64 `json:"seconds,omitempty"`
	Events  int     `json:"events,omitempty"`
}

// GraphRequest asks for a graph's structure and content hash.
type GraphRequest struct {
	Graph GraphSpec `json:"graph"`
}

// GraphResponse returns the elaborated graph's shape.
type GraphResponse struct {
	GraphHash string     `json:"graphHash"`
	Graph     *GraphWire `json:"structure"`
}

// ProfileRequest asks the server to profile a graph (§3).
type ProfileRequest struct {
	Graph GraphSpec `json:"graph"`
	Trace TraceSpec `json:"trace,omitempty"`
}

// ProfileResponse carries the profile report.
type ProfileResponse struct {
	GraphHash string      `json:"graphHash"`
	CacheHit  bool        `json:"cacheHit"`
	Report    *ReportWire `json:"report"`
}

// PartitionRequest asks for a full AutoPartition: profile, classify, solve
// at full rate, and fall back to the §4.3 rate search when infeasible.
type PartitionRequest struct {
	Graph    GraphSpec `json:"graph"`
	Trace    TraceSpec `json:"trace,omitempty"`
	Platform string    `json:"platform"`
	// Mode is "permissive" (default) or "conservative" (§2.1.1).
	Mode string `json:"mode,omitempty"`
	// Solver selects the backend: "exact" (default), "lagrangian" or
	// "greedy"; any other name is a 400. Per-backend latency metrics are
	// served at /v1/stats.
	Solver string `json:"solver,omitempty"`
}

// PartitionResponse carries the chosen assignment.
type PartitionResponse struct {
	GraphHash string `json:"graphHash"`
	CacheHit  bool   `json:"cacheHit"`
	// RateMultiple is 1 when the program fits at full rate, less when the
	// rate search had to shed load.
	RateMultiple float64         `json:"rateMultiple"`
	Probes       int             `json:"probes"`
	Assignment   *AssignmentWire `json:"assignment"`
}

// SimulateRequest asks for a deployment simulation (§7.3). OnNode lists
// the operator IDs placed on the node; when empty the server partitions
// first (AutoPartition) and simulates the chosen cut at its sustainable
// rate. There is one execution engine: an "engine" key, which earlier
// versions used to select the reference interpreter, is ignored like any
// unknown JSON field (the Results were byte-identical by contract).
type SimulateRequest struct {
	Graph    GraphSpec `json:"graph"`
	Trace    TraceSpec `json:"trace,omitempty"`
	Platform string    `json:"platform"`
	Mode     string    `json:"mode,omitempty"`
	// Solver selects the partitioning backend for the auto-partition
	// fallback (ignored when OnNode is explicit); see PartitionRequest.
	Solver string `json:"solver,omitempty"`
	OnNode []int  `json:"onNode,omitempty"`

	Nodes     int     `json:"nodes"`
	Duration  float64 `json:"duration"`
	RateScale float64 `json:"rateScale,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	// Shards splits the simulation's server-side delivery loop by origin
	// node (byte-identical results at any count; 0 = sequential).
	Shards int `json:"shards,omitempty"`
	// DistinctTraces gives every node its own trace (seed offset by node
	// ID) instead of one shared recording.
	DistinctTraces bool `json:"distinctTraces,omitempty"`
	// Limits caps the tenant's wscript VM execution for this graph; see
	// LimitsWire. Only valid for wscript graphs.
	Limits *LimitsWire `json:"limits,omitempty"`
	// Scenario injects failure models — node churn, Gilbert–Elliott
	// bursty loss — into the run; see ScenarioWire.
	Scenario *ScenarioWire `json:"scenario,omitempty"`
}

// LimitsWire caps a wscript graph's VM execution: Fuel bounds the abstract
// operations one work-function invocation (one stream element) may spend,
// MemBytes bounds the live bytes of VM allocations per operator instance
// (arrays, fifos, strings, and buffered zip queues). Zero or absent means
// unlimited. A simulation that trips a budget fails with 422 and a typed
// code ("fuel_exhausted" or "mem_limit"); consumed-fuel counters aggregate
// per graph under /v1/stats "fuel".
type LimitsWire struct {
	Fuel     uint64 `json:"fuel,omitempty"`
	MemBytes int64  `json:"memBytes,omitempty"`
}

// SimulateStreamRequest is the header object of a POST /v1/simulate/stream
// body. The body is a stream of JSON values: this header first, then any
// number of StreamChunk objects until EOF (chunked transfer encoding keeps
// the connection open while the client generates the trace). The server
// feeds each chunk's arrivals straight into a streaming runtime Session,
// so a trace of hours simulates in the memory of one ingestion window —
// the trace itself is client-supplied, never materialized server-side.
//
// OnNode lists the operator IDs placed on the node; when empty the server
// auto-partitions first (profiling against the synthetic Trace) and
// simulates the chosen cut.
type SimulateStreamRequest struct {
	Graph    GraphSpec `json:"graph"`
	Trace    TraceSpec `json:"trace,omitempty"`
	Platform string    `json:"platform"`
	Mode     string    `json:"mode,omitempty"`
	Solver   string    `json:"solver,omitempty"`
	OnNode   []int     `json:"onNode,omitempty"`

	Nodes    int     `json:"nodes"`
	Duration float64 `json:"duration"`
	Seed     int64   `json:"seed,omitempty"`
	// Shards splits the server-side delivery loop by origin node;
	// WindowSeconds sizes the ingestion window (0 = runtime default).
	Shards        int     `json:"shards,omitempty"`
	WindowSeconds float64 `json:"windowSeconds,omitempty"`

	// Resume restarts a session from a snapshot a previous stream request
	// returned (a chunk with "snapshot": true). The request must describe
	// the same run — graph structure, cut, platform, nodes, duration,
	// seed, window — on this or any other host; the runtime rejects
	// mismatches. Arrivals then continue from where the snapshotted
	// stream stopped, and the final Result is byte-identical to an
	// uninterrupted stream.
	Resume []byte `json:"resume,omitempty"`

	// Limits caps the tenant's wscript VM execution; see LimitsWire.
	// Cumulative per-state fuel counters ride inside session snapshots, so
	// a resumed stream keeps accounting from where the snapshot stopped.
	Limits *LimitsWire `json:"limits,omitempty"`

	// Replan turns on the drift-aware control loop for this session: the
	// server folds per-window load observations into a decaying profile,
	// and when observed load drifts persistently from the planned load it
	// re-partitions mid-stream and relocates operators through the
	// snapshot/handoff path — results stay byte-identical to a run that
	// started on the final cut. Nil disables replanning.
	Replan *ReplanWire `json:"replan,omitempty"`

	// Scenario injects failure models into the stream; see ScenarioWire.
	// Composes with Replan: a churn-crashed node's load collapse is
	// drift, so the crash fires the same drift→replan loop.
	Scenario *ScenarioWire `json:"scenario,omitempty"`
}

// ScenarioWire requests failure injection for a run: deviations from the
// paper's static, i.i.d.-loss network that real deployments exhibit.
// Both models are deterministic functions of their seeds, so a scenario
// run is exactly reproducible — and byte-identical however the run is
// placed (single host, shards, distributed, resumed). At least one model
// must be present.
type ScenarioWire struct {
	Churn *ChurnWire `json:"churn,omitempty"`
	Burst *BurstWire `json:"burst,omitempty"`
}

// ChurnWire crashes (and optionally revives) nodes mid-stream: each node
// alternates alive/down phases with exponential sojourn times. A crashed
// node's arrivals are dropped at the source until it rejoins.
type ChurnWire struct {
	Seed int64 `json:"seed,omitempty"`
	// MeanUp is the mean seconds a node stays alive (MTTF); required.
	MeanUp float64 `json:"meanUp"`
	// MeanDown is the mean seconds a crashed node stays down (MTTR);
	// 0 means crashes are permanent.
	MeanDown float64 `json:"meanDown,omitempty"`
}

// BurstWire is a Gilbert–Elliott bursty-loss channel: a two-state chain
// stepped once per ingestion window; in the bad state the delivery ratio
// is multiplied by BadFactor.
type BurstWire struct {
	Seed     int64   `json:"seed,omitempty"`
	PGoodBad float64 `json:"pGoodBad"`
	PBadGood float64 `json:"pBadGood"`
	// BadFactor in [0,1]: the delivery-ratio multiplier during bursts.
	BadFactor float64 `json:"badFactor"`
}

// ReplanWire is a tenant's control-loop policy knobs. Zero values select
// the runtime defaults (threshold 0.2, hysteresis 3 windows, cooldown =
// hysteresis, decay 0.25, unlimited replans).
type ReplanWire struct {
	// Threshold is the relative load error |observed-planned|/planned
	// that counts as drift.
	Threshold float64 `json:"threshold,omitempty"`
	// Hysteresis is how many consecutive drifting windows arm a replan.
	Hysteresis int `json:"hysteresis,omitempty"`
	// Cooldown is the minimum number of windows between replans; negative
	// means zero (replan immediately when re-armed).
	Cooldown int `json:"cooldown,omitempty"`
	// Decay is the EWMA weight of the newest window in the online profile
	// (0 < Decay <= 1).
	Decay float64 `json:"decay,omitempty"`
	// MaxReplans caps replans per session; 0 means unlimited.
	MaxReplans int `json:"maxReplans,omitempty"`
	// Solver picks the re-planning backend: "exact", "lagrangian" or
	// "greedy"; any other name is a 400. Omitted or "auto" means "exact";
	// the choice never depends on earlier requests.
	Solver string `json:"solver,omitempty"`
}

// ArrivalWire is one client-supplied sensor event: which node it arrives
// at, when, at which source operator (by graph operator ID), and the
// value. Without a Type the value decodes as a JSON number (float64) or
// array of numbers ([]float64); Type selects another element type sensor
// traces carry: "f64", "i64", "f64s", "f32s", "i32s", "i16s" (e.g. audio
// frames), or "bytes".
type ArrivalWire struct {
	Node   int             `json:"node"`
	Time   float64         `json:"t"`
	Source int             `json:"source"`
	Type   string          `json:"type,omitempty"`
	Value  json.RawMessage `json:"v"`
}

// StreamChunk is one batch of arrivals in a simulate-stream body.
// Arrivals must be globally nondecreasing in time across chunks. A chunk
// with Snapshot set ends the session: instead of simulating to Duration
// and returning a Result, the server freezes the session (window-aligned
// internally; arrivals buffered for the window in progress are part of
// the state) and responds with SimulateResponse.Snapshot — feed it to a
// later request's Resume field to continue the run, on any host.
type StreamChunk struct {
	Arrivals []ArrivalWire `json:"arrivals"`
	Snapshot bool          `json:"snapshot,omitempty"`
}

// ResultWire mirrors runtime.Result field for field (wire cannot import
// runtime: runtime imports wire for the packet codec). The server and
// client copy between the two; JSON float64 round-trips are exact, so a
// decoded result is byte-identical to the in-process one.
type ResultWire struct {
	InputEvents     int `json:"inputEvents"`
	ProcessedEvents int `json:"processedEvents"`
	MsgsSent        int `json:"msgsSent"`
	MsgsReceived    int `json:"msgsReceived"`
	PayloadBytes    int `json:"payloadBytes"`
	DeliveredBytes  int `json:"deliveredBytes"`
	ServerEmits     int `json:"serverEmits"`

	OfferedAirBytesPerSec float64 `json:"offeredAirBytesPerSec"`
	DeliveryRatio         float64 `json:"deliveryRatio"`
	NodeCPU               float64 `json:"nodeCPU"`
}

// SimulateResponse carries the simulation result.
type SimulateResponse struct {
	GraphHash string `json:"graphHash"`
	CacheHit  bool   `json:"cacheHit"`
	// RateMultiple echoes the applied rate scale (from the request, or
	// from the auto-partition fallback).
	RateMultiple float64     `json:"rateMultiple"`
	Result       *ResultWire `json:"result"`

	// Snapshot is set (and Result nil) when a streaming simulation ended
	// with a snapshot chunk: the session's frozen state, resumable via
	// SimulateStreamRequest.Resume.
	Snapshot []byte `json:"snapshot,omitempty"`

	// Replans lists the control loop's replan events, in order, when the
	// request enabled SimulateStreamRequest.Replan.
	Replans []ReplanEventWire `json:"replans,omitempty"`
}

// ReplanEventWire is one mid-stream re-partition: when it fired, the load
// the incumbent cut was planned for vs the decayed observed load that
// triggered it, the sustainable rate multiple the new plan was solved at,
// and which operators moved (graph operator IDs). Empty Moved means the
// drift trigger fired but the planner kept the incumbent cut.
type ReplanEventWire struct {
	Time         float64 `json:"t"`
	PlannedLoad  float64 `json:"plannedLoad"`
	ObservedLoad float64 `json:"observedLoad"`
	RateMultiple float64 `json:"rateMultiple"`
	Moved        []int   `json:"moved,omitempty"`
	// Solver names the backend whose answer the replan adopted.
	Solver string `json:"solver,omitempty"`
}

// ProfileStreamRequest is the header object of a POST /v1/profile/stream
// body: this header first, then StreamChunk objects until EOF, exactly
// like /v1/simulate/stream. Instead of the synthetic trace, the profiler
// measures operator costs and edge rates against the client's own
// arrivals — the profile that drift detection and re-planning consume.
// Rate, when set, overrides the per-source event rate estimate (events
// per second) derived from each source's arrival span.
type ProfileStreamRequest struct {
	Graph GraphSpec `json:"graph"`
	Rate  float64   `json:"rate,omitempty"`
}

// ErrorResponse is the body of every non-2xx response. Code, when set,
// names the error class machine-readably; currently "backpressure" (429
// from /v1/simulate/stream: the session's window buffer hit the server's
// bound — re-chunk with more simulated-time progress per arrival batch,
// or retry later).
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}
