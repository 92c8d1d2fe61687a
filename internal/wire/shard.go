package wire

// Request and response bodies of the shard-host protocol: the HTTP/JSON
// surface a coordinator (internal/dist) drives to place one simulation's
// origin shards on recruited wbserved peers. A shard session is one
// ShardHost living across requests; the coordinator phases it strictly —
// open, then per window compute (ship arrivals, learn offered air and
// reduce contributions) and deliver (broadcast the priced ratio), then
// close (collect the host's partial counters) or abort.
//
// Arrival values and reduce contributions travel in the repo's binary
// value encoding (Marshal/Unmarshal, base64 inside JSON) rather than as
// JSON numbers: the round trip is bit-exact by construction, which is
// what keeps distributed Results byte-identical to single-host runs.
//
// A host reads one kind of state: a host blob (ShardOpenRequest.ResumeHost),
// never a whole-run session snapshot — the coordinator splits one into
// per-host shares. The protocol has no version field and JSON decoding
// ignores unknown fields, so coordinator and hosts must run the same build.

// ShardOpenRequest opens a shard session hosting the given origin nodes.
// The peer re-elaborates Graph locally; GraphHash (the graph's structural
// hash) guards against the coordinator and peer building different
// structures from one spec. OnNode lists the operator IDs on the node
// side — always explicit, there is no auto-partition fallback here (the
// coordinator already knows the cut).
type ShardOpenRequest struct {
	Graph     GraphSpec `json:"graph"`
	GraphHash string    `json:"graphHash,omitempty"`
	Platform  string    `json:"platform"`
	OnNode    []int     `json:"onNode,omitempty"`

	Nodes    int     `json:"nodes"`
	Duration float64 `json:"duration"`
	Seed     int64   `json:"seed,omitempty"`
	// Shards splits this host's delivery loop by origin (a per-host knob;
	// it never affects Results).
	Shards int `json:"shards,omitempty"`
	// Origins is the subset of [0, Nodes) this host owns.
	Origins []int `json:"origins"`
	// ResumeHost, when non-empty, is the host blob the session restores
	// from instead of starting fresh — the only state a host reads: a
	// host's checkpoint (/v1/shard/checkpoint; recovery) or its share of a
	// session snapshot (runtime.HostShares; resume and the state handoff
	// of a replan's cross-host operator relocation). The session takes
	// over the blob's node sides, delivery state and counters; Origins
	// must equal the blob's origin set exactly.
	ResumeHost []byte `json:"resumeHost,omitempty"`
}

// ShardOpenResponse returns the session handle every subsequent call
// names.
type ShardOpenResponse struct {
	Session   string `json:"session"`
	GraphHash string `json:"graphHash"`
}

// ShardArrivalWire is one arrival shipped to a shard host: node, time,
// source operator ID, and the value in the binary codec (base64 in JSON).
type ShardArrivalWire struct {
	Node   int     `json:"node"`
	Time   float64 `json:"t"`
	Source int     `json:"source"`
	Value  []byte  `json:"v"`
}

// ShardComputeRequest ships one window's arrivals (owned origins only,
// per-node nondecreasing time) for the node phase. Window is the
// coordinator's 1-based window sequence number for this session: the
// host answers a repeat of the last sequence from its reply cache
// instead of recomputing, which is what makes the coordinator's
// retry-after-timeout safe on this non-idempotent call (the first
// attempt may have executed even though its response was lost). A
// request from an older coordinator that still carries the window's
// span ("span") decodes unchanged: unknown JSON fields are ignored.
type ShardComputeRequest struct {
	Session  string             `json:"session"`
	Window   int64              `json:"window,omitempty"`
	Arrivals []ShardArrivalWire `json:"arrivals"`
}

// ShardReduceWire is one in-network reduce contribution returning to the
// coordinator: origin node, dense edge index, emission time, the packet
// count already charged to the air, and the element in the binary codec.
type ShardReduceWire struct {
	Node    int     `json:"node"`
	Edge    int     `json:"edge"`
	Time    float64 `json:"t"`
	Packets int     `json:"packets"`
	Data    []byte  `json:"data"`
}

// ShardComputeResponse is the host's window report: how many non-reduce
// messages it holds for the ratio broadcast, their offered air bytes, and
// the window's reduce contributions.
type ShardComputeResponse struct {
	Held   int               `json:"held"`
	Air    int               `json:"air"`
	Reduce []ShardReduceWire `json:"reduce,omitempty"`
}

// ShardDeliverRequest broadcasts the coordinator's priced delivery ratio;
// the host replays its held window at that ratio. Window dedupes retries
// like ShardComputeRequest.Window (a repeat of the last delivered
// sequence is acknowledged without delivering twice).
type ShardDeliverRequest struct {
	Session string  `json:"session"`
	Window  int64   `json:"window,omitempty"`
	Ratio   float64 `json:"ratio"`
}

// ShardSessionRequest names a session (deliver-less calls: close, abort).
type ShardSessionRequest struct {
	Session string `json:"session"`
}

// ShardCheckpointResponse carries one host's boundary checkpoint blob.
// The call is not terminal: the session keeps running, and the
// coordinator retains the blob to restore the host elsewhere if it later
// fails (ShardOpenRequest.ResumeHost), or folds every host's into a full
// session snapshot before aborting them.
type ShardCheckpointResponse struct {
	Checkpoint []byte `json:"checkpoint"`
}

// NodeBusyWire is one node's accumulated CPU-busy seconds. JSON float64
// round-trips are exact, so the coordinator's global-node-order sum is
// byte-identical to the single-host one.
type NodeBusyWire struct {
	Node int     `json:"node"`
	Busy float64 `json:"busy"`
}

// ShardCloseResponse is the host's final contribution to the run Result.
type ShardCloseResponse struct {
	InputEvents     int            `json:"inputEvents"`
	ProcessedEvents int            `json:"processedEvents"`
	MsgsSent        int            `json:"msgsSent"`
	MsgsReceived    int            `json:"msgsReceived"`
	PayloadBytes    int            `json:"payloadBytes"`
	DeliveredBytes  int            `json:"deliveredBytes"`
	ServerEmits     int            `json:"serverEmits"`
	NodeBusy        []NodeBusyWire `json:"nodeBusy"`
}
