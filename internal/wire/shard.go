package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"

	"wishbone/internal/dataflow"
)

// Request and response bodies of the shard-host protocol: the HTTP/JSON
// surface a coordinator (internal/dist) drives to place one simulation's
// origin shards on recruited wbserved peers. A shard session is one
// ShardHost living across requests; the coordinator phases it strictly —
// open, then per window compute (ship arrivals, learn offered air and
// reduce contributions) and deliver (broadcast the priced ratio), then
// close (collect the host's partial counters) or abort.
//
// Arrival values and reduce contributions travel in the repo's binary
// value encoding (Marshal/Unmarshal) rather than as JSON numbers: the
// round trip is bit-exact by construction, which is what keeps
// distributed Results byte-identical to single-host runs. A compute
// request is the one body that is not all JSON: a JSON header line, then
// the window's arrivals as binary records (AppendShardCompute). A reduce
// contribution rides base64 inside the JSON response.
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

// ShardArrival is one arrival shipped to a shard host: origin node, time,
// source operator ID and the element itself.
type ShardArrival struct {
	Node   int
	Time   float64
	Source int
	Value  dataflow.Value
}

// ShardComputeRequest ships one window's arrivals (owned origins only,
// per-node nondecreasing time) for the node phase. Window is the
// coordinator's 1-based window sequence number for this session: the
// host answers a repeat of the last sequence from its reply cache
// instead of recomputing, which is what makes the coordinator's
// retry-after-timeout safe on this non-idempotent call (the first
// attempt may have executed even though its response was lost).
//
// On the wire Session and Window are the JSON header line and Arrivals
// the binary records behind it (AppendShardCompute, DecodeShardArrivals).
type ShardComputeRequest struct {
	Session  string         `json:"session"`
	Window   int64          `json:"window,omitempty"`
	Arrivals []ShardArrival `json:"-"`
}

// maxShardID bounds a record's node and source IDs: both are indices into
// a run's nodes and a graph's operators.
const maxShardID = math.MaxInt32

// AppendShardCompute appends req as a /v1/shard/compute body: the header
// {"session":…,"window":N} and a newline, then AppendShardArrivals' records.
// The header comes first and is short, so the window number sits in the
// body's first bytes.
func AppendShardCompute(dst []byte, req *ShardComputeRequest) ([]byte, error) {
	dst = append(dst, `{"session":`...)
	dst = appendJSONString(dst, req.Session)
	dst = append(dst, `,"window":`...)
	dst = strconv.AppendInt(dst, req.Window, 10)
	dst = append(dst, "}\n"...)
	return AppendShardArrivals(dst, req.Arrivals)
}

// appendJSONString appends s as a JSON string that decodes back to what
// encoding/json decodes json.Marshal(s) to.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c < ' ':
			dst = append(dst, `\u00`...)
			dst = append(dst, "0123456789abcdef"[c>>4], "0123456789abcdef"[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// AppendShardArrivals appends one record per arrival: uvarint node,
// uvarint source, the time's float64 bits big-endian, then the element as
// AppendMarshal writes it (self-delimiting, so records need no length).
func AppendShardArrivals(dst []byte, as []ShardArrival) ([]byte, error) {
	for i := range as {
		a := &as[i]
		if uint(a.Node) > maxShardID || uint(a.Source) > maxShardID {
			return nil, fmt.Errorf("wire: arrival %d: node %d or source %d out of range", i, a.Node, a.Source)
		}
		dst = binary.AppendUvarint(dst, uint64(a.Node))
		dst = binary.AppendUvarint(dst, uint64(a.Source))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(a.Time))
		var err error
		if dst, err = AppendMarshal(dst, a.Value); err != nil {
			return nil, fmt.Errorf("wire: arrival %d for node %d: %w", i, a.Node, err)
		}
	}
	return dst, nil
}

// DecodeShardArrivals appends the arrivals of data, a run of whole records
// as AppendShardArrivals writes them, to dst. Each value is decoded into
// its own memory: data may be reused once it returns.
func DecodeShardArrivals(dst []ShardArrival, data []byte) ([]ShardArrival, error) {
	for i, off := 0, 0; off < len(data); i++ {
		a, n, err := decodeShardArrival(data[off:])
		if err != nil {
			return dst, fmt.Errorf("wire: arrival record %d at byte %d: %w", i, off, err)
		}
		dst = append(dst, a)
		off += n
	}
	return dst, nil
}

// decodeShardArrival decodes the record at the head of data and its length.
func decodeShardArrival(data []byte) (ShardArrival, int, error) {
	node, n1 := binary.Uvarint(data)
	if n1 <= 0 || node > maxShardID {
		return ShardArrival{}, 0, errors.New("node: bad varint or past 2^31-1")
	}
	src, n2 := binary.Uvarint(data[n1:])
	if n2 <= 0 || src > maxShardID {
		return ShardArrival{}, 0, errors.New("source: bad varint or past 2^31-1")
	}
	rest := data[n1+n2:]
	if len(rest) < 8 {
		return ShardArrival{}, 0, errors.New("truncated time")
	}
	v, n, err := Unmarshal(rest[8:])
	if err != nil {
		return ShardArrival{}, 0, err
	}
	a := ShardArrival{
		Node: int(node), Source: int(src),
		Time: math.Float64frombits(binary.BigEndian.Uint64(rest)), Value: v,
	}
	return a, n1 + n2 + 8 + n, nil
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
