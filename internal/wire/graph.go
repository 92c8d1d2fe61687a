// Graph, report, and assignment encodings for the partition service.
//
// The packet-level codec in wire.go carries stream *elements* across cut
// edges; this file carries whole *programs* and *results* between a client
// and a partition server (internal/server). Graphs travel in two parts: a
// GraphSpec says how to rebuild an executable graph (work functions cannot
// cross a process boundary — the server re-elaborates from the spec, as
// the paper's compiler re-elaborates WaveScript source), and a GraphWire
// is the structural description a server sends back to clients that only
// need the shape (operator names, IDs, edges). A GraphWire is outbound
// only: requests name their graph by GraphSpec, never by structure.
package wire

import (
	"encoding/json"
	"sort"

	"wishbone/internal/core"
	"wishbone/internal/cost"
	"wishbone/internal/dataflow"
	"wishbone/internal/profile"
)

// GraphSpec names a graph a server can rebuild: one of the built-in
// applications or a wscript program. The canonical JSON encoding of the
// spec is part of the server's cache key — two specs that elaborate to
// structurally identical graphs but differ in source text (and therefore
// possibly in work-function semantics) never share a cache entry.
type GraphSpec struct {
	// App selects the builder: "eeg", "speech", or "wscript".
	App string `json:"app"`

	// Channels is the EEG channel count (0 means the full 22).
	Channels int `json:"channels,omitempty"`

	// Source is the wscript program text (App == "wscript").
	Source string `json:"source,omitempty"`
}

// Canonical returns the spec's canonical bytes (deterministic JSON).
func (s GraphSpec) Canonical() []byte {
	b, _ := json.Marshal(s)
	return b
}

// OpWire is one operator's structural description. Its position in
// GraphWire.Ops is its operator ID.
type OpWire struct {
	Name       string `json:"name"`
	NS         int    `json:"ns"`
	Stateful   bool   `json:"stateful,omitempty"`
	SideEffect bool   `json:"sideEffect,omitempty"`
	Reduce     bool   `json:"reduce,omitempty"`
}

// EdgeWire is one edge by operator index.
type EdgeWire struct {
	From int `json:"from"`
	To   int `json:"to"`
	Port int `json:"port,omitempty"`
}

// GraphWire is the canonical structural encoding of a graph.
type GraphWire struct {
	Ops   []OpWire   `json:"ops"`
	Edges []EdgeWire `json:"edges"`
}

// NewGraphWire captures g's structure.
func NewGraphWire(g *dataflow.Graph) *GraphWire {
	w := &GraphWire{
		Ops:   make([]OpWire, 0, g.NumOperators()),
		Edges: make([]EdgeWire, 0, g.NumEdges()),
	}
	for _, op := range g.Operators() {
		w.Ops = append(w.Ops, OpWire{
			Name:       op.Name,
			NS:         int(op.NS),
			Stateful:   op.Stateful,
			SideEffect: op.SideEffect,
			Reduce:     op.Reduce,
		})
	}
	for _, e := range g.Edges() {
		w.Edges = append(w.Edges, EdgeWire{From: e.From.ID(), To: e.To.ID(), Port: e.ToPort})
	}
	return w
}

// OpProfileWire is one operator's profile: invocation count plus total and
// peak primitive-operation counters. Operators that never ran are omitted
// from ReportWire.Ops and reconstructed as zero counters.
type OpProfileWire struct {
	ID          int                 `json:"id"`
	Invocations int                 `json:"invocations,omitempty"`
	Total       [cost.NumOps]uint64 `json:"total"`
	Peak        [cost.NumOps]uint64 `json:"peak"`
}

// EdgeProfileWire is one edge's traffic by dense edge index. Seen
// distinguishes an edge that carried zero bytes from one never traversed.
type EdgeProfileWire struct {
	Edge  int   `json:"edge"`
	Bytes int64 `json:"bytes"`
	Elems int64 `json:"elems"`
	Peak  int64 `json:"peak,omitempty"`
	Seen  bool  `json:"seen"`
}

// ReportWire is the transportable form of a profile.Report. Entries are
// sorted by ID/index, so encoding a report is deterministic: two equal
// reports marshal to identical bytes (the server parity tests rely on
// this).
type ReportWire struct {
	Seconds float64           `json:"seconds"`
	Ops     []OpProfileWire   `json:"ops"`
	Edges   []EdgeProfileWire `json:"edges"`
}

// NewReportWire converts a profile.Report for transmission.
func NewReportWire(r *profile.Report) *ReportWire {
	w := &ReportWire{Seconds: r.Seconds}
	ids := make([]int, 0, len(r.OpTotal))
	for id := range r.OpTotal {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ow := OpProfileWire{
			ID:          id,
			Invocations: r.OpInvocations[id],
			Total:       r.OpTotal[id].Counts(),
			Peak:        r.OpPeak[id].Counts(),
		}
		if ow.Invocations == 0 && r.OpTotal[id].Total() == 0 && r.OpPeak[id].Total() == 0 {
			continue
		}
		w.Ops = append(w.Ops, ow)
	}
	for i, e := range r.Graph.Edges() {
		_, seen := r.EdgeBytes[e]
		peak := r.EdgePeak[e]
		if !seen && peak == 0 {
			continue
		}
		w.Edges = append(w.Edges, EdgeProfileWire{
			Edge:  i,
			Bytes: r.EdgeBytes[e],
			Elems: r.EdgeElems[e],
			Peak:  peak,
			Seen:  seen,
		})
	}
	return w
}

// AssignmentWire is the transportable form of a core.Assignment: on-node
// operators by ID (sorted), cut edges by dense edge index, the loads and
// solver stats, plus the producing backend's name and its proven
// objective gap (0 = optimal, >0 = incumbent under a limit, <0 = no bound
// known, e.g. the greedy baseline).
type AssignmentWire struct {
	OnNode        []int           `json:"onNode"`
	CutEdges      []int           `json:"cutEdges,omitempty"`
	Bidirectional bool            `json:"bidirectional,omitempty"`
	CPULoad       float64         `json:"cpuLoad"`
	NetLoad       float64         `json:"netLoad"`
	RAMLoad       float64         `json:"ramLoad,omitempty"`
	Objective     float64         `json:"objective"`
	Solver        string          `json:"solver,omitempty"`
	Gap           float64         `json:"gap,omitempty"`
	Stats         core.SolveStats `json:"stats"`
}

// NewAssignmentWire converts a core.Assignment computed on g.
func NewAssignmentWire(g *dataflow.Graph, a *core.Assignment) *AssignmentWire {
	w := &AssignmentWire{
		Bidirectional: a.Bidirectional,
		CPULoad:       a.CPULoad,
		NetLoad:       a.NetLoad,
		RAMLoad:       a.RAMLoad,
		Objective:     a.Objective,
		Solver:        a.Stats.Solver,
		Gap:           a.Stats.Gap,
		Stats:         a.Stats,
	}
	for id, on := range a.OnNode {
		if on {
			w.OnNode = append(w.OnNode, id)
		}
	}
	sort.Ints(w.OnNode)
	edgeIndex := make(map[*dataflow.Edge]int, g.NumEdges())
	for i, e := range g.Edges() {
		edgeIndex[e] = i
	}
	for _, e := range a.CutEdges {
		w.CutEdges = append(w.CutEdges, edgeIndex[e])
	}
	sort.Ints(w.CutEdges)
	return w
}
