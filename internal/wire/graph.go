// Graph, report, and assignment encodings for the partition service.
//
// The packet-level codec in wire.go carries stream *elements* across cut
// edges; this file carries whole *programs* and *results* between a client
// and a partition server (internal/server). Graphs travel in two parts: a
// GraphSpec says how to rebuild an executable graph (work functions cannot
// cross a process boundary — the server re-elaborates from the spec, as
// the paper's compiler re-elaborates WaveScript source), and a GraphWire
// is the canonical structural encoding used for content hashing and for
// clients that only need the shape (operator names, IDs, edges).
package wire

import (
	"encoding/json"
	"fmt"
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

// Build reconstructs a structural skeleton graph: operators keep their
// IDs, names, namespaces and flags, but work functions are absent and
// stateful/reduce operators get stub constructors so the graph validates
// and compiles. The skeleton is sufficient for hashing, classification,
// and partition-problem geometry — not for execution.
func (w *GraphWire) Build() (*dataflow.Graph, error) {
	g := dataflow.New()
	for i, ow := range w.Ops {
		if ow.NS != int(dataflow.NSNode) && ow.NS != int(dataflow.NSServer) {
			return nil, fmt.Errorf("wire: operator %d has unknown namespace %d", i, ow.NS)
		}
		op := &dataflow.Operator{
			Name:       ow.Name,
			NS:         dataflow.Namespace(ow.NS),
			Stateful:   ow.Stateful,
			SideEffect: ow.SideEffect,
			Reduce:     ow.Reduce,
		}
		if ow.Stateful {
			op.NewState = func() any { return nil }
		}
		if ow.Reduce {
			op.Combine = func(a, b dataflow.Value) dataflow.Value { return a }
		}
		g.Add(op)
	}
	for _, ew := range w.Edges {
		from, to := g.ByID(ew.From), g.ByID(ew.To)
		if from == nil || to == nil {
			return nil, fmt.Errorf("wire: edge %d->%d refers to unknown operators", ew.From, ew.To)
		}
		g.Connect(from, to, ew.Port)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// MarshalGraph encodes g's structure as canonical JSON bytes.
func MarshalGraph(g *dataflow.Graph) ([]byte, error) {
	return json.Marshal(NewGraphWire(g))
}

// UnmarshalGraph decodes bytes produced by MarshalGraph into a skeleton
// graph (see GraphWire.Build).
func UnmarshalGraph(data []byte) (*dataflow.Graph, error) {
	var w GraphWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	return w.Build()
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

// Report reconstructs the profile.Report against g, which must be the
// graph (or a structurally identical rebuild of the graph) the report was
// profiled on. The result is indistinguishable from an in-process
// profile.Run: zero counters exist for every operator, and map entries
// are present exactly where the profiler would have put them.
func (w *ReportWire) Report(g *dataflow.Graph) (*profile.Report, error) {
	rep := &profile.Report{
		Graph:         g,
		Seconds:       w.Seconds,
		OpTotal:       make(map[int]*cost.Counter),
		OpInvocations: make(map[int]int),
		OpPeak:        make(map[int]*cost.Counter),
		EdgeBytes:     make(map[*dataflow.Edge]int64),
		EdgeElems:     make(map[*dataflow.Edge]int64),
		EdgePeak:      make(map[*dataflow.Edge]int64),
	}
	for _, op := range g.Operators() {
		rep.OpTotal[op.ID()] = &cost.Counter{}
		rep.OpPeak[op.ID()] = &cost.Counter{}
	}
	for _, ow := range w.Ops {
		if g.ByID(ow.ID) == nil {
			return nil, fmt.Errorf("wire: report entry for unknown operator %d", ow.ID)
		}
		if ow.Invocations > 0 {
			rep.OpInvocations[ow.ID] = ow.Invocations
		}
		rep.OpTotal[ow.ID].AddCounter(counterFrom(ow.Total))
		rep.OpPeak[ow.ID].AddCounter(counterFrom(ow.Peak))
	}
	edges := g.Edges()
	for _, ew := range w.Edges {
		if ew.Edge < 0 || ew.Edge >= len(edges) {
			return nil, fmt.Errorf("wire: report entry for unknown edge %d", ew.Edge)
		}
		e := edges[ew.Edge]
		if ew.Seen {
			rep.EdgeBytes[e] = ew.Bytes
			rep.EdgeElems[e] = ew.Elems
		}
		if ew.Peak > 0 {
			rep.EdgePeak[e] = ew.Peak
		}
	}
	return rep, nil
}

// counterFrom rebuilds a cost.Counter from its dense counts.
func counterFrom(counts [cost.NumOps]uint64) *cost.Counter {
	c := &cost.Counter{}
	for op, n := range counts {
		for n > 0 {
			step := n
			if step > 1<<62 {
				step = 1 << 62
			}
			c.Add(cost.Op(op), int(step))
			n -= step
		}
	}
	return c
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

// Assignment reconstructs the core.Assignment against g. Every operator
// gets an explicit OnNode entry (true or false), matching what
// core.Partition produces in process.
func (w *AssignmentWire) Assignment(g *dataflow.Graph) (*core.Assignment, error) {
	a := &core.Assignment{
		OnNode:        make(map[int]bool, g.NumOperators()),
		Bidirectional: w.Bidirectional,
		CPULoad:       w.CPULoad,
		NetLoad:       w.NetLoad,
		RAMLoad:       w.RAMLoad,
		Objective:     w.Objective,
		Stats:         w.Stats,
	}
	for _, op := range g.Operators() {
		a.OnNode[op.ID()] = false
	}
	for _, id := range w.OnNode {
		if g.ByID(id) == nil {
			return nil, fmt.Errorf("wire: assignment places unknown operator %d on the node", id)
		}
		a.OnNode[id] = true
	}
	edges := g.Edges()
	for _, i := range w.CutEdges {
		if i < 0 || i >= len(edges) {
			return nil, fmt.Errorf("wire: assignment cuts unknown edge %d", i)
		}
		a.CutEdges = append(a.CutEdges, edges[i])
	}
	return a, nil
}
