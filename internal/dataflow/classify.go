package dataflow

import "fmt"

// Mode selects how the partitioner treats stateful Node-namespace operators
// (§2.1.1): conservative mode refuses to relocate them to the server
// (relocation would put a lossy radio edge upstream of state that may not
// tolerate missing data); permissive mode allows it, emulating per-node
// state on the server in a table indexed by node ID.
type Mode int

const (
	// Conservative pins stateful Node operators to the embedded node.
	Conservative Mode = iota
	// Permissive lets stateful Node operators move to the server.
	Permissive
)

// String returns "conservative" or "permissive".
func (m Mode) String() string {
	if m == Conservative {
		return "conservative"
	}
	return "permissive"
}

// Placement says where an operator must or may run.
type Placement int

const (
	// PinNode means the operator must run on the embedded node.
	PinNode Placement = iota
	// PinServer means the operator must run on the server.
	PinServer
	// Movable means the partitioner may place the operator on either side.
	Movable
)

// String returns "node", "server" or "movable".
func (p Placement) String() string {
	switch p {
	case PinNode:
		return "node"
	case PinServer:
		return "server"
	default:
		return "movable"
	}
}

// BatchCapable reports whether op's BatchWork may replace element-at-a-time
// Work dispatch. Stateless operators with a BatchWork qualify
// unconditionally (they are insensitive to how input is grouped). Stateful
// operators must opt in with BatchStateSafe, asserting per-element
// state-update order inside the batch. Operators without both a Work and a
// BatchWork never qualify (sources are injected, not invoked).
func BatchCapable(op *Operator) bool {
	if op.BatchWork == nil || op.Work == nil {
		return false
	}
	return !op.Stateful || op.BatchStateSafe
}

// Classification records, for every operator, whether it is pinned and
// where (§2.1.1), after propagating pins along the graph under the
// single-crossing restriction (§2.1.2: once the data flow has crossed to
// the server it cannot come back, so anything upstream of a node-pinned
// operator must also be on the node, and anything downstream of a
// server-pinned operator must also be on the server).
type Classification struct {
	// Place maps operator ID to its placement constraint.
	Place map[int]Placement
}

// Classify determines each operator's placement constraint and propagates
// constraints along the graph. It returns an error when an operator would
// be pinned to both sides at once — a program with no feasible partition
// regardless of resources (e.g. a node-pinned actuator downstream of a
// server-pinned operator under the single-crossing restriction).
func Classify(g *Graph, mode Mode) (*Classification, error) {
	place := make(map[int]Placement, g.NumOperators())

	// Direct pins (§2.1.1).
	for _, op := range g.Operators() {
		switch {
		case op.SideEffect:
			// Side effects pin the operator to its declared partition:
			// sensor sampling and actuation to the node, printing/storage
			// to the server.
			if op.NS == NSNode {
				place[op.ID()] = PinNode
			} else {
				place[op.ID()] = PinServer
			}
		case op.NS == NSServer && op.Stateful:
			// Stateful server operators have serial semantics and a single
			// state instance; they cannot be replicated into the network.
			place[op.ID()] = PinServer
		case op.NS == NSNode && op.Stateful && mode == Conservative:
			place[op.ID()] = PinNode
		default:
			place[op.ID()] = Movable
		}
	}

	// Sources must be on the node (they sample hardware even if not marked
	// side-effecting); sinks must be on the server (they deliver results).
	for _, s := range g.Sources() {
		if place[s.ID()] == PinServer {
			return nil, fmt.Errorf("dataflow: source %s is pinned to the server", s)
		}
		place[s.ID()] = PinNode
	}
	for _, s := range g.Sinks() {
		if place[s.ID()] == PinNode {
			return nil, fmt.Errorf("dataflow: sink %s is pinned to the node", s)
		}
		place[s.ID()] = PinServer
	}

	// Propagate under the single-crossing restriction: ancestors of
	// node-pinned operators become node-pinned; descendants of
	// server-pinned operators become server-pinned. Iterate to a fixed
	// point (each operator can only be tightened once, so two passes over
	// a topological order suffice; we use the generic reachability sets
	// for clarity — graphs are small).
	for _, op := range g.Operators() {
		switch place[op.ID()] {
		case PinNode:
			for id := range g.Ancestors(op) {
				if place[id] == PinServer {
					return nil, fmt.Errorf(
						"dataflow: operator %s is pinned to the server but feeds node-pinned %s (single-crossing restriction)",
						g.ByID(id), op)
				}
				place[id] = PinNode
			}
		case PinServer:
			for id := range g.Descendants(op) {
				if place[id] == PinNode {
					return nil, fmt.Errorf(
						"dataflow: operator %s is pinned to the node but is fed by server-pinned %s (single-crossing restriction)",
						g.ByID(id), op)
				}
				place[id] = PinServer
			}
		}
	}

	return &Classification{Place: place}, nil
}
