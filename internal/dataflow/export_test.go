package dataflow

// Recycles reports whether p hands op's Frame calls a recycled slab.
func (p *Program) Recycles(op *Operator) bool { return p.recycle[op.ID()] }

// DiamondGraph is diamondGraph for the tests that hold a Program to the
// reference Executor.
var DiamondGraph = diamondGraph

// NodeID returns the node identity this instance runs as.
func (in *Instance) NodeID() int { return in.nodeID }
