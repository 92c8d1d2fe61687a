package dataflow

// Recycles reports whether p hands op's Frame calls a recycled slab.
func (p *Program) Recycles(op *Operator) bool { return p.recycle[op.ID()] }
