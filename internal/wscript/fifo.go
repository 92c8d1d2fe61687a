package wscript

import "wishbone/internal/cost"

// fifoVal is the FIFO queue of the paper's Figure 1 (FIRFilter's delay
// line): Fifo.make, Fifo.enqueue, Fifo.dequeue, Fifo.peek, Fifo.length.
type fifoVal struct {
	elems []value
}

// WireSize implements dataflow.Sized (FIFOs rarely cross the network, but
// state snapshots may be priced).
func (f *fifoVal) WireSize() int {
	n := 0
	for _, e := range f.elems {
		n += wireSizeOf(e)
	}
	return n
}

func init() {
	builtins["Fifo.make"] = func(ip *interp, ex *CallExpr, args []value) (value, error) {
		// Fifo.make(capacityHint) — the hint sizes the backing store.
		if len(args) != 1 {
			return nil, ip.failf(ex, "Fifo.make(capacityHint)")
		}
		n, ok := args[0].(int64)
		if !ok || n < 0 {
			return nil, ip.failf(ex, "Fifo.make hint must be a non-negative int")
		}
		if err := ip.spend(ex, n); err != nil {
			return nil, err
		}
		return &fifoVal{elems: make([]value, 0, n)}, nil
	}
	builtins["Fifo.enqueue"] = func(ip *interp, ex *CallExpr, args []value) (value, error) {
		f, ok := args[0].(*fifoVal)
		if !ok || len(args) != 2 {
			return nil, ip.failf(ex, "Fifo.enqueue(fifo, x)")
		}
		if err := ip.spend(ex, 1); err != nil {
			return nil, err
		}
		f.elems = append(f.elems, args[1])
		ip.count(cost.Store, 1)
		return unitVal{}, nil
	}
	builtins["Fifo.dequeue"] = func(ip *interp, ex *CallExpr, args []value) (value, error) {
		f, ok := args[0].(*fifoVal)
		if !ok {
			return nil, ip.failf(ex, "Fifo.dequeue(fifo)")
		}
		if len(f.elems) == 0 {
			return nil, ip.failf(ex, "Fifo.dequeue of empty fifo")
		}
		head := f.elems[0]
		f.elems = f.elems[1:]
		ip.count(cost.Load, 1)
		return head, nil
	}
	builtins["Fifo.peek"] = func(ip *interp, ex *CallExpr, args []value) (value, error) {
		f, ok := args[0].(*fifoVal)
		if !ok || len(args) != 2 {
			return nil, ip.failf(ex, "Fifo.peek(fifo, i)")
		}
		i, ok := args[1].(int64)
		if !ok || i < 0 || int(i) >= len(f.elems) {
			return nil, ip.failf(ex, "Fifo.peek index out of range")
		}
		ip.count(cost.Load, 1)
		ip.count(cost.IntOp, 1)
		return f.elems[i], nil
	}
	builtins["Fifo.length"] = func(ip *interp, ex *CallExpr, args []value) (value, error) {
		f, ok := args[0].(*fifoVal)
		if !ok {
			return nil, ip.failf(ex, "Fifo.length(fifo)")
		}
		ip.count(cost.Load, 1)
		return int64(len(f.elems)), nil
	}
}
