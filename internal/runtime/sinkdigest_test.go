package runtime

import (
	"hash/fnv"
	"sync"
	"testing"

	"wishbone/internal/dataflow"
	"wishbone/internal/wire"
)

// SinkDigest is an order-free digest of the values that reached a graph's
// server-side SideEffect operators: how many, and the sum of FNV-64a over
// each one's wire.Marshal bytes. Two engines agree on it when they hand the
// sinks the same multiset of values, whatever order their shards delivered
// them in.
type SinkDigest struct {
	Values int
	Sum    uint64
}

// SinkRecorder retains every value a graph's server-side SideEffect
// operators receive while it is installed. Counts alone cannot tell a
// recycled output frame that was overwritten after its consumer read it
// from the right one: values are retained as received and digested only
// after the run, so a frame written again later in the run shows.
type SinkRecorder struct {
	mu   sync.Mutex
	vals []dataflow.Value
}

// RecordServerSinks wraps every SideEffect operator of g that onNode
// leaves on the server (WrapWork) so that each value it receives is
// retained by the returned recorder, on every engine that compiles or
// walks g afterwards. restore puts the original functions back; call it
// before the graph is recorded under another cut.
func RecordServerSinks(g *dataflow.Graph, onNode map[int]bool) (rec *SinkRecorder, restore func()) {
	rec = &SinkRecorder{}
	return rec, WrapWork(g, func(op *dataflow.Operator) bool { return op.SideEffect && !onNode[op.ID()] },
		func(_ *dataflow.Ctx, vs ...dataflow.Value) { rec.keep(vs...) })
}

// WrapWork wraps the Work and BatchWork of every operator of g with a Work
// that pick selects so that see observes each call's context and values
// first. restore puts the original functions back.
func WrapWork(g *dataflow.Graph, pick func(*dataflow.Operator) bool, see func(*dataflow.Ctx, ...dataflow.Value)) (restore func()) {
	var undo []func()
	for _, op := range g.Operators() {
		if op.Work == nil || !pick(op) {
			continue
		}
		work, batch := op.Work, op.BatchWork
		op.Work = func(ctx *dataflow.Ctx, port int, v dataflow.Value, emit dataflow.Emit) {
			see(ctx, v)
			work(ctx, port, v, emit)
		}
		if batch != nil {
			op.BatchWork = func(ctx *dataflow.Ctx, port int, vs []dataflow.Value, emit dataflow.EmitBatch) {
				see(ctx, vs...)
				batch(ctx, port, vs, emit)
			}
		}
		undo = append(undo, func() { op.Work, op.BatchWork = work, batch })
	}
	return func() {
		for _, f := range undo {
			f()
		}
	}
}

func (r *SinkRecorder) keep(vs ...dataflow.Value) {
	r.mu.Lock()
	r.vals = append(r.vals, vs...)
	r.mu.Unlock()
}

// Take digests the values retained since the last Take and forgets them.
func (r *SinkRecorder) Take(t testing.TB) SinkDigest {
	t.Helper()
	r.mu.Lock()
	vals := r.vals
	r.vals = nil
	r.mu.Unlock()
	d := SinkDigest{Values: len(vals)}
	for _, v := range vals {
		b, err := wire.Marshal(v)
		if err != nil {
			t.Fatalf("sink value %T: %v", v, err)
		}
		h := fnv.New64a()
		h.Write(b)
		d.Sum += h.Sum64()
	}
	return d
}
