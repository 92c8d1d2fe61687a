package kernel_test

import (
	"fmt"
	"reflect"
	"testing"

	"wishbone/internal/apps/eeg"
	"wishbone/internal/apps/speech"
	"wishbone/internal/cost"
	"wishbone/internal/dataflow"
	"wishbone/internal/profile"
)

// opCase is one kernel-derived operator with two distinct inputs it really
// receives when its application runs.
type opCase struct {
	op   *dataflow.Operator
	port int
	a, b dataflow.Value
}

// kernelOps runs the application through the reference executor and
// returns every operator built by this package's adapters (the ones that
// carry a BatchWork) with the first two elements that reached it. The
// queueing operators (zip2, zipN, zipAll, detect) and the sinks are
// hand-written Work functions with no scratch and are not in the table.
func kernelOps(t *testing.T, g *dataflow.Graph, inputs []profile.Input) []opCase {
	t.Helper()
	seen := make(map[int]*opCase)
	var order []*opCase
	ex := dataflow.NewExecutor(g, 0)
	ex.OnEdge = func(e *dataflow.Edge, v dataflow.Value) {
		if e.To.BatchWork == nil {
			return
		}
		c := seen[e.To.ID()]
		switch {
		case c == nil:
			c = &opCase{op: e.To, port: e.ToPort, a: v}
			seen[e.To.ID()] = c
			order = append(order, c)
		case c.b == nil && fmt.Sprint(v) != fmt.Sprint(c.a):
			c.b = v
		}
	}
	for i := 0; i < len(inputs[0].Events); i++ {
		for _, in := range inputs {
			ex.Inject(in.Source, in.Events[i])
		}
	}
	cases := make([]opCase, 0, len(order))
	for _, c := range order {
		if c.b == nil {
			t.Fatalf("%s: trace never delivered a second distinct input", c.op.Name)
		}
		cases = append(cases, *c)
	}
	if len(cases) == 0 {
		t.Fatal("no kernel-derived operator ran")
	}
	return cases
}

// apps is the table both tests sweep: the speech pipeline and a 2-channel
// EEG cascade (every operator shape the full 22-channel graph has).
func apps(t *testing.T) map[string][]opCase {
	sp := speech.New()
	ee := eeg.NewWithChannels(2)
	return map[string][]opCase{
		"speech": kernelOps(t, sp.Graph, []profile.Input{sp.SampleTrace(1, 0.25)}),
		"eeg":    kernelOps(t, ee.Graph, ee.SampleTrace(1, 24)),
	}
}

func newCtx(op *dataflow.Operator) *dataflow.Ctx {
	ctx := &dataflow.Ctx{Counter: &cost.Counter{}}
	if op.NewState != nil {
		ctx.State = op.NewState()
	}
	return ctx
}

// TestWorkAllocatesOnlyItsOutput is the allocation guard: once the pooled
// scratch is warm, a per-element dispatch allocates the frame it emits and
// that frame's interface box — one allocation for a scalar — and nothing
// else. (The hand-written bodies this replaced made three to five.)
func TestWorkAllocatesOnlyItsOutput(t *testing.T) {
	for name, cases := range apps(t) {
		for _, c := range cases {
			ctx := newCtx(c.op)
			var out dataflow.Value
			c.op.Work(ctx, c.port, c.a, func(v dataflow.Value) { out = v }) // warm the scratch
			limit := 2.0
			if reflect.ValueOf(out).Kind() != reflect.Slice {
				limit = 1
			}
			if raceEnabled {
				limit += 4 // a rebuilt Scratch: the struct and its three buffers
			}
			drop := func(dataflow.Value) {}
			got := testing.AllocsPerRun(50, func() { c.op.Work(ctx, c.port, c.a, drop) })
			if got > limit {
				t.Errorf("%s/%s: %v allocations per dispatch, want ≤ %v", name, c.op.Name, got, limit)
			}
		}
	}
}

// TestEmittedValuesNeverAliasScratch is the aliasing guard for the one new
// way to be wrong: a value emitted for input A must survive the same
// operator (and so the same pooled scratch) processing input B, per element
// and as one batch, and the two dispatch forms must agree on both outputs.
func TestEmittedValuesNeverAliasScratch(t *testing.T) {
	for name, cases := range apps(t) {
		for _, c := range cases {
			var outs []dataflow.Value
			keep := func(v dataflow.Value) { outs = append(outs, v) }
			ctx := newCtx(c.op)
			c.op.Work(ctx, c.port, c.a, keep)
			wantA := fmt.Sprint(outs[0])
			c.op.Work(ctx, c.port, c.b, keep)
			if got := fmt.Sprint(outs[0]); got != wantA {
				t.Errorf("%s/%s: output for A changed when B was dispatched:\nwas %s\nnow %s", name, c.op.Name, wantA, got)
			}
			wantB := fmt.Sprint(outs[1])

			var batch []dataflow.Value
			c.op.BatchWork(newCtx(c.op), c.port, []dataflow.Value{c.a, c.b},
				func(vs []dataflow.Value) { batch = vs })
			if len(batch) != 2 || fmt.Sprint(batch[0]) != wantA || fmt.Sprint(batch[1]) != wantB {
				t.Errorf("%s/%s: BatchWork({A,B}) = %v, want [%s %s]", name, c.op.Name, batch, wantA, wantB)
			}
			for i, v := range append(outs, batch...) {
				if rv := reflect.ValueOf(v); rv.Kind() == reflect.Slice && rv.Cap() != rv.Len() {
					t.Errorf("%s/%s: emitted value %d has cap %d > len %d: an append could reach its neighbour",
						name, c.op.Name, i, rv.Cap(), rv.Len())
				}
			}
		}
	}
}
