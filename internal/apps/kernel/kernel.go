// Package kernel derives an operator's two dispatch forms — the
// per-element Work and the slice-at-a-time BatchWork — from one arithmetic
// body, so the two cannot drift apart and both hold dataflow.WorkFunc's
// memory contract: a dispatch allocates the values it emits and nothing
// else. A kernel reads its input frame and fills its output frame in their
// own element types (the dsp kernels convert inside their loops); the few
// that need a temporary — the FFT's complex workspace, the cepstral stage's
// dequantized frame — compute through a dsp.Scratch the operator's
// context owns (dataflow.Workspace), used only within the call. The output a kernel
// fills is never scratch: it comes from dataflow.Frame, which makes it
// fresh unless the compiled engine recycles the operator — every consumer
// borrows its input, so the frame is dead once the dispatch run that
// emitted it is over. Both adapters declare Borrows: a kernel reads its
// input only while it runs.
package kernel

import (
	"wishbone/internal/dataflow"
	"wishbone/internal/dsp"
)

// Frames sets op's Work and BatchWork from a frame→frame kernel, marks op
// Borrows and returns op. k reads in and fills out, which arrives zeroed at
// length outLen(in); it must not retain in, out or any slice of sc. Work
// takes one dataflow.Frame per element; BatchWork takes one per batch and
// hands k consecutive cap-limited pieces of it, so emitted frames never
// overlap.
func Frames[In, E any](op *dataflow.Operator, outLen func(In) int,
	k func(ctx *dataflow.Ctx, sc *dsp.Scratch, in In, out []E)) *dataflow.Operator {
	op.Borrows = true
	op.Work = func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
		in := v.(In)
		out := dataflow.Frame[E](ctx, outLen(in))
		k(ctx, dataflow.Workspace[dsp.Scratch](ctx), in, out)
		emit(out)
	}
	op.BatchWork = func(ctx *dataflow.Ctx, _ int, vs []dataflow.Value, emit dataflow.EmitBatch) {
		total := 0
		for _, v := range vs {
			total += outLen(v.(In))
		}
		slab := dataflow.Frame[E](ctx, total)
		outs := make([]dataflow.Value, len(vs))
		sc := dataflow.Workspace[dsp.Scratch](ctx)
		for i, v := range vs {
			in := v.(In)
			n := outLen(in)
			out := slab[:n:n]
			slab = slab[n:]
			k(ctx, sc, in, out)
			outs[i] = out
		}
		emit(outs)
	}
	return op
}

// Scalars is Frames for a frame→scalar kernel: k's result is the emitted
// value. k must not retain in, and must not return it (or anything backed
// by it): the operator Borrows its input.
func Scalars[In, Out any](op *dataflow.Operator,
	k func(ctx *dataflow.Ctx, sc *dsp.Scratch, in In) Out) *dataflow.Operator {
	op.Borrows = true
	op.Work = func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
		emit(k(ctx, dataflow.Workspace[dsp.Scratch](ctx), v.(In)))
	}
	op.BatchWork = func(ctx *dataflow.Ctx, _ int, vs []dataflow.Value, emit dataflow.EmitBatch) {
		outs := make([]dataflow.Value, len(vs))
		sc := dataflow.Workspace[dsp.Scratch](ctx)
		for i, v := range vs {
			outs[i] = k(ctx, sc, v.(In))
		}
		emit(outs)
	}
	return op
}

// SameLen is the outLen of a kernel whose output frame is as long as its
// input frame.
func SameLen[T any](in []T) int { return len(in) }
