// Package kernel derives an operator's two dispatch forms — the
// per-element Work and the slice-at-a-time BatchWork — from one arithmetic
// body, so the two cannot drift apart and both hold dataflow.WorkFunc's
// memory contract: a dispatch allocates the values it emits and nothing
// else. The kernel borrows a pooled dsp.Scratch for its temporaries; the
// adapters acquire it per call and release it before emit, and the output
// a kernel fills is always freshly made, never scratch.
package kernel

import (
	"wishbone/internal/dataflow"
	"wishbone/internal/dsp"
)

// Frames sets op's Work and BatchWork from a frame→frame kernel and
// returns op. k reads in and fills out, which arrives zeroed at length
// outLen(in); it must not retain in, out or any slice of sc. Work makes one
// output per element; BatchWork makes one slab per batch and hands k
// consecutive cap-limited pieces of it, so emitted frames never overlap.
func Frames[In, E any](op *dataflow.Operator, outLen func(In) int,
	k func(ctx *dataflow.Ctx, sc *dsp.Scratch, in In, out []E)) *dataflow.Operator {
	op.Work = func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
		in := v.(In)
		out := make([]E, outLen(in))
		sc := dsp.GetScratch()
		k(ctx, sc, in, out)
		dsp.PutScratch(sc)
		emit(out)
	}
	op.BatchWork = func(ctx *dataflow.Ctx, _ int, vs []dataflow.Value, emit dataflow.EmitBatch) {
		total := 0
		for _, v := range vs {
			total += outLen(v.(In))
		}
		slab := make([]E, total)
		outs := make([]dataflow.Value, len(vs))
		sc := dsp.GetScratch()
		for i, v := range vs {
			in := v.(In)
			n := outLen(in)
			out := slab[:n:n]
			slab = slab[n:]
			k(ctx, sc, in, out)
			outs[i] = out
		}
		dsp.PutScratch(sc)
		emit(outs)
	}
	return op
}

// Scalars is Frames for a frame→scalar kernel: k's result is the emitted
// value.
func Scalars[In, Out any](op *dataflow.Operator,
	k func(ctx *dataflow.Ctx, sc *dsp.Scratch, in In) Out) *dataflow.Operator {
	op.Work = func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
		sc := dsp.GetScratch()
		out := k(ctx, sc, v.(In))
		dsp.PutScratch(sc)
		emit(out)
	}
	op.BatchWork = func(ctx *dataflow.Ctx, _ int, vs []dataflow.Value, emit dataflow.EmitBatch) {
		outs := make([]dataflow.Value, len(vs))
		sc := dsp.GetScratch()
		for i, v := range vs {
			outs[i] = k(ctx, sc, v.(In))
		}
		dsp.PutScratch(sc)
		emit(outs)
	}
	return op
}

// SameLen is the outLen of a kernel whose output frame is as long as its
// input frame.
func SameLen[T any](in []T) int { return len(in) }
