// Package speech builds the paper's acoustic speech-detection application
// (§6.2): a linear pipeline that reduces raw audio to Mel Frequency
// Cepstral Coefficients (MFCCs).
//
// The pipeline is the one profiled in Figures 7–10:
//
//	source → preemph → hamming → prefilt → FFT → filtBank → logs → cepstrals → sink
//
// Element sizes follow the paper: 200-sample (400-byte) frames at 40
// frames/s for 8 kHz audio; 128 bytes after the filter bank; 52 bytes (13
// float32 coefficients) after the DCT.
package speech

import (
	"wishbone/internal/apps/kernel"
	"wishbone/internal/dataflow"
	"wishbone/internal/dsp"
	"wishbone/internal/profile"
	"wishbone/internal/synth"
)

// FrameSamples is the number of audio samples per frame (25 ms at 8 kHz).
const FrameSamples = 200

// FrameRate is the full-rate frame frequency in frames/second.
const FrameRate = 40.0

// SampleRate is the audio sample rate in Hz.
const SampleRate = 8000.0

// NumMelFilters is the size of the mel filter bank (32 energies → 128
// bytes as float32, the paper's 4× reduction from the 512-byte spectrum).
const NumMelFilters = 32

// NumCepstra is the number of cepstral coefficients kept (13 → 52 bytes).
const NumCepstra = 13

// fftBins is the number of one-sided spectrum bins (200 samples padded to
// 256).
var fftBins = dsp.NextPow2(FrameSamples) / 2

// App is the constructed speech-detection program.
type App struct {
	Graph *dataflow.Graph

	// Pipeline operators in order, source first, sink last. Cutpoint k
	// (1-based, as in Figures 9–10) places operators Pipeline[0..k-1] on
	// the node.
	Pipeline []*dataflow.Operator

	// Sink consumes cepstral vectors on the server. Last element of
	// Pipeline.
	Sink *dataflow.Operator
}

// preemphState is the stateful pre-emphasis filter memory.
type preemphState struct{ prev float64 }

// prefiltState is the 4-tap noise-shaping FIR's delay line.
type prefiltState struct{ fir *dsp.FIRState }

var prefiltCoeffs = []float64{0.35, 0.4, 0.2, 0.05}

// New builds the application graph. Every operator is declared in the Node
// namespace except the sink, so the partitioner is free to place the whole
// pipeline (§2.1's program skeleton with the sink's consumer on the
// server).
//
// Each stage's arithmetic is written once, as a call of the dsp kernel that
// reads the stage's input frame (int16 samples or a float32 spectrum) and
// writes the output frame kernel.Frames supplies, computing in float64 in
// between. Frames derives both the per-element Work and the BatchWork from
// that body, so a dispatch on either path allocates the frame it emits and
// nothing else.
func New() *App {
	g := dataflow.New()
	hamming := dsp.HammingWindow(FrameSamples)
	mel := dsp.NewMelBank(NumMelFilters, fftBins, SampleRate, 100, 4000)

	source := g.Add(&dataflow.Operator{
		Name: "source", NS: dataflow.NSNode, SideEffect: true,
	})
	preemph := g.Add(kernel.Frames(&dataflow.Operator{
		Name: "preemph", NS: dataflow.NSNode, Stateful: true, BatchStateSafe: true,
		NewState: func() any { return &preemphState{} },
	}, kernel.SameLen[int16], func(ctx *dataflow.Ctx, _ *dsp.Scratch, in, out []int16) {
		st := ctx.State.(*preemphState)
		st.prev = dsp.PreEmphasis(ctx.Counter, in, 0.97, st.prev, out)
	}))
	hammingOp := g.Add(kernel.Frames(&dataflow.Operator{
		Name: "hamming", NS: dataflow.NSNode,
	}, kernel.SameLen[int16], func(ctx *dataflow.Ctx, _ *dsp.Scratch, in, out []int16) {
		dsp.ApplyWindow(ctx.Counter, in, hamming, out)
	}))
	prefilt := g.Add(kernel.Frames(&dataflow.Operator{
		Name: "prefilt", NS: dataflow.NSNode, Stateful: true, BatchStateSafe: true,
		NewState: func() any { return &prefiltState{fir: dsp.NewFIRState(len(prefiltCoeffs))} },
	}, kernel.SameLen[int16], func(ctx *dataflow.Ctx, _ *dsp.Scratch, in, out []int16) {
		dsp.FIRBlock(ctx.Counter, ctx.State.(*prefiltState).fir, prefiltCoeffs, in, out)
	}))
	fft := g.Add(kernel.Frames(&dataflow.Operator{
		Name: "FFT", NS: dataflow.NSNode,
	}, func(in []int16) int { return dsp.NextPow2(len(in)) / 2 },
		func(ctx *dataflow.Ctx, sc *dsp.Scratch, in []int16, out []float32) {
			dsp.PowerSpectrum(ctx.Counter, in, sc.Complex(dsp.NextPow2(len(in))), out)
		}))
	filtBank := g.Add(kernel.Frames(&dataflow.Operator{
		Name: "filtBank", NS: dataflow.NSNode,
	}, func([]float32) int { return mel.NumFilters() },
		func(ctx *dataflow.Ctx, _ *dsp.Scratch, in, out []float32) {
			mel.Energies(ctx.Counter, in, out)
		}))
	logs := g.Add(kernel.Frames(&dataflow.Operator{
		Name: "logs", NS: dataflow.NSNode,
	}, kernel.SameLen[float32], func(ctx *dataflow.Ctx, _ *dsp.Scratch, in []float32, out []int16) {
		// Quantized to 8.8 fixed point: halves the element size, making
		// logs a viable (data-reducing) cutpoint as in Figure 5(b).
		dsp.Log10Fixed88(ctx.Counter, in, out)
	}))
	cepstrals := g.Add(kernel.Frames(&dataflow.Operator{
		Name: "cepstrals", NS: dataflow.NSNode,
	}, func([]int16) int { return NumCepstra },
		func(ctx *dataflow.Ctx, sc *dsp.Scratch, in []int16, out []float32) {
			lg := sc.A(len(in))
			for i, e := range in {
				lg[i] = float64(e) / 256
			}
			dsp.DCTIIInto(ctx.Counter, lg, NumCepstra, out)
		}))
	sink := g.Add(&dataflow.Operator{
		Name: "sink", NS: dataflow.NSServer, SideEffect: true,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			// Results are delivered to the speaker-identification backend.
		},
	})

	pipeline := []*dataflow.Operator{
		source, preemph, hammingOp, prefilt, fft, filtBank, logs, cepstrals, sink,
	}
	g.Chain(pipeline...)
	attachSnapshotCodecs(g)
	return &App{Graph: g, Pipeline: pipeline, Sink: sink}
}

// SampleTrace generates a deterministic audio trace of the given duration
// for profiling.
func (a *App) SampleTrace(seed int64, seconds float64) profile.Input {
	gen := synth.NewAudio(seed, SampleRate)
	frames := int(seconds * FrameRate)
	events := make([]dataflow.Value, frames)
	for i := range events {
		events[i] = gen.Frame(FrameSamples)
	}
	return profile.Input{Source: a.Pipeline[0], Events: events, Rate: FrameRate}
}
