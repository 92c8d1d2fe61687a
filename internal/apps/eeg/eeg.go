// Package eeg builds the paper's patient-specific seizure onset detection
// application (§6.1): 22 EEG channels sampled at 256 Hz, divided into
// 2-second windows, decomposed by a cascaded polyphase wavelet filter
// structure, reduced to 3 band-energy features per channel (66 in total),
// and classified by a linear SVM with a 3-consecutive-window seizure
// declaration rule.
//
// Each channel elaborates the operator structure of the paper's Figure 1:
// LowFreqFilter = GetEven | GetOdd | FIRFilter×2 | Zip2 | Add (6 operators),
// cascaded so that every level halves the data rate. The full 22-channel
// graph has ~1.2k operators — the same scale as the paper's 1412 (their
// WaveScript front end elaborates a few more helper operators per filter).
package eeg

import (
	"fmt"

	"wishbone/internal/apps/kernel"
	"wishbone/internal/cost"
	"wishbone/internal/dataflow"
	"wishbone/internal/dsp"
	"wishbone/internal/profile"
	"wishbone/internal/synth"
)

// Channels is the number of EEG channels in the full application.
const Channels = 22

// SampleRate is the per-channel sampling rate in Hz.
const SampleRate = 256.0

// WindowSamples is the number of samples per 2-second analysis window.
const WindowSamples = 512

// WindowRate is the full-rate window frequency per channel (one window
// every 2 seconds).
const WindowRate = 0.5

// FeaturesPerChannel is the number of band-energy features per channel.
const FeaturesPerChannel = 3

// ConsecutiveForSeizure is how many consecutive positive windows declare a
// seizure.
const ConsecutiveForSeizure = 3

// 4-tap polyphase wavelet filter coefficients (low-pass and high-pass
// halves of a Daubechies-like analysis pair).
var (
	lowEven  = []float64{0.48296, 0.22414, 0, 0}
	lowOdd   = []float64{0.83652, -0.12941, 0, 0}
	highEven = []float64{-0.12941, -0.48296, 0, 0}
	highOdd  = []float64{0.22414, 0.83652, 0, 0}
)

// filterGains scales each extracted band's energy (Figure 1's
// MagWithScale(filterGains[k], ...)).
var filterGains = []float64{1.0, 1.2, 1.5}

// pairVal is the synchronized output of a Zip2 operator: the filtered even
// and odd polyphase branches awaiting recombination.
type pairVal struct {
	a, b []int16
}

// WireSize implements dataflow.Sized.
func (p pairVal) WireSize() int { return 2*len(p.a) + 2*len(p.b) }

// featVec is a channel's (or the whole application's) feature vector.
type featVec []float32

// WireSize implements dataflow.Sized.
func (f featVec) WireSize() int { return 4 * len(f) }

// App is a constructed EEG application.
type App struct {
	Graph *dataflow.Graph

	// Sources holds each channel's source operator.
	Sources []*dataflow.Operator

	// SVM and Detect are the server-side classification operators.
	SVM    *dataflow.Operator
	Detect *dataflow.Operator

	// channels is the channel count this instance was built with.
	channels int
}

// New builds the full 22-channel application.
func New() *App { return NewWithChannels(Channels) }

// NewWithChannels builds the application with a reduced channel count
// (Figure 5(a) evaluates a single channel).
func NewWithChannels(channels int) *App {
	g := dataflow.New()
	app := &App{Graph: g, channels: channels}

	chanOuts := make([]*dataflow.Operator, channels)
	for c := 0; c < channels; c++ {
		src, out := buildChannel(g, c)
		app.Sources = append(app.Sources, src)
		chanOuts[c] = out
	}

	zipAll := g.Add(&dataflow.Operator{
		Name: "zipAll", NS: dataflow.NSNode, Stateful: true,
		NewState: func() any { return newZipState(channels) },
		Work:     zipWork(channels),
	})
	for c, out := range chanOuts {
		g.Connect(out, zipAll, c)
	}

	weights := svmWeights(channels * FeaturesPerChannel)
	svm := g.Add(kernel.Scalars(&dataflow.Operator{
		Name: "svm", NS: dataflow.NSServer,
	}, func(ctx *dataflow.Ctx, _ *dsp.Scratch, feats featVec) float32 {
		margin := -0.35 // bias
		for i, f := range feats {
			margin += weights[i] * float64(f)
		}
		countDot(ctx, len(feats))
		return float32(margin)
	}))
	g.Connect(zipAll, svm, 0)

	detect := g.Add(&dataflow.Operator{
		Name: "detect", NS: dataflow.NSServer, Stateful: true,
		NewState: func() any { return &detectState{} },
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			st := ctx.State.(*detectState)
			if v.(float32) > 0 {
				st.run++
				if st.run == ConsecutiveForSeizure {
					emit(true) // seizure declared
				}
			} else {
				st.run = 0
			}
		},
	})
	g.Connect(svm, detect, 0)

	sink := g.Add(&dataflow.Operator{
		Name: "sink", NS: dataflow.NSServer, SideEffect: true,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {},
	})
	g.Connect(detect, sink, 0)
	app.SVM, app.Detect = svm, detect
	attachSnapshotCodecs(g)
	return app
}

type detectState struct{ run int }

// countDot records the cost of an n-term dot product.
func countDot(ctx *dataflow.Ctx, n int) {
	ctx.Counter.Add(cost.FloatMul, n)
	ctx.Counter.Add(cost.FloatAdd, n)
	ctx.Counter.Add(cost.Load, 2*n)
}

// buildChannel elaborates one channel's filter cascade and returns its
// source operator and its per-channel feature (zipN) operator. The
// frame→frame and frame→scalar operators (scale, getEven/getOdd, the FIRs,
// add, the magnitudes, the SVM) are each one kernel from which
// kernel.Frames / kernel.Scalars derive Work and BatchWork; only the
// queueing operators (zip2, zipN, zipAll, detect) are hand-written Work
// functions.
func buildChannel(g *dataflow.Graph, ch int) (src, out *dataflow.Operator) {
	name := func(stage string) string { return fmt.Sprintf("ch%02d.%s", ch, stage) }

	src = g.Add(&dataflow.Operator{
		Name: name("source"), NS: dataflow.NSNode, SideEffect: true,
	})
	scale := g.Add(kernel.Frames(&dataflow.Operator{
		Name: name("scale"), NS: dataflow.NSNode, Stateful: true, BatchStateSafe: true,
		NewState: func() any { return &dcState{} },
	}, kernel.SameLen[int16], func(ctx *dataflow.Ctx, _ *dsp.Scratch, in, out []int16) {
		// Remove the running DC offset (electrode drift).
		st := ctx.State.(*dcState)
		for i, s := range in {
			st.mean = 0.999*st.mean + 0.001*float64(s)
			out[i] = s - int16(st.mean)
		}
		ctx.Counter.Add(cost.FloatMul, 2*len(in))
		ctx.Counter.Add(cost.FloatAdd, 2*len(in))
		ctx.Counter.Add(cost.Store, len(in))
	}))
	g.Connect(src, scale, 0)

	// Cascade: low1 low2 low3, then (high4,low4), (high5,low5), high6.
	low1 := buildWavelet(g, name("low1"), scale, lowEven, lowOdd)
	low2 := buildWavelet(g, name("low2"), low1, lowEven, lowOdd)
	low3 := buildWavelet(g, name("low3"), low2, lowEven, lowOdd)

	high4 := buildWavelet(g, name("high4"), low3, highEven, highOdd)
	low4 := buildWavelet(g, name("low4"), low3, lowEven, lowOdd)
	level4 := buildMag(g, name("level4"), high4, filterGains[0])

	high5 := buildWavelet(g, name("high5"), low4, highEven, highOdd)
	low5 := buildWavelet(g, name("low5"), low4, lowEven, lowOdd)
	level5 := buildMag(g, name("level5"), high5, filterGains[1])

	high6 := buildWavelet(g, name("high6"), low5, highEven, highOdd)
	level6 := buildMag(g, name("level6"), high6, filterGains[2])

	zipN := g.Add(&dataflow.Operator{
		Name: name("zipN"), NS: dataflow.NSNode, Stateful: true,
		NewState: func() any { return newZipState(FeaturesPerChannel) },
		Work:     zipWork(FeaturesPerChannel),
	})
	g.Connect(level4, zipN, 0)
	g.Connect(level5, zipN, 1)
	g.Connect(level6, zipN, 2)
	return src, zipN
}

type dcState struct{ mean float64 }

// firState is one FIRFilter operator's delay line.
type firState struct{ fir *dsp.FIRState }

// buildWavelet elaborates one LowFreqFilter/HighFreqFilter block (Figure
// 1): GetEven and GetOdd split the stream, each half runs a 4-tap FIR, and
// the halves are zipped and added. Returns the Add operator (the block's
// output).
func buildWavelet(g *dataflow.Graph, base string, in *dataflow.Operator, evenC, oddC []float64) *dataflow.Operator {
	getEven := g.Add(splitOp(base+".getEven", 0))
	getOdd := g.Add(splitOp(base+".getOdd", 1))
	g.Connect(in, getEven, 0)
	g.Connect(in, getOdd, 0)

	firE := buildFIR(g, base+".firEven", getEven, evenC)
	firO := buildFIR(g, base+".firOdd", getOdd, oddC)

	zip2 := g.Add(&dataflow.Operator{
		Name: base + ".zip2", NS: dataflow.NSNode, Stateful: true,
		NewState: func() any { return &zip2State{} },
		Work: func(ctx *dataflow.Ctx, port int, v dataflow.Value, emit dataflow.Emit) {
			st := ctx.State.(*zip2State)
			if port == 0 {
				st.a = append(st.a, v.([]int16))
			} else {
				st.b = append(st.b, v.([]int16))
			}
			ctx.Counter.Add(cost.Store, 2)
			for len(st.a) > 0 && len(st.b) > 0 {
				pair := pairVal{a: st.a[0], b: st.b[0]}
				st.a, st.b = st.a[1:], st.b[1:]
				emit(pair)
			}
		},
	})
	g.Connect(firE, zip2, 0)
	g.Connect(firO, zip2, 1)

	add := g.Add(kernel.Frames(&dataflow.Operator{
		Name: base + ".add", NS: dataflow.NSNode,
	}, func(p pairVal) int { return min(len(p.a), len(p.b)) },
		func(ctx *dataflow.Ctx, _ *dsp.Scratch, p pairVal, out []int16) {
			for i := range out {
				out[i] = p.a[i] + p.b[i]
			}
			ctx.Counter.Add(cost.IntOp, len(out))
			ctx.Counter.Add(cost.Load, 2*len(out))
			ctx.Counter.Add(cost.Store, len(out))
		}))
	g.Connect(zip2, add, 0)
	return add
}

type zip2State struct{ a, b [][]int16 }

// buildFIR elaborates one FIRFilter operator with a persistent delay line.
func buildFIR(g *dataflow.Graph, name string, in *dataflow.Operator, coeffs []float64) *dataflow.Operator {
	op := g.Add(kernel.Frames(&dataflow.Operator{
		Name: name, NS: dataflow.NSNode, Stateful: true, BatchStateSafe: true,
		NewState: func() any { return &firState{fir: dsp.NewFIRState(len(coeffs))} },
	}, kernel.SameLen[int16], func(ctx *dataflow.Ctx, sc *dsp.Scratch, in, out []int16) {
		st := ctx.State.(*firState)
		x := dsp.Widen(in, sc.A(len(in)))
		dsp.Clamp16(dsp.FIRBlockInto(ctx.Counter, st.fir, coeffs, x, sc.B(len(in))), out)
	}))
	g.Connect(in, op, 0)
	return op
}

// buildMag elaborates a MagWithScale operator producing one float32 energy
// per window.
func buildMag(g *dataflow.Graph, name string, in *dataflow.Operator, gain float64) *dataflow.Operator {
	op := g.Add(kernel.Scalars(&dataflow.Operator{
		Name: name, NS: dataflow.NSNode,
	}, func(ctx *dataflow.Ctx, sc *dsp.Scratch, in []int16) float32 {
		return float32(dsp.MagWithScale(ctx.Counter, gain, dsp.Widen(in, sc.A(len(in)))))
	}))
	g.Connect(in, op, 0)
	return op
}

// zipState buffers one queue per input port until a full row is available.
type zipState struct{ q [][]dataflow.Value }

func newZipState(ports int) *zipState { return &zipState{q: make([][]dataflow.Value, ports)} }

// zipWork synchronizes n input ports of float32 scalars or featVec rows
// into a single featVec.
func zipWork(ports int) dataflow.WorkFunc {
	return func(ctx *dataflow.Ctx, port int, v dataflow.Value, emit dataflow.Emit) {
		st := ctx.State.(*zipState)
		st.q[port] = append(st.q[port], v)
		ctx.Counter.Add(cost.Store, 1)
		for {
			for _, q := range st.q {
				if len(q) == 0 {
					return
				}
			}
			var row featVec
			for p := range st.q {
				switch x := st.q[p][0].(type) {
				case float32:
					row = append(row, x)
				case featVec:
					row = append(row, x...)
				}
				st.q[p] = st.q[p][1:]
			}
			ctx.Counter.Add(cost.Load, len(row))
			ctx.Counter.Add(cost.Store, len(row))
			emit(row)
		}
	}
}

// splitOp is the GetEven (half 0) / GetOdd (half 1) operator: each frame
// keeps the selected polyphase half.
func splitOp(name string, half int) *dataflow.Operator {
	return kernel.Frames(&dataflow.Operator{Name: name, NS: dataflow.NSNode},
		func(in []int16) int { return (len(in) + 1 - half) / 2 },
		func(ctx *dataflow.Ctx, _ *dsp.Scratch, in, out []int16) {
			for i := range out {
				out[i] = in[2*i+half]
			}
			ctx.Counter.Add(cost.Load, len(in))
			ctx.Counter.Add(cost.Store, len(in)/2)
			ctx.Counter.Add(cost.Branch, len(in))
		})
}

// svmWeights returns the fixed synthetic patient-specific weight vector:
// positive weight on low-band energy (seizure oscillations are below
// 20 Hz), negative on the highest band.
func svmWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		switch i % FeaturesPerChannel {
		case 0:
			w[i] = 0.002
		case 1:
			w[i] = 0.001
		default:
			w[i] = -0.0005
		}
	}
	return w
}

// SampleTrace generates deterministic multi-channel traces for profiling:
// one input per channel source, windows.
func (a *App) SampleTrace(seed int64, seconds float64) []profile.Input {
	gen := synth.NewEEG(seed, a.channels, SampleRate)
	nWin := int(seconds * WindowRate)
	if nWin < 1 {
		nWin = 1
	}
	events := make([][]dataflow.Value, a.channels)
	for w := 0; w < nWin; w++ {
		win := gen.Window(WindowSamples)
		for c := 0; c < a.channels; c++ {
			events[c] = append(events[c], win[c])
		}
	}
	inputs := make([]profile.Input, a.channels)
	for c := 0; c < a.channels; c++ {
		inputs[c] = profile.Input{Source: a.Sources[c], Events: events[c], Rate: WindowRate}
	}
	return inputs
}
