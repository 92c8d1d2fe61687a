package dsp

import (
	"fmt"
	"math"

	"wishbone/internal/cost"
)

// clamp16 converts v to int16, saturating at the int16 range and
// truncating toward zero: the narrowing step of every kernel that emits
// samples. It is two branches, not builtin min/max, which cost twice as
// much here.
func clamp16(v float64) int16 {
	if v > 32767 {
		v = 32767
	} else if v < -32768 {
		v = -32768
	}
	return int16(v)
}

// PreEmphasis applies the first-order high-pass y[i] = x[i] − coef·x[i−1]
// used at the front of speech pipelines into out (len(out) ≥ len(x)),
// clamped to int16; prev is the last sample of the previous frame and the
// updated value is returned (the operator keeps it as private state).
// Counter charges are bulk-charged: the counter is a pure count, so n adds
// of one equal one add of n.
func PreEmphasis(c *cost.Counter, x []int16, coef, prev float64, out []int16) float64 {
	out = out[:len(x)]
	for i, v := range x {
		f := float64(v)
		out[i] = clamp16(f - coef*prev)
		prev = f
	}
	c.Add(cost.FloatMul, len(x))
	c.Add(cost.FloatAdd, len(x))
	c.Add(cost.Load, len(x))
	c.Add(cost.Store, len(x))
	return prev
}

// HammingWindow returns the n-point Hamming window coefficients. Windows
// are cached per size and shared (a long-running service elaborates many
// graphs that all window at the same frame length); callers must treat
// the returned slice as read-only.
func HammingWindow(n int) []float64 {
	if w, ok := hammingPlans.Load(n); ok {
		return w.([]float64)
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(n-1))
	}
	p, _ := hammingPlans.LoadOrStore(n, w)
	return p.([]float64)
}

// ApplyWindow multiplies x elementwise by the window w (len(w) ≥ len(x))
// into out (len(out) ≥ len(x)), clamped to int16.
func ApplyWindow(c *cost.Counter, x []int16, w []float64, out []int16) {
	out = out[:len(x)]
	w = w[:len(x)]
	for i, v := range x {
		out[i] = clamp16(float64(v) * w[i])
	}
	c.Add(cost.FloatMul, len(x))
	c.Add(cost.Load, 2*len(x))
	c.Add(cost.Store, len(x))
}

// FIRState is the tapped delay line of one FIR filter instance.
type FIRState struct {
	taps []float64
	pos  int
}

// NewFIRState returns a delay line for n coefficients, primed with zeros
// (the paper's FIRFilter enqueues N−1 zeros at construction, Figure 1).
func NewFIRState(n int) *FIRState { return &FIRState{taps: make([]float64, n)} }

// Snapshot returns a copy of the delay line and the write cursor — the
// complete logical state, for serialization.
func (s *FIRState) Snapshot() (taps []float64, pos int) {
	return append([]float64(nil), s.taps...), s.pos
}

// RestoreFIRState rebuilds a delay line from Snapshot output — possibly a
// client's resume blob, so no taps or a cursor outside them is an error.
func RestoreFIRState(taps []float64, pos int) (*FIRState, error) {
	if len(taps) == 0 || pos < 0 || pos >= len(taps) {
		return nil, fmt.Errorf("dsp: FIR delay line of %d taps with cursor %d", len(taps), pos)
	}
	return &FIRState{taps: append([]float64(nil), taps...), pos: pos}, nil
}

// FIRBlock filters a block through the delay line s (len(coeffs) taps or
// more) into out (len(out) ≥ len(x)): out[i] = Σ coeffs[j]·x[i−j], summed
// from zero in coefficient order and clamped to int16. Only the first
// len(coeffs)−1 outputs reach into the previous block and walk the delay
// line. The rest read x directly — the same products added in the same
// order, so the same bits as pushing sample by sample (FIRState.Step in
// the tests) — and the block's tail is then left in the line where pushing
// would have put it. The device's per-sample charges are bulk-charged once
// for the block.
func FIRBlock(c *cost.Counter, s *FIRState, coeffs []float64, x, out []int16) {
	out = out[:len(x)]
	nt := len(s.taps)
	head := min(len(x), len(coeffs)-1)
	for i, v := range x[:head] {
		s.taps[s.pos] = float64(v)
		s.pos = (s.pos + 1) % nt
		sum := 0.0
		for j, co := range coeffs {
			idx := s.pos - 1 - j
			if idx < 0 {
				idx += nt
			}
			sum += co * s.taps[idx]
		}
		out[i] = clamp16(sum)
	}
	if len(coeffs) == 4 { // both applications' filters
		if len(x) > 3 {
			c0, c1, c2, c3 := coeffs[0], coeffs[1], coeffs[2], coeffs[3]
			// x[i−1], x[i−2], x[i−3], each widened once.
			p1, p2, p3 := float64(x[2]), float64(x[1]), float64(x[0])
			xs := x[3:]
			o := out[3:][:len(xs)]
			for i, v := range xs {
				f := float64(v)
				o[i] = clamp16(0.0 + c0*f + c1*p1 + c2*p2 + c3*p3) // from zero, as below: 0 + −0 is +0
				p1, p2, p3 = f, p1, p2
			}
		}
	} else {
		for i := head; i < len(x); i++ {
			sum := 0.0
			for j, co := range coeffs {
				sum += co * float64(x[i-j])
			}
			out[i] = clamp16(sum)
		}
	}
	tail := x[head:]
	if skip := len(tail) - nt; skip > 0 {
		s.pos = (s.pos + skip) % nt
		tail = tail[skip:]
	}
	for _, v := range tail {
		s.taps[s.pos] = float64(v)
		s.pos = (s.pos + 1) % nt
	}
	nc := len(x) * len(coeffs)
	c.Add(cost.FloatMul, nc)
	c.Add(cost.FloatAdd, nc)
	c.Add(cost.Load, 2*nc)
	c.Add(cost.IntOp, 2*nc)
	c.Add(cost.Store, len(x))
}

// MagWithScale computes scale·Σ|x[i]| in float64 — the windowed energy
// feature the EEG application extracts from each high-pass band
// (Figure 1).
func MagWithScale[T int16 | float64](c *cost.Counter, scale float64, x []T) float64 {
	sum := 0.0
	for _, v := range x {
		sum += math.Abs(float64(v))
	}
	c.Add(cost.FloatAdd, len(x))
	c.Add(cost.Branch, len(x))
	c.Add(cost.Load, len(x))
	c.Add(cost.FloatMul, 1)
	return scale * sum
}

// Log10Fixed88 takes log10 of every element, flooring tiny values to
// avoid −Inf (the log-spectrum step that makes convolutional components
// additive, §6.2.1), and writes it into out (len(out) ≥ len(x)) in 8.8
// fixed point, saturating at [−128, 127] and truncating toward zero.
func Log10Fixed88(c *cost.Counter, x []float32, out []int16) {
	out = out[:len(x)]
	for i, v := range x {
		e := float64(v)
		if e < 1e-12 {
			e = 1e-12
		}
		e = math.Log10(e)
		if e > 127 {
			e = 127
		} else if e < -128 {
			e = -128
		}
		out[i] = int16(e * 256)
	}
	c.Add(cost.Log, len(x))
	c.Add(cost.Branch, len(x))
	c.Add(cost.Load, len(x))
	c.Add(cost.Store, len(x))
}

// DCTIIInto computes the first nOut coefficients of the DCT-II of x into
// out (len(out) ≥ nOut), each rounded to out's element type, and returns
// the filled prefix. The counter charges a runtime cosine per term — the
// ported C implementation evaluates them on every invocation, which is why
// cepstral extraction dominates CPU on FPU-less platforms (Figure 8) — but
// the host reads the identical values from a cached per-size cosine plan
// (plan.go), which is where most of a simulation's math.Cos time used to
// go.
func DCTIIInto[T float32 | float64](c *cost.Counter, x []float64, nOut int, out []T) []T {
	n := len(x)
	tbl := dctCosTable(n, nOut)
	out = out[:nOut]
	for k := 0; k < nOut; k++ {
		sum := 0.0
		row := tbl[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			sum += x[i] * row[i]
		}
		out[k] = T(sum)
	}
	c.Add(cost.Trig, n*nOut)
	c.Add(cost.FloatMul, 3*n*nOut)
	c.Add(cost.FloatAdd, 2*n*nOut)
	c.Add(cost.Load, n*nOut)
	c.Add(cost.Store, nOut)
	return out
}
