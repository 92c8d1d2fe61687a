package dsp

import (
	"fmt"
	"math"

	"wishbone/internal/cost"
)

// PreEmphasisInto applies the first-order high-pass
// y[i] = x[i] − coef·x[i−1] used at the front of speech pipelines; prev is
// the last sample of the previous frame and the updated value is returned
// (the operator keeps it as private state). It writes into out
// (len(out) ≥ len(x)) and returns the filled prefix. Counter charges are
// bulk-charged: the counter is a pure count, so n adds of one equal one
// add of n.
func PreEmphasisInto(c *cost.Counter, x []float64, coef, prev float64, out []float64) ([]float64, float64) {
	out = out[:len(x)]
	for i, v := range x {
		out[i] = v - coef*prev
		prev = v
	}
	c.Add(cost.FloatMul, len(x))
	c.Add(cost.FloatAdd, len(x))
	c.Add(cost.Load, len(x))
	c.Add(cost.Store, len(x))
	return out, prev
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

// ApplyWindowInto multiplies x elementwise by the window w
// (len(w) ≥ len(x)) into out (len(out) ≥ len(x)); it returns the filled
// prefix.
func ApplyWindowInto(c *cost.Counter, x, w, out []float64) []float64 {
	out = out[:len(x)]
	for i, v := range x {
		out[i] = v * w[i]
	}
	c.Add(cost.FloatMul, len(x))
	c.Add(cost.Load, 2*len(x))
	c.Add(cost.Store, len(x))
	return out
}

// FIRState is the tapped delay line of one FIR filter instance.
type FIRState struct {
	taps []float64
	pos  int
}

// NewFIRState returns a delay line for n coefficients, primed with zeros
// (the paper's FIRFilter enqueues N−1 zeros at construction, Figure 1).
func NewFIRState(n int) *FIRState { return &FIRState{taps: make([]float64, n)} }

// Clone returns an independent copy of the state.
func (s *FIRState) Clone() *FIRState {
	return &FIRState{taps: append([]float64(nil), s.taps...), pos: s.pos}
}

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

// FIRBlockInto filters a block through the delay line s (len(coeffs) taps
// or more) into out (len(out) ≥ len(x)): out[i] = Σ coeffs[j]·x[i−j],
// summed from zero in coefficient order; it returns the filled prefix.
// Only the first len(coeffs)−1 outputs reach into the previous block and
// walk the delay line. The rest read x directly — the same products added
// in the same order, so the same bits — and the block's tail is then left
// in the line where pushing sample by sample would have put it. The
// device's per-sample charges are bulk-charged once for the block.
func FIRBlockInto(c *cost.Counter, s *FIRState, coeffs, x, out []float64) []float64 {
	out = out[:len(x)]
	nt := len(s.taps)
	head := min(len(x), len(coeffs)-1)
	for i, v := range x[:head] {
		s.taps[s.pos] = v
		s.pos = (s.pos + 1) % nt
		sum := 0.0
		for j, co := range coeffs {
			idx := s.pos - 1 - j
			if idx < 0 {
				idx += nt
			}
			sum += co * s.taps[idx]
		}
		out[i] = sum
	}
	if len(coeffs) == 4 { // both applications' filters
		c0, c1, c2, c3 := coeffs[0], coeffs[1], coeffs[2], coeffs[3]
		for i := 3; i < len(x); i++ { // from zero, as below: 0 + −0 is +0
			out[i] = 0.0 + c0*x[i] + c1*x[i-1] + c2*x[i-2] + c3*x[i-3]
		}
	} else {
		for i := head; i < len(x); i++ {
			sum := 0.0
			for j, co := range coeffs {
				sum += co * x[i-j]
			}
			out[i] = sum
		}
	}
	tail := x[head:]
	if skip := len(tail) - nt; skip > 0 {
		s.pos = (s.pos + skip) % nt
		tail = tail[skip:]
	}
	for _, v := range tail {
		s.taps[s.pos] = v
		s.pos = (s.pos + 1) % nt
	}
	nc := len(x) * len(coeffs)
	c.Add(cost.FloatMul, nc)
	c.Add(cost.FloatAdd, nc)
	c.Add(cost.Load, 2*nc)
	c.Add(cost.IntOp, 2*nc)
	c.Add(cost.Store, len(x))
	return out
}

// MagWithScale computes scale·Σ|x[i]| — the windowed energy feature the
// EEG application extracts from each high-pass band (Figure 1).
func MagWithScale(c *cost.Counter, scale float64, x []float64) float64 {
	sum := 0.0
	for _, v := range x {
		sum += math.Abs(v)
	}
	c.Add(cost.FloatAdd, len(x))
	c.Add(cost.Branch, len(x))
	c.Add(cost.Load, len(x))
	c.Add(cost.FloatMul, 1)
	return scale * sum
}

// Log10BlockInto takes log10 of every element, flooring tiny values to
// avoid −Inf (the log-spectrum step that makes convolutional components
// additive, §6.2.1). It writes into out (len(out) ≥ len(x)) and returns
// the filled prefix.
func Log10BlockInto(c *cost.Counter, x, out []float64) []float64 {
	out = out[:len(x)]
	for i, v := range x {
		if v < 1e-12 {
			v = 1e-12
		}
		out[i] = math.Log10(v)
	}
	c.Add(cost.Log, len(x))
	c.Add(cost.Branch, len(x))
	c.Add(cost.Load, len(x))
	c.Add(cost.Store, len(x))
	return out
}

// DCTIIInto computes the first nOut coefficients of the DCT-II of x into
// out (len(out) ≥ nOut) and returns the filled prefix. The counter charges
// a runtime cosine per term — the ported C implementation evaluates them
// on every invocation, which is why cepstral extraction dominates CPU on
// FPU-less platforms (Figure 8) — but the host reads the identical values
// from a cached per-size cosine plan (plan.go), which is where most of a
// simulation's math.Cos time used to go.
func DCTIIInto(c *cost.Counter, x []float64, nOut int, out []float64) []float64 {
	n := len(x)
	tbl := dctCosTable(n, nOut)
	out = out[:nOut]
	for k := 0; k < nOut; k++ {
		sum := 0.0
		row := tbl[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			sum += x[i] * row[i]
		}
		out[k] = sum
	}
	c.Add(cost.Trig, n*nOut)
	c.Add(cost.FloatMul, 3*n*nOut)
	c.Add(cost.FloatAdd, 2*n*nOut)
	c.Add(cost.Load, n*nOut)
	c.Add(cost.Store, nOut)
	return out
}

// DecimateInto keeps every factor-th sample, after the caller has
// low-passed the signal (the TMote audio path samples at 32 ks/s and
// decimates to 8 ks/s, §6.2.3), appending into out (which should have
// capacity ≥ len(x)/factor+1 to avoid growth); it returns the filled
// slice. It copies even when factor ≤ 1, so the result never aliases x.
func DecimateInto(c *cost.Counter, x []float64, factor int, out []float64) []float64 {
	if factor <= 1 {
		return append(out, x...)
	}
	n := 0
	for i := 0; i < len(x); i += factor {
		out = append(out, x[i])
		n++
	}
	c.Add(cost.Load, n)
	c.Add(cost.Store, n)
	c.Add(cost.IntOp, n)
	return out
}
