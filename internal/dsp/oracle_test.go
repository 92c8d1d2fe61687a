package dsp

import (
	"math"

	"wishbone/internal/cost"
)

// The float64 kernels and element-type adapters the shipped frame kernels
// were fused from. Each operator used to widen its frame into scratch, run
// one of these scratch to scratch and narrow the result into its output;
// TestFusedKernelsBitIdentical holds every fused kernel to that
// composition, bit for bit and count for count.

// Widen converts a frame of samples to float64 into out (len(out) ≥
// len(x)) and returns the filled prefix.
func Widen[T int16 | float32](x []T, out []float64) []float64 {
	out = out[:len(x)]
	for i, v := range x {
		out[i] = float64(v)
	}
	return out
}

// Clamp16 converts x to int16 into out (len(out) ≥ len(x)), saturating
// at the int16 range and truncating toward zero.
func Clamp16(x []float64, out []int16) {
	out = out[:len(x)]
	for i, v := range x {
		if v > 32767 {
			v = 32767
		} else if v < -32768 {
			v = -32768
		}
		out[i] = int16(v)
	}
}

// Narrow32 converts x to float32 into out (len(out) ≥ len(x)).
func Narrow32(x []float64, out []float32) {
	out = out[:len(x)]
	for i, v := range x {
		out[i] = float32(v)
	}
}

// PreEmphasisInto is PreEmphasis on float64 frames, unclamped; it returns
// the filled prefix of out and the updated prev.
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

// ApplyWindowInto is ApplyWindow on float64 frames, unclamped.
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

// FIRBlockInto is FIRBlock on float64 frames, unclamped.
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
	for i := head; i < len(x); i++ {
		sum := 0.0
		for j, co := range coeffs {
			sum += co * x[i-j]
		}
		out[i] = sum
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

// Log10BlockInto is Log10Fixed88's logarithm on float64 frames, without the
// quantization (quantize88).
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

// quantize88 is the speech logs stage's 8.8 fixed-point quantizer as it was
// written before Log10Fixed88 took it over.
func quantize88(lg []float64, out []int16) {
	for i, e := range lg {
		out[i] = int16(math.Max(-128, math.Min(127, e)) * 256)
	}
}

// PowerSpectrumInto is the power spectrum through the complex FFT on a
// float64 frame: zero-pad, copy, FFT, |X|² in float64.
func PowerSpectrumInto(c *cost.Counter, x []float64, buf []Complex, out []float64) []float64 {
	n := NextPow2(len(x))
	buf = buf[:n]
	for i := range buf {
		buf[i] = Complex{}
	}
	for i, v := range x {
		buf[i].Re = v
	}
	c.Add(cost.Store, len(x))
	FFT(c, buf, false)
	out = out[:n/2]
	for i := range out {
		re, im := buf[i].Re, buf[i].Im
		out[i] = re*re + im*im
	}
	c.Add(cost.FloatMul, 2*(n/2))
	c.Add(cost.FloatAdd, n/2)
	c.Add(cost.Store, n/2)
	return out
}

// Apply computes the filter-bank energies of a float64 power spectrum.
func (mb *MelBank) Apply(c *cost.Counter, spectrum []float64) []float64 {
	return mb.ApplyInto(c, spectrum, make([]float64, len(mb.filters)))
}

// ApplyInto is Energies on float64 frames, unrounded; it returns the
// filled prefix of out.
func (mb *MelBank) ApplyInto(c *cost.Counter, spectrum, out []float64) []float64 {
	out = out[:len(mb.filters)]
	taps := 0
	for f, ft := range mb.filters {
		sum := 0.0
		for _, t := range ft {
			sum += spectrum[t.bin] * t.weight
		}
		out[f] = sum
		taps += len(ft)
	}
	c.Add(cost.FloatMul, taps)
	c.Add(cost.FloatAdd, taps)
	c.Add(cost.Load, 2*taps)
	c.Add(cost.Store, len(mb.filters))
	return out
}

// FFT computes the in-place radix-2 decimation-in-time FFT of x. The length
// of x must be a power of two; FFT panics otherwise. When inverse is true
// it computes the unscaled inverse transform (callers divide by len(x)).
// No shipped code calls it: the speech frames are real, and PowerSpectrum
// runs the same stages on them with the first two specialized, held to
// this transform bit for bit.
//
// The permutation, every butterfly's twiddle and the call's operation
// counts come from a cached per-size plan (plan.go). Its table holds the
// twiddle recurrence's own iterates, so the output is bit-identical to
// running the recurrence; the counter still records it and the trig
// evaluations — the embedded device's work — so profiles are unaffected.
func FFT(c *cost.Counter, x []Complex, inverse bool) {
	n := len(x)
	if n&(n-1) != 0 || n == 0 {
		panic("dsp: FFT length must be a power of two")
	}
	p := fftPlanFor(n)
	for i, j := range p.rev {
		if i < int(j) {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := p.fwd
	if inverse {
		tw = p.inv
	}
	butterflies(x, tw, 1)
	c.AddCounter(&p.counts)
}

// Clone returns an independent copy of the state.
func (s *FIRState) Clone() *FIRState {
	return &FIRState{taps: append([]float64(nil), s.taps...), pos: s.pos}
}
