// Package dsp provides the signal-processing kernels the paper's two
// applications are built from: FFT, FIR filtering, windowing, pre-emphasis,
// mel filter banks, log-spectra and the DCT (speech detection, §6.2), plus
// magnitude scaling (EEG wavelet decomposition, §6.1).
//
// Every kernel takes a *cost.Counter and records the primitive operations
// it performs; a nil counter disables instrumentation at negligible cost.
// The counts are what the profiler converts into per-platform CPU time.
//
// The frame kernels read and write the element types the operators carry
// (int16 samples, float32 spectra) and compute in float64: widening either
// type to float64 is exact, and a result is clamped to int16 or rounded to
// float32 in the loop that produces it, so no pass over a scratch frame
// converts values on the way in or out.
package dsp

import "wishbone/internal/cost"

// Complex is a complex sample as two float64s; the FFT uses its own type to
// keep operation counting explicit.
type Complex struct {
	Re, Im float64
}

// NextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// butterflies runs the radix-2 stages of half-length h0, 2·h0, … on x,
// whose earlier stages are done, reading each stage's twiddles from tw in
// the plan's layout.
func butterflies(x, tw []Complex, h0 int) {
	n := len(x)
	for half := h0; half < n; half <<= 1 {
		t := tw[half-1 : 2*half-1]
		for start := 0; start < n; start += 2 * half {
			// One length for all three: no bounds checks in the loop.
			a := x[start : start+half]
			b := x[start+half:][:len(a)]
			t := t[:len(a)]
			for k, u := range a {
				y, w := b[k], t[k]
				v := Complex{y.Re*w.Re - y.Im*w.Im, y.Re*w.Im + y.Im*w.Re}
				a[k] = Complex{u.Re + v.Re, u.Im + v.Im}
				b[k] = Complex{u.Re - v.Re, u.Im - v.Im}
			}
		}
	}
}

// PowerSpectrum computes the one-sided power spectrum of a real frame: x
// zero-padded to n = NextPow2(len(x)), transformed, and each of the first
// n/2 bins' |X|² (bin 0 = DC) rounded to float32 into out
// (len(out) ≥ n/2). buf is the transform's workspace (len ≥ n, contents
// overwritten). It returns the filled prefix of out.
//
// The frame is scattered straight into bit-reversed order: the zero fill,
// the copy and FFT's swaps in one pass. While the data is still real, the
// first two stages skip the products of an imaginary part that is +0.
// Stage 1's twiddle is {1,0}, so its butterflies are a sum and a
// difference whose imaginary parts stay +0, bit for bit. Stage 2 multiplies
// each odd leg's real value by the plan's own twiddle; that real×complex
// product can differ from the complex one only in the sign of a zero, such
// differences stay zeros through +, − and ×, and |X|² squares them away.
// So the spectrum has FFT's bits even where a bin's zero sign might not
// (TestFusedKernelsBitIdentical). Stages ≥ 3 are FFT's. The counter records
// what the device does: the copy, FFT's charges (permutation swaps
// included) and the squares.
func PowerSpectrum(c *cost.Counter, x []int16, buf []Complex, out []float32) []float32 {
	n := NextPow2(len(x))
	p := fftPlanFor(n)
	buf = buf[:n]
	rev := p.rev[:n]
	for i, v := range x {
		buf[rev[i]] = Complex{Re: float64(v)}
	}
	for _, j := range rev[len(x):] {
		buf[j] = Complex{}
	}
	h0 := 1
	if n >= 4 {
		// Stages 1 and 2 on each run of four: the butterfly above with
		// every imaginary input written as the +0 it is. w1 is the plan's
		// {cos(−π/2), sin(−π/2)}, whose real part is 6.1e-17, not 0: the
		// device's loop multiplies by it, and so does this one.
		w0, w1 := p.fwd[1], p.fwd[2]
		for s := 0; s+3 < len(buf); s += 4 {
			q := (*[4]Complex)(buf[s:])
			a0, a1 := q[0].Re+q[1].Re, q[0].Re-q[1].Re
			b0, b1 := q[2].Re+q[3].Re, q[2].Re-q[3].Re
			v0 := Complex{b0 * w0.Re, b0 * w0.Im}
			v1 := Complex{b1 * w1.Re, b1 * w1.Im}
			q[0] = Complex{a0 + v0.Re, 0 + v0.Im}
			q[1] = Complex{a1 + v1.Re, 0 + v1.Im}
			q[2] = Complex{a0 - v0.Re, 0 - v0.Im}
			q[3] = Complex{a1 - v1.Re, 0 - v1.Im}
		}
		h0 = 4
	}
	butterflies(buf, p.fwd, h0)
	out = out[:n/2]
	for i := range out {
		re, im := buf[i].Re, buf[i].Im
		out[i] = float32(re*re + im*im)
	}
	c.Add(cost.Store, len(x))
	c.AddCounter(&p.counts)
	c.Add(cost.FloatMul, 2*(n/2))
	c.Add(cost.FloatAdd, n/2)
	c.Add(cost.Store, n/2)
	return out
}
