// Package dsp provides the signal-processing kernels the paper's two
// applications are built from: FFT, FIR filtering, windowing, pre-emphasis,
// mel filter banks, log-spectra and the DCT (speech detection, §6.2), plus
// magnitude scaling (EEG wavelet decomposition, §6.1).
//
// Every kernel takes a *cost.Counter and records the primitive operations
// it performs; a nil counter disables instrumentation at negligible cost.
// The counts are what the profiler converts into per-platform CPU time.
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

// FFT computes the in-place radix-2 decimation-in-time FFT of x. The length
// of x must be a power of two; FFT panics otherwise. When inverse is true
// it computes the unscaled inverse transform (callers divide by len(x)).
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
	for _, s := range p.swaps {
		x[s[0]], x[s[1]] = x[s[1]], x[s[0]]
	}
	tw := p.fwd
	if inverse {
		tw = p.inv
	}
	for half := 1; half < n; half <<= 1 {
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
	c.AddCounter(&p.counts)
}

// PowerSpectrumInto computes the one-sided power spectrum of a real
// signal. The input is zero-padded to the next power of two; the output
// has fftLen/2 bins (bin 0 = DC). buf must have len ≥ NextPow2(len(x))
// (its contents are overwritten) and out len ≥ NextPow2(len(x))/2. It
// returns the filled prefix of out.
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
