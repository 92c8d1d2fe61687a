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
// Per-stage twiddle bases come from a cached per-size plan (plan.go); the
// counter still records the trig evaluations the embedded device would
// perform, so profiles are unaffected.
func FFT(c *cost.Counter, x []Complex, inverse bool) {
	n := len(x)
	if n&(n-1) != 0 || n == 0 {
		panic("dsp: FFT length must be a power of two")
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
			c.Add(cost.IntOp, 2)
		}
		j |= bit
		c.Add(cost.IntOp, 2)
		if i < j {
			x[i], x[j] = x[j], x[i]
			c.Add(cost.Load, 2)
			c.Add(cost.Store, 2)
		}
	}
	twiddles := fftStageTwiddles(n)
	for stage, length := 0, 2; length <= n; stage, length = stage+1, length<<1 {
		wl := twiddles[stage]
		if inverse {
			wl.Im = -wl.Im
		}
		c.Add(cost.Trig, 2)
		half := length / 2
		for start := 0; start < n; start += length {
			w := Complex{1, 0}
			for k := 0; k < half; k++ {
				u := x[start+k]
				v := mulC(c, x[start+k+half], w)
				x[start+k] = Complex{u.Re + v.Re, u.Im + v.Im}
				x[start+k+half] = Complex{u.Re - v.Re, u.Im - v.Im}
				w = mulC(c, w, wl)
				c.Add(cost.FloatAdd, 4)
				c.Add(cost.Load, 4)
				c.Add(cost.Store, 4)
				c.Add(cost.Branch, 1)
			}
		}
	}
}

func mulC(c *cost.Counter, a, b Complex) Complex {
	c.Add(cost.FloatMul, 4)
	c.Add(cost.FloatAdd, 2)
	return Complex{a.Re*b.Re - a.Im*b.Im, a.Re*b.Im + a.Im*b.Re}
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
