package dsp

import (
	"math"
	"math/rand"
	"testing"

	"wishbone/internal/cost"
)

// fftDirect is the pre-plan FFT, the loop the modelled device runs: stage
// twiddle bases evaluated with math.Cos/math.Sin on every call, each
// stage's twiddles carried through the butterflies by the recurrence
// w ← w·w_len, and one counter charge per primitive operation. The
// plan-backed FFT must match it bit for bit, counts included.
func fftDirect(c *cost.Counter, x []Complex, inverse bool) {
	n := len(x)
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
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := Complex{math.Cos(ang), math.Sin(ang)}
		c.Add(cost.Trig, 2)
		half := length / 2
		for start := 0; start < n; start += length {
			w := Complex{1, 0}
			for k := 0; k < half; k++ {
				u := x[start+k]
				v := mulCounted(c, x[start+k+half], w)
				x[start+k] = Complex{u.Re + v.Re, u.Im + v.Im}
				x[start+k+half] = Complex{u.Re - v.Re, u.Im - v.Im}
				w = mulCounted(c, w, wl)
				c.Add(cost.FloatAdd, 4)
				c.Add(cost.Load, 4)
				c.Add(cost.Store, 4)
				c.Add(cost.Branch, 1)
			}
		}
	}
}

func mulCounted(c *cost.Counter, a, b Complex) Complex {
	c.Add(cost.FloatMul, 4)
	c.Add(cost.FloatAdd, 2)
	return Complex{a.Re*b.Re - a.Im*b.Im, a.Re*b.Im + a.Im*b.Re}
}

// dctIIDirect is the pre-plan DCT-II, evaluating every cosine at runtime.
func dctIIDirect(c *cost.Counter, x []float64, nOut int) []float64 {
	n := len(x)
	out := make([]float64, nOut)
	for k := 0; k < nOut; k++ {
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += x[i] * math.Cos(math.Pi*float64(k)*(float64(i)+0.5)/float64(n))
			c.Add(cost.Trig, 1)
			c.Add(cost.FloatMul, 3)
			c.Add(cost.FloatAdd, 2)
			c.Add(cost.Load, 1)
		}
		out[k] = sum
		c.Add(cost.Store, 1)
	}
	return out
}

func testSignal(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i)/3)*40 + math.Cos(float64(i)/17)*11
	}
	return x
}

// TestFFTPlanBitIdentical checks that the plan-backed FFT produces
// bit-identical outputs — compared as float64 bit patterns, so a −0 that
// became +0 fails — AND identical cost counts to the direct loop, in both
// directions, for every size up to 4096 and the three input shapes the
// applications feed it: complex, real-only, and a real frame zero-padded
// to the next power of two (speech: 200 of 256).
func TestFFTPlanBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	shapes := []struct {
		name string
		fill func(x []Complex)
	}{
		{"complex", func(x []Complex) {
			for i := range x {
				x[i] = Complex{rng.NormFloat64() * 1e3, rng.NormFloat64() * 1e3}
			}
		}},
		{"real", func(x []Complex) {
			for i := range x {
				x[i] = Complex{Re: rng.NormFloat64() * 1e3}
			}
		}},
		{"zero-padded", func(x []Complex) {
			for i := range x[:len(x)*200/256] {
				x[i] = Complex{Re: float64(int16(rng.Intn(1 << 16)))}
			}
		}},
	}
	for n := 1; n <= 4096; n <<= 1 {
		for _, inverse := range []bool{false, true} {
			for _, shape := range shapes {
				a := make([]Complex, n)
				shape.fill(a)
				b := append([]Complex(nil), a...)
				ca, cb := &cost.Counter{}, &cost.Counter{}
				FFT(ca, a, inverse)
				fftDirect(cb, b, inverse)
				for i := range a {
					if math.Float64bits(a[i].Re) != math.Float64bits(b[i].Re) ||
						math.Float64bits(a[i].Im) != math.Float64bits(b[i].Im) {
						t.Fatalf("n=%d inverse=%v %s: bin %d differs: planned %v, direct %v",
							n, inverse, shape.name, i, a[i], b[i])
					}
				}
				if ca.Counts() != cb.Counts() {
					t.Fatalf("n=%d inverse=%v %s: cost counts differ: planned %v, direct %v",
						n, inverse, shape.name, ca, cb)
				}
			}
		}
	}
}

// TestDCTPlanBitIdentical does the same for the DCT-II cosine plan.
func TestDCTPlanBitIdentical(t *testing.T) {
	for _, n := range []int{1, 13, 32, 200} {
		for _, nOut := range []int{0, 1, n/2 + 1} {
			x := testSignal(n)
			ca, cb := &cost.Counter{}, &cost.Counter{}
			got := DCTIIInto(ca, x, nOut, make([]float64, nOut))
			want := dctIIDirect(cb, x, nOut)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("n=%d nOut=%d: coefficient %d differs: planned %v, direct %v",
						n, nOut, k, got[k], want[k])
				}
			}
			if ca.Counts() != cb.Counts() {
				t.Fatalf("n=%d nOut=%d: cost counts differ", n, nOut)
			}
		}
	}
}

// TestHammingWindowPlan checks the cached window against direct
// evaluation and that repeated calls share one backing array.
func TestHammingWindowPlan(t *testing.T) {
	n := 200
	w := HammingWindow(n)
	for i := 0; i < n; i++ {
		want := 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(n-1))
		if w[i] != want {
			t.Fatalf("window[%d] = %v, want %v", i, w[i], want)
		}
	}
	if w2 := HammingWindow(n); &w2[0] != &w[0] {
		t.Fatalf("HammingWindow(%d) did not return the cached window", n)
	}
}

// The benchmarks quantify the plan win on the speech pipeline's shapes:
// a 256-point FFT and the 32→13 DCT of cepstral extraction.

func BenchmarkFFT256(b *testing.B) {
	sig := testSignal(256)
	buf := make([]Complex, 256)
	b.Run("planned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, v := range sig {
				buf[j] = Complex{Re: v}
			}
			FFT(nil, buf, false)
		}
	})
	b.Run("planned-counted", func(b *testing.B) {
		var c cost.Counter
		for i := 0; i < b.N; i++ {
			for j, v := range sig {
				buf[j] = Complex{Re: v}
			}
			FFT(&c, buf, false)
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, v := range sig {
				buf[j] = Complex{Re: v}
			}
			fftDirect(nil, buf, false)
		}
	})
	// The speech FFT stage's whole kernel on its real input, a 200-sample
	// int16 frame, and the widen → complex FFT → narrow composition it
	// replaced.
	frame := make([]int16, 200)
	for j := range frame {
		frame[j] = int16(sig[j] * 500)
	}
	b.Run("power-spectrum-int16", func(b *testing.B) {
		var c cost.Counter
		out := make([]float32, 128)
		for i := 0; i < b.N; i++ {
			PowerSpectrum(&c, frame, buf, out)
		}
	})
	b.Run("power-spectrum-composed", func(b *testing.B) {
		var c cost.Counter
		wide, power, out := make([]float64, 200), make([]float64, 128), make([]float32, 128)
		for i := 0; i < b.N; i++ {
			Narrow32(PowerSpectrumInto(&c, Widen(frame, wide), buf, power), out)
		}
	})
}

func BenchmarkDCTII32x13(b *testing.B) {
	x := testSignal(32)
	b.Run("planned", func(b *testing.B) {
		out := make([]float64, 13)
		for i := 0; i < b.N; i++ {
			DCTIIInto(nil, x, 13, out)
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dctIIDirect(nil, x, 13)
		}
	})
}
