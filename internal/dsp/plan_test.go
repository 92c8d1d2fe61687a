package dsp

import (
	"math"
	"testing"

	"wishbone/internal/cost"
)

// fftDirect is the pre-plan FFT: identical butterflies, but stage twiddle
// bases evaluated with math.Cos/math.Sin on every call. The plan-backed
// FFT must match it bit for bit.
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
// bit-identical outputs AND identical cost counts to direct twiddle
// evaluation, in both directions, across sizes.
func TestFFTPlanBitIdentical(t *testing.T) {
	for _, n := range []int{2, 8, 64, 256, 1024} {
		for _, inverse := range []bool{false, true} {
			sig := testSignal(n)
			a := make([]Complex, n)
			b := make([]Complex, n)
			for i, v := range sig {
				a[i] = Complex{Re: v, Im: -v / 2}
				b[i] = a[i]
			}
			ca, cb := &cost.Counter{}, &cost.Counter{}
			FFT(ca, a, inverse)
			fftDirect(cb, b, inverse)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("n=%d inverse=%v: bin %d differs: planned %v, direct %v",
						n, inverse, i, a[i], b[i])
				}
			}
			if ca.Counts() != cb.Counts() {
				t.Fatalf("n=%d inverse=%v: cost counts differ: planned %v, direct %v",
					n, inverse, ca, cb)
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
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, v := range sig {
				buf[j] = Complex{Re: v}
			}
			fftDirect(nil, buf, false)
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
