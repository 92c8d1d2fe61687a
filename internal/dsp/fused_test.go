package dsp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"wishbone/internal/cost"
)

type frameShape struct {
	name string
	fill func(x []int16)
}

// frameShapes are the int16 frames the fused kernels are checked on:
// full-range samples (which saturate pre-emphasis and the gain-above-one
// filters and windows), the int16 extremes alone, Gaussian audio, sparse
// {−1,0,1} frames (whose transforms are full of exact zeros, so a zero's
// sign or a twiddle's last bit shows) and silence.
func frameShapes(rng *rand.Rand) []frameShape {
	return []frameShape{
		{"full-range", func(x []int16) {
			for i := range x {
				x[i] = int16(rng.Intn(1 << 16))
			}
		}},
		{"extremes", func(x []int16) {
			for i := range x {
				x[i] = []int16{math.MaxInt16, math.MinInt16}[rng.Intn(2)]
			}
		}},
		{"gaussian", func(x []int16) {
			for i := range x {
				x[i] = int16(max(-32768, min(32767, rng.NormFloat64()*3000)))
			}
		}},
		{"sparse", func(x []int16) {
			for i := range x {
				x[i] = int16(rng.Intn(3) - 1)
			}
		}},
		{"zero", func(x []int16) { clear(x) }},
	}
}

// firCoeffs are the delay lines the FIR kernel is checked with: the
// speech prefilter's, a saturating 4-tap one with a signed zero (the
// unrolled path), and 1-, 5- and 16-tap ones (the general loop).
var firCoeffs = [][]float64{
	{0.35, 0.4, 0.2, 0.05},
	{3.5, -2.25, math.Copysign(0, -1), 1.125},
	{-1.5},
	{0.5, -0.25, 0.125, 2, -3},
	{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, -0.8, -0.7, -0.6, -0.5, -0.4, -0.3, -0.2, -0.1},
}

// specialF32 are float32 spectrum values outside what a power spectrum
// emits, for the float32-input kernels.
var specialF32 = []float32{0, float32(math.Copysign(0, -1)), 1e-13, 1e-12, 1, -5, 1e-45, math.MaxFloat32,
	float32(math.Inf(1)), float32(math.NaN())}

func sameFloat32Bits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// powerDirect is the power spectrum through fftDirect, the loop the
// modelled device runs, narrowed to float32.
func powerDirect(c *cost.Counter, x []int16) []float32 {
	n := NextPow2(len(x))
	buf := make([]Complex, n)
	for i, v := range x {
		buf[i].Re = float64(v)
	}
	c.Add(cost.Store, len(x))
	fftDirect(c, buf, false)
	out := make([]float32, n/2)
	for i := range out {
		out[i] = float32(buf[i].Re*buf[i].Re + buf[i].Im*buf[i].Im)
	}
	c.Add(cost.FloatMul, 2*(n/2))
	c.Add(cost.FloatAdd, n/2)
	c.Add(cost.Store, n/2)
	return out
}

// TestFusedKernelsBitIdentical holds every shipped frame kernel to the
// composition it replaced — Widen, the float64 kernel, Clamp16 or Narrow32
// (oracle_test.go) — with outputs compared as bit patterns and the two
// counters equal: for every frame shape, every length from 1 to 300, and
// three consecutive blocks through each stateful kernel's state. The power
// spectrum is also held to fftDirect's. It compares the spectrum, not FFT
// bins: PowerSpectrum's stage 2 may give a bin a zero of the other sign,
// which |X|² squares away. Replacing the stage-2 twiddle by {0,−1} — not
// the plan's {cos(−π/2), sin(−π/2)} — fails it.
func TestFusedKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	mels := make(map[int]*MelBank)
	for _, shape := range frameShapes(rng) {
		for n := 1; n <= 300; n++ {
			fail := func(kernel string, block int, got, want any) {
				t.Helper()
				t.Fatalf("%s, %s len %d, block %d:\nfused    %v\ncomposed %v", kernel, shape.name, n, block, got, want)
			}
			hamming := HammingWindow(n)
			gains := make([]float64, n)
			for i := range gains {
				gains[i] = rng.NormFloat64() * 2
			}
			prevF, prevC := 0.0, 0.0
			firF, firC := make([]*FIRState, len(firCoeffs)), make([]*FIRState, len(firCoeffs))
			for i, co := range firCoeffs {
				firF[i], firC[i] = NewFIRState(len(co)), NewFIRState(len(co))
			}
			for block := 0; block < 3; block++ {
				x := make([]int16, n)
				shape.fill(x)
				wide := Widen(x, make([]float64, n))
				got, want := make([]int16, n), make([]int16, n)
				cf, cc := &cost.Counter{}, &cost.Counter{}

				prevF = PreEmphasis(cf, x, 0.97, prevF, got)
				var y []float64
				y, prevC = PreEmphasisInto(cc, wide, 0.97, prevC, make([]float64, n))
				Clamp16(y, want)
				if !slices.Equal(got, want) || math.Float64bits(prevF) != math.Float64bits(prevC) {
					fail("PreEmphasis", block, got, want)
				}

				for _, w := range [][]float64{hamming, gains} {
					ApplyWindow(cf, x, w, got)
					Clamp16(ApplyWindowInto(cc, wide, w, make([]float64, n)), want)
					if !slices.Equal(got, want) {
						fail("ApplyWindow", block, got, want)
					}
				}

				for i, co := range firCoeffs {
					FIRBlock(cf, firF[i], co, x, got)
					Clamp16(FIRBlockInto(cc, firC[i], co, wide, make([]float64, n)), want)
					if !slices.Equal(got, want) {
						fail("FIRBlock", block, got, want)
					}
					ft, fp := firF[i].Snapshot()
					ct, cp := firC[i].Snapshot()
					for k := range ft {
						if math.Float64bits(ft[k]) != math.Float64bits(ct[k]) || fp != cp {
							fail("FIRBlock delay line", block, ft, ct)
						}
					}
				}

				np := NextPow2(n)
				nb := np / 2
				bins := make([]Complex, np+1)
				spec := PowerSpectrum(cf, x, bins, make([]float32, nb+1))
				wantSpec := make([]float32, nb)
				power := PowerSpectrumInto(cc, wide, make([]Complex, np+1), make([]float64, nb+1))
				Narrow32(power, wantSpec)
				if !sameFloat32Bits(spec, wantSpec) {
					fail("PowerSpectrum", block, spec, wantSpec)
				}
				// The float32 rounding would hide a last-bit slip in the
				// transform; the bins left in the workspace must give the
				// float64 spectrum's very bits.
				for i, p := range power {
					if re, im := bins[i].Re, bins[i].Im; math.Float64bits(re*re+im*im) != math.Float64bits(p) {
						fail("PowerSpectrum's float64 |X|²", block, bins[i], p)
					}
				}
				cs, cd := &cost.Counter{}, &cost.Counter{}
				if direct := powerDirect(cd, x); !sameFloat32Bits(PowerSpectrum(cs, x, make([]Complex, np), make([]float32, nb)), direct) || cs.Counts() != cd.Counts() {
					fail("PowerSpectrum against fftDirect", block, spec, direct)
				}

				if nb > 0 {
					mb := mels[nb]
					if mb == nil {
						mb = NewMelBank(32, nb, 8000, 100, 4000)
						mels[nb] = mb
					}
					for _, s := range [][]float32{spec, noisyF32(rng, nb)} {
						e, we := make([]float32, mb.NumFilters()), make([]float32, mb.NumFilters())
						mb.Energies(cf, s, e)
						Narrow32(mb.ApplyInto(cc, Widen(s, make([]float64, nb)), make([]float64, mb.NumFilters())), we)
						if !sameFloat32Bits(e, we) {
							fail("MelBank.Energies", block, e, we)
						}
						lg, wlg := make([]int16, nb), make([]int16, nb)
						Log10Fixed88(cf, s, lg)
						quantize88(Log10BlockInto(cc, Widen(s, make([]float64, nb)), make([]float64, nb)), wlg)
						if !slices.Equal(lg, wlg) {
							fail("Log10Fixed88", block, lg, wlg)
						}
					}
				}

				if m, wm := MagWithScale(cf, 0.5, x), MagWithScale(cc, 0.5, wide); math.Float64bits(m) != math.Float64bits(wm) {
					fail("MagWithScale", block, m, wm)
				}

				lg := make([]float64, n)
				for i, v := range x {
					lg[i] = float64(v) / 256
				}
				nOut := min(n, 13)
				cep, wcep := make([]float32, nOut), make([]float32, nOut)
				DCTIIInto(cf, lg, nOut, cep)
				Narrow32(DCTIIInto(cc, lg, nOut, make([]float64, nOut)), wcep)
				if !sameFloat32Bits(cep, wcep) {
					fail("DCTIIInto to float32", block, cep, wcep)
				}

				if cf.Counts() != cc.Counts() {
					fail("cost counts", block, cf, cc)
				}
			}
		}
	}
}

// noisyF32 is a float32 spectrum of n bins: Gaussian values of every sign
// across many magnitudes, with specialF32 values sprinkled in.
func noisyF32(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		if rng.Intn(4) == 0 {
			s[i] = specialF32[rng.Intn(len(specialF32))]
		} else {
			s[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-12)))
		}
	}
	return s
}
