package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"wishbone/internal/cost"
)

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		x := make([]Complex, n)
		for i := range x {
			x[i] = Complex{rng.NormFloat64(), rng.NormFloat64()}
		}
		want := naiveDFT(x, false)
		got := append([]Complex(nil), x...)
		FFT(nil, got, false)
		for i := range got {
			if math.Abs(got[i].Re-want[i].Re) > 1e-6 || math.Abs(got[i].Im-want[i].Im) > 1e-6 {
				t.Fatalf("n=%d bin %d: got %v want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(8))
		x := make([]Complex, n)
		for i := range x {
			x[i] = Complex{rng.NormFloat64(), rng.NormFloat64()}
		}
		y := append([]Complex(nil), x...)
		FFT(nil, y, false)
		FFT(nil, y, true)
		for i := range y {
			if math.Abs(y[i].Re/float64(n)-x[i].Re) > 1e-8 ||
				math.Abs(y[i].Im/float64(n)-x[i].Im) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length 3")
		}
	}()
	FFT(nil, make([]Complex, 3), false)
}

func TestFFTParseval(t *testing.T) {
	// Σ|x|² = (1/N)·Σ|X|² for the unnormalized forward transform.
	rng := rand.New(rand.NewSource(3))
	n := 128
	x := make([]Complex, n)
	var timeE float64
	for i := range x {
		x[i] = Complex{rng.NormFloat64(), 0}
		timeE += x[i].Re * x[i].Re
	}
	FFT(nil, x, false)
	var freqE float64
	for _, v := range x {
		freqE += v.Re*v.Re + v.Im*v.Im
	}
	if math.Abs(timeE-freqE/float64(n)) > 1e-6*timeE {
		t.Fatalf("Parseval violated: time %v freq/N %v", timeE, freqE/float64(n))
	}
}

func TestPowerSpectrumOfSine(t *testing.T) {
	// A pure sine at bin k concentrates power there.
	n := 256
	k := 19
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(k) * float64(i) / float64(n))
	}
	ps := PowerSpectrumInto(nil, x, make([]Complex, n), make([]float64, n/2))
	best := 0
	for i := range ps {
		if ps[i] > ps[best] {
			best = i
		}
	}
	if best != k {
		t.Fatalf("peak at bin %d, want %d", best, k)
	}
}

func TestFIRImpulseResponse(t *testing.T) {
	coeffs := []float64{0.5, 0.25, -0.125, 1.5}
	s := NewFIRState(len(coeffs))
	impulse := []float64{1, 0, 0, 0, 0, 0}
	out := FIRBlockInto(nil, s, coeffs, impulse, make([]float64, len(impulse)))
	for i, want := range coeffs {
		if math.Abs(out[i]-want) > 1e-12 {
			t.Fatalf("tap %d: got %v want %v", i, out[i], want)
		}
	}
	for i := len(coeffs); i < len(impulse); i++ {
		if out[i] != 0 {
			t.Fatalf("tail %d: got %v want 0", i, out[i])
		}
	}
}

func TestFIRStateCarriesAcrossBlocks(t *testing.T) {
	coeffs := []float64{1, 1}
	s := NewFIRState(2)
	out1 := FIRBlockInto(nil, s, coeffs, []float64{1}, make([]float64, 1))
	out2 := FIRBlockInto(nil, s, coeffs, []float64{0}, make([]float64, 1))
	if out1[0] != 1 || out2[0] != 1 {
		t.Fatalf("got %v then %v; the delay line must carry the 1 across blocks", out1, out2)
	}
}

// Step pushes sample x into the delay line and returns Σ coeffs[i]·x[n−i]:
// the per-sample filter FIRBlockInto must reproduce bit for bit.
func (s *FIRState) Step(c *cost.Counter, coeffs []float64, x float64) float64 {
	s.taps[s.pos] = x
	s.pos = (s.pos + 1) % len(s.taps)
	sum := 0.0
	for i, co := range coeffs {
		idx := s.pos - 1 - i
		if idx < 0 {
			idx += len(s.taps)
		}
		sum += co * s.taps[idx]
	}
	c.Add(cost.FloatMul, len(coeffs))
	c.Add(cost.FloatAdd, len(coeffs))
	c.Add(cost.Load, 2*len(coeffs))
	c.Add(cost.IntOp, 2*len(coeffs))
	c.Add(cost.Store, 1)
	return sum
}

// TestFIRBlockMatchesStep drives one delay line block by block and a twin
// sample by sample: outputs (as bit patterns), the delay line's taps and
// cursor after every block, and the counter totals must agree, for blocks
// shorter than, equal to and longer than the filter.
func TestFIRBlockMatchesStep(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, nc := range []int{1, 2, 4, 5, 16, 33} {
		coeffs := make([]float64, nc)
		for i := range coeffs {
			coeffs[i] = rng.NormFloat64()
		}
		coeffs[rng.Intn(nc)] = 0 // signed zeros must survive too
		block, step := NewFIRState(nc), NewFIRState(nc)
		cb, cs := &cost.Counter{}, &cost.Counter{}
		for round := 0; round < 200; round++ {
			x := make([]float64, rng.Intn(71))
			for i := range x {
				x[i] = float64(int16(rng.Intn(1<<16))) * float64(rng.Intn(3)-1)
				if rng.Intn(8) == 0 {
					x[i] = math.Copysign(0, -1)
				}
			}
			got := FIRBlockInto(cb, block, coeffs, x, make([]float64, len(x)))
			for i, v := range x {
				if want := step.Step(cs, coeffs, v); math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("%d taps, block %d (len %d): out[%d] = %v, per-sample %v", nc, round, len(x), i, got[i], want)
				}
			}
			bt, bp := block.Snapshot()
			st, sp := step.Snapshot()
			if bp != sp {
				t.Fatalf("%d taps, block %d (len %d): cursor %d, per-sample %d", nc, round, len(x), bp, sp)
			}
			for i := range bt {
				if math.Float64bits(bt[i]) != math.Float64bits(st[i]) {
					t.Fatalf("%d taps, block %d (len %d): tap %d = %v, per-sample %v", nc, round, len(x), i, bt[i], st[i])
				}
			}
		}
		if cb.Counts() != cs.Counts() {
			t.Fatalf("%d taps: cost counts differ: block %v, per-sample %v", nc, cb, cs)
		}
	}
}

// TestRestoreFIRStateRejects pins that a snapshot's cursor and tap count
// are validated before they can index the delay line.
func TestRestoreFIRStateRejects(t *testing.T) {
	for _, tc := range []struct {
		taps []float64
		pos  int
	}{{nil, 0}, {[]float64{1, 2}, -1}, {[]float64{1, 2}, 2}} {
		if _, err := RestoreFIRState(tc.taps, tc.pos); err == nil {
			t.Errorf("RestoreFIRState(%v, %d) accepted", tc.taps, tc.pos)
		}
	}
	s, err := RestoreFIRState([]float64{1, 2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if taps, pos := s.Snapshot(); pos != 2 || len(taps) != 3 {
		t.Fatalf("restored %v at %d", taps, pos)
	}
}

func TestFIRCloneIndependent(t *testing.T) {
	s := NewFIRState(3)
	s.Step(nil, []float64{1, 0, 0}, 7)
	c := s.Clone()
	c.Step(nil, []float64{1, 0, 0}, 9)
	if got := s.Step(nil, []float64{0, 1, 0}, 0); got != 7 {
		t.Fatalf("original state disturbed by clone: got %v want 7", got)
	}
}

func TestPreEmphasisCarriesPrev(t *testing.T) {
	out1, prev := PreEmphasisInto(nil, []float64{1, 1}, 0.97, 0, make([]float64, 2))
	if out1[0] != 1 || math.Abs(out1[1]-(1-0.97)) > 1e-12 {
		t.Fatalf("out1=%v", out1)
	}
	out2, _ := PreEmphasisInto(nil, []float64{0}, 0.97, prev, make([]float64, 1))
	if math.Abs(out2[0]-(-0.97)) > 1e-12 {
		t.Fatalf("out2=%v, prev not carried", out2)
	}
}

func TestDCTIIConstantInput(t *testing.T) {
	// DCT-II of a constant is nonzero only at k=0.
	x := []float64{2, 2, 2, 2, 2, 2, 2, 2}
	out := DCTIIInto(nil, x, 4, make([]float64, 4))
	if math.Abs(out[0]-16) > 1e-9 {
		t.Fatalf("k=0: got %v want 16", out[0])
	}
	for k := 1; k < len(out); k++ {
		if math.Abs(out[k]) > 1e-9 {
			t.Fatalf("k=%d: got %v want 0", k, out[k])
		}
	}
}

func TestMelBankCoversSpectrum(t *testing.T) {
	mb := NewMelBank(32, 128, 8000, 100, 4000)
	if mb.NumFilters() != 32 {
		t.Fatalf("filters=%d", mb.NumFilters())
	}
	// A flat spectrum must produce strictly positive energy in every
	// filter (no gaps in coverage).
	flat := make([]float64, 128)
	for i := range flat {
		flat[i] = 1
	}
	out := mb.Apply(nil, flat)
	for f, e := range out {
		if e <= 0 {
			t.Fatalf("filter %d has no coverage (energy %v)", f, e)
		}
	}
}

func TestMelBankLocalized(t *testing.T) {
	mb := NewMelBank(16, 128, 8000, 100, 4000)
	// Energy in a single low bin should excite low filters more than high.
	spec := make([]float64, 128)
	spec[4] = 100
	out := mb.Apply(nil, spec)
	lo := out[0] + out[1] + out[2]
	hi := out[13] + out[14] + out[15]
	if lo <= hi {
		t.Fatalf("low-bin energy should land in low filters: lo=%v hi=%v", lo, hi)
	}
}

func TestLog10BlockFloorsZeros(t *testing.T) {
	out := Log10BlockInto(nil, []float64{0, 1, 100}, make([]float64, 3))
	if math.IsInf(out[0], -1) || math.IsNaN(out[0]) {
		t.Fatalf("log of 0 not floored: %v", out[0])
	}
	if math.Abs(out[1]) > 1e-12 || math.Abs(out[2]-2) > 1e-12 {
		t.Fatalf("out=%v", out)
	}
}

func TestMagWithScale(t *testing.T) {
	got := MagWithScale(nil, 2, []float64{1, -3, 0.5})
	if math.Abs(got-9) > 1e-12 {
		t.Fatalf("got %v want 9", got)
	}
}

func TestDecimate(t *testing.T) {
	out := DecimateInto(nil, []float64{0, 1, 2, 3, 4, 5, 6, 7}, 4, nil)
	if len(out) != 2 || out[0] != 0 || out[1] != 4 {
		t.Fatalf("out=%v", out)
	}
}

func TestKernelsCountOperations(t *testing.T) {
	// Profiling correctness depends on kernels actually reporting work.
	var c cost.Counter
	x := make([]float64, 64)
	for i := range x {
		x[i] = float64(i)
	}
	PowerSpectrumInto(&c, x, make([]Complex, 64), make([]float64, 32))
	if c.Count(cost.FloatMul) == 0 || c.Count(cost.FloatAdd) == 0 {
		t.Fatal("FFT reported no float work")
	}
	c.Reset()
	DCTIIInto(&c, x, 13, make([]float64, 13))
	if c.Count(cost.Trig) != 13*64 {
		t.Fatalf("DCT trig count %d, want %d", c.Count(cost.Trig), 13*64)
	}
	c.Reset()
	Log10BlockInto(&c, x, make([]float64, 64))
	if c.Count(cost.Log) != 64 {
		t.Fatalf("log count %d, want 64", c.Count(cost.Log))
	}
}
