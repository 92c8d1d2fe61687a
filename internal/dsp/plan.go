package dsp

import (
	"math"
	"math/bits"
	"sync"

	"wishbone/internal/cost"
)

// Precomputed transform plans. The FFT's permutation and twiddles, Hamming
// windows and DCT-II cosine tables depend only on the transform size, yet
// the kernels originally rebuilt them on every invocation. Plans are built
// once per size, lazily on first use (never at init or app construction),
// and shared; they hold exactly the values the per-call evaluation
// produces, so kernel outputs are bit-identical with and without a plan.
//
// Cost counters are NOT affected: they model the embedded device executing
// the ported C code, which does evaluate cosines and run the twiddle
// recurrence at runtime (that is precisely why the FFT and cepstral
// extraction dominate FPU-less platforms, Figure 8). Plans are a host-side
// simulation speedup only.
//
// All plan caches are safe for concurrent use — the partition service
// profiles and simulates many tenants' graphs in parallel against shared
// kernels.

// fftPlan is what an n-point radix-2 FFT owes to n alone.
type fftPlan struct {
	// rev is the bit-reversal permutation: rev[i] is i with its log₂n bits
	// reversed. FFT exchanges x[i] and x[rev[i]] for i < rev[i], the pairs
	// the device's in-place loop swaps; PowerSpectrum writes sample i
	// straight to rev[i].
	rev []int32
	// fwd and inv hold every butterfly's twiddle, stage by stage: the stage
	// of half-length h reads [h−1, 2h−1). A stage is filled by the
	// recurrence the device's loop runs — w₀ = {1,0}, w_{k+1} = w_k·w_len,
	// w_len from the same math.Cos/math.Sin call — so entry k is the very
	// float64 pair that loop holds at butterfly k, and the butterfly
	// multiplies identical operands. (cos/sin of k·θ would round otherwise.)
	fwd, inv []Complex
	// counts is one call's whole charge: the permutation's tally, two trig
	// evaluations per stage, and per butterfly two complex multiplies (one
	// is the device's recurrence), four adds, loads and stores, a branch.
	counts cost.Counter
}

var fftPlans sync.Map // int → *fftPlan

// fftPlanFor returns the plan of an n-point FFT (n a power of two).
func fftPlanFor(n int) *fftPlan {
	if p, ok := fftPlans.Load(n); ok {
		return p.(*fftPlan)
	}
	p := &fftPlan{rev: make([]int32, n), fwd: make([]Complex, 0, n-1), inv: make([]Complex, 0, n-1)}
	intOps, swaps := 0, 0
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
			intOps += 2
		}
		j |= bit
		intOps += 2
		p.rev[i] = int32(j)
		if i < j {
			swaps++
		}
	}
	for length := 2; length <= n; length <<= 1 {
		// Conjugating the base is evaluating at the positive angle:
		// math.Cos is even and math.Sin odd, exactly.
		ang := -2 * math.Pi / float64(length)
		wl := Complex{math.Cos(ang), math.Sin(ang)}
		wlInv := Complex{wl.Re, -wl.Im}
		w, wInv := Complex{1, 0}, Complex{1, 0}
		for k := 0; k < length/2; k++ {
			p.fwd, p.inv = append(p.fwd, w), append(p.inv, wInv)
			w = Complex{w.Re*wl.Re - w.Im*wl.Im, w.Re*wl.Im + w.Im*wl.Re}
			wInv = Complex{wInv.Re*wlInv.Re - wInv.Im*wlInv.Im, wInv.Re*wlInv.Im + wInv.Im*wlInv.Re}
		}
	}
	stages := bits.TrailingZeros(uint(n))
	butterflies := n / 2 * stages
	p.counts.Add(cost.IntOp, intOps)
	p.counts.Add(cost.Trig, 2*stages)
	p.counts.Add(cost.FloatMul, 8*butterflies)
	p.counts.Add(cost.FloatAdd, 8*butterflies)
	p.counts.Add(cost.Load, 2*swaps+4*butterflies)
	p.counts.Add(cost.Store, 2*swaps+4*butterflies)
	p.counts.Add(cost.Branch, butterflies)
	q, _ := fftPlans.LoadOrStore(n, p)
	return q.(*fftPlan)
}

// hammingPlans caches per-size Hamming windows.
var hammingPlans sync.Map // int → []float64

// dctKey identifies one DCT-II cosine table.
type dctKey struct{ n, nOut int }

// dctPlans caches DCT-II cosine tables: tbl[k*n+i] = cos(π·k·(i+0.5)/n).
var dctPlans sync.Map // dctKey → []float64

// dctCosTable returns the cached cosine table for an n-point DCT-II
// producing nOut coefficients.
func dctCosTable(n, nOut int) []float64 {
	key := dctKey{n: n, nOut: nOut}
	if p, ok := dctPlans.Load(key); ok {
		return p.([]float64)
	}
	tbl := make([]float64, nOut*n)
	for k := 0; k < nOut; k++ {
		for i := 0; i < n; i++ {
			tbl[k*n+i] = math.Cos(math.Pi * float64(k) * (float64(i) + 0.5) / float64(n))
		}
	}
	p, _ := dctPlans.LoadOrStore(key, tbl)
	return p.([]float64)
}
