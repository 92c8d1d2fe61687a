package dsp

import (
	"math"

	"wishbone/internal/cost"
)

// MelBank is a bank of overlapping triangular filters on the mel scale,
// summarizing a power spectrum "using a bank of overlapping filters that
// approximates the resolution of human aural perception" (§6.2.1).
type MelBank struct {
	// filters[f] lists (bin, weight) pairs of filter f.
	filters [][]melTap
}

type melTap struct {
	bin    int
	weight float64
}

func hzToMel(hz float64) float64  { return 2595 * math.Log10(1+hz/700) }
func melToHz(mel float64) float64 { return 700 * (math.Pow(10, mel/2595) - 1) }

// NewMelBank builds nFilters triangular filters covering [lowHz, highHz]
// over a power spectrum of nBins bins computed at sampleRate.
func NewMelBank(nFilters, nBins int, sampleRate, lowHz, highHz float64) *MelBank {
	if highHz <= 0 || highHz > sampleRate/2 {
		highHz = sampleRate / 2
	}
	lowMel, highMel := hzToMel(lowHz), hzToMel(highHz)
	// nFilters+2 equally spaced mel points → filter centre frequencies.
	centers := make([]float64, nFilters+2)
	for i := range centers {
		mel := lowMel + (highMel-lowMel)*float64(i)/float64(nFilters+1)
		centers[i] = melToHz(mel)
	}
	binHz := sampleRate / 2 / float64(nBins)
	mb := &MelBank{filters: make([][]melTap, nFilters)}
	for f := 0; f < nFilters; f++ {
		lo, mid, hi := centers[f], centers[f+1], centers[f+2]
		var taps []melTap
		for b := 0; b < nBins; b++ {
			hz := (float64(b) + 0.5) * binHz
			var w float64
			switch {
			case hz <= lo || hz >= hi:
				continue
			case hz <= mid:
				w = (hz - lo) / (mid - lo)
			default:
				w = (hi - hz) / (hi - mid)
			}
			if w > 0 {
				taps = append(taps, melTap{bin: b, weight: w})
			}
		}
		mb.filters[f] = taps
	}
	return mb
}

// NumFilters returns the number of filters in the bank.
func (mb *MelBank) NumFilters() int { return len(mb.filters) }

// Energies computes the filter-bank energies of a power spectrum with the
// bank's nBins bins into out (len(out) ≥ NumFilters()), each summed in
// float64 and rounded to float32.
func (mb *MelBank) Energies(c *cost.Counter, spectrum, out []float32) {
	out = out[:len(mb.filters)]
	taps := 0
	for f, ft := range mb.filters {
		sum := 0.0
		for _, t := range ft {
			sum += float64(spectrum[t.bin]) * t.weight
		}
		out[f] = float32(sum)
		taps += len(ft)
	}
	c.Add(cost.FloatMul, taps)
	c.Add(cost.FloatAdd, taps)
	c.Add(cost.Load, 2*taps)
	c.Add(cost.Store, len(mb.filters))
}
