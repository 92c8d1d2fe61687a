package dsp

import "math"

// naiveDFT is the O(n²) reference transform the FFT tests compare against.
func naiveDFT(x []Complex, inverse bool) []Complex {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	out := make([]Complex, n)
	for k := 0; k < n; k++ {
		var sumRe, sumIm float64
		for t := 0; t < n; t++ {
			ang := sign * 2 * math.Pi * float64(k) * float64(t) / float64(n)
			wr, wi := math.Cos(ang), math.Sin(ang)
			sumRe += x[t].Re*wr - x[t].Im*wi
			sumIm += x[t].Re*wi + x[t].Im*wr
		}
		out[k] = Complex{sumRe, sumIm}
	}
	return out
}
