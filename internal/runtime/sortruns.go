package runtime

import "slices"

// sortRuns stably sorts s by less. What the simulator sorts is a
// concatenation of already-ascending runs — one per input trace, origin
// node or host — so it finds the runs in one scan for descents (a single
// run returns at once) and merges neighbours bottom-up; arbitrary input is
// only more, shorter runs. A stable sort's output is unique, so this is
// the reflective library sort's order without its swapper.
//
// scratch is the merge buffer, a slice whose contents are dead. It comes
// back grown to len(s) if it was shorter, holding stale copies of
// elements, for the caller to keep with its recycled storage.
func sortRuns[T any](s, scratch []T, less func(a, b *T) bool) []T {
	var onStack [130]int // 64 origins and an aggregator's worth of runs
	bounds := append(onStack[:0], 0)
	for i := 1; i < len(s); i++ {
		if less(&s[i], &s[i-1]) {
			bounds = append(bounds, i)
		}
	}
	if len(bounds) == 1 {
		return scratch
	}
	bounds = append(bounds, len(s))
	if len(scratch) < len(s) {
		scratch = slices.Grow(scratch[:0], len(s))[:len(s)]
	}
	src, dst := s, scratch[:len(s)]
	for len(bounds) > 2 {
		// Merge pairs of runs from src into dst (an odd one out is copied);
		// the new boundaries overwrite the old behind the read position.
		n := 1
		for r := 0; r+1 < len(bounds); r += 2 {
			lo, mid, hi := bounds[r], bounds[r+1], bounds[r+1]
			if r+2 < len(bounds) {
				hi = bounds[r+2]
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if less(&src[j], &src[i]) {
					dst[k] = src[j]
					j++
				} else {
					dst[k] = src[i]
					i++
				}
				k++
			}
			k += copy(dst[k:], src[i:mid])
			copy(dst[k:], src[j:hi])
			bounds[n] = hi
			n++
		}
		bounds = bounds[:n]
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
	return scratch
}
