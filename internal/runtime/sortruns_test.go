package runtime

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestSortRunsIsStableSort checks sortRuns against sort.SliceStable element
// for element — the payload tells equal keys apart, so an unstable merge
// fails — on what the simulator feeds it (concatenations of ascending runs
// with many ties), on fully unsorted input, on one run and on nothing, with
// a scratch buffer that is missing, too short, and long enough.
func TestSortRunsIsStableSort(t *testing.T) {
	type elem struct {
		key float64
		seq int
	}
	rng := rand.New(rand.NewSource(24))
	less := func(a, b *elem) bool { return a.key < b.key }
	inputs := [][]elem{nil, {}, {{1, 0}}}
	for trial := 0; trial < 300; trial++ {
		var s []elem
		for run, runs := 0, 1+rng.Intn(64); run < runs; run++ {
			key := float64(rng.Intn(4))
			for i, n := 0, rng.Intn(40); i < n; i++ {
				key += float64(rng.Intn(3)) // ties within and across runs
				s = append(s, elem{key: key})
			}
		}
		if trial%10 == 0 { // no runs to find: every descent is a boundary
			rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		}
		inputs = append(inputs, s)
	}
	for n, s := range inputs {
		for i := range s {
			s[i].seq = i
		}
		want := slices.Clone(s)
		sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })
		var scratch []elem
		switch n % 3 {
		case 1:
			scratch = make([]elem, len(s)/2)
		case 2:
			scratch = make([]elem, len(s)+3)
		}
		got := slices.Clone(s)
		scratch = sortRuns(got, scratch, less)
		if !slices.Equal(got, want) {
			t.Fatalf("input %d (%d elements): order differs from sort.SliceStable", n, len(s))
		}
		if runs := 1 + countDescents(s, less); runs > 1 && len(scratch) < len(s) {
			t.Fatalf("input %d: %d runs merged through a %d-element buffer for %d elements", n, runs, len(scratch), len(s))
		}
	}
}

func countDescents[T any](s []T, less func(a, b *T) bool) (n int) {
	for i := 1; i < len(s); i++ {
		if less(&s[i], &s[i-1]) {
			n++
		}
	}
	return n
}
