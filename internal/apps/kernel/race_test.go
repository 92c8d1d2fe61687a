//go:build race

package kernel_test

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// random quarter of its Puts, so a dispatch may have to rebuild its Scratch.
const raceEnabled = true
