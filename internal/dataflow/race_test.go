//go:build race

package dataflow_test

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// random quarter of its Puts, so a kernel dispatch may rebuild its Scratch.
const raceEnabled = true
