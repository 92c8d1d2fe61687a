//go:build race

package wscript

// raceEnabled reports that the race detector is on: the VM's dispatch loop
// then runs about ten times slower, and so does a wall-clock bound on it.
const raceEnabled = true
