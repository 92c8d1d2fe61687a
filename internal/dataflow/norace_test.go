//go:build !race

package dataflow_test

const raceEnabled = false
