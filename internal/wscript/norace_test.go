//go:build !race

package wscript

const raceEnabled = false
