package main

import (
	"strings"
	"testing"
)

// TestCheckFig pins that every figure the command documents (the usage
// line of the package comment) is accepted and anything else is an error
// — an unknown name used to match no figure and exit 0.
func TestCheckFig(t *testing.T) {
	const documented = "3|5a|5b|6|7|8|9|10|text|scale|dist|all"
	for _, name := range strings.Split(documented, "|") {
		if err := checkFig(name); err != nil {
			t.Errorf("documented figure %q rejected: %v", name, err)
		}
	}
	for _, name := range []string{"nope", "", "5", "ALL", "9 "} {
		err := checkFig(name)
		if err == nil {
			t.Errorf("unknown figure %q accepted", name)
		} else if !strings.Contains(err.Error(), "scale, dist, all") {
			t.Errorf("error for %q does not list the figures: %v", name, err)
		}
	}
}

// TestFigureVocabulary pins the figures table against checkFig from the
// other side: every listed name is accepted, and the deleted systems
// figures (./bench carries their numbers) and the empty name are not.
func TestFigureVocabulary(t *testing.T) {
	for _, name := range figures {
		if err := checkFig(name); err != nil {
			t.Errorf("checkFig(%q): %v", name, err)
		}
	}
	for _, name := range []string{"", "solvers", "batch", "replan", "recovery"} {
		if checkFig(name) == nil {
			t.Errorf("checkFig(%q) accepted a name no figure answers to", name)
		}
	}
}
