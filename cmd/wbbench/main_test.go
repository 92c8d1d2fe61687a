package main

import (
	"strings"
	"testing"
)

// TestCheckFig pins that every figure the command documents (the usage
// line of the package comment) is accepted and anything else is an error
// — an unknown name used to match no figure and exit 0.
func TestCheckFig(t *testing.T) {
	const documented = "5a|5b|6|7|8|9|10|3|text|scale|solvers|batch|replan|recovery|dist|all"
	for _, name := range strings.Split(documented, "|") {
		if err := checkFig(name); err != nil {
			t.Errorf("documented figure %q rejected: %v", name, err)
		}
	}
	for _, name := range []string{"nope", "", "5", "ALL", "9 "} {
		err := checkFig(name)
		if err == nil {
			t.Errorf("unknown figure %q accepted", name)
		} else if !strings.Contains(err.Error(), "recovery") {
			t.Errorf("error for %q does not list the figures: %v", name, err)
		}
	}
}
