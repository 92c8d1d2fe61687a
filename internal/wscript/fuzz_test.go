package wscript

import "testing"

// parseSeeds seed both fuzz targets: the test programs plus fragments
// that reach each token class and statement form.
var parseSeeds = []string{
	scaleProg,
	firProg,
	`fun f(x) { return x * 2; } namespace Node { s = source("a", 4); } main = s;`,
	`x = iterate v in s state { a = [1, 2.5, "s"]; } { emit a[v % 3]; };`,
	`while x < 10 { x = x + 1; if x == 3 && y != 0.5 { emit "t"; } }`,
	`q = Fifo.make(8); Fifo.enqueue(q, -1); z = zip(a, b);`,
	"\"unterminated",
	"/* unterminated",
	`for i = 0 to 10 { a[i] = i / 0; }`,
	"fun \x00(",
	`x = 1e309; y = 0x12; s = "\q";`,
}

// FuzzParse pins the lexer and parser's error-never-panic contract on
// arbitrary input.
func FuzzParse(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Errors are fine; panics fail the fuzz run.
		_, _ = Parse(src)
	})
}

// FuzzCompile extends the contract through elaboration: compilation
// partially evaluates top-level definitions and runs state initializers,
// and the elaboration budget (elabBudget, probeFuel, initMemBytes) is
// what makes that safe on arbitrary source — every input ends in a
// program or an error, never a panic, and never having built more than
// the budget allows.
func FuzzCompile(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add(seed)
	}
	for _, seed := range hostilePrograms[:2] {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = CompileOpts(src, Options{})
	})
}
