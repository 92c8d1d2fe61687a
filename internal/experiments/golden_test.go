package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wishbone/internal/platform"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden from the current tree")

// TestFiguresGolden pins the eight deterministic tables of the paper's
// evaluation — Figures 3, 5a, 5b, 7, 8, 9, 10 and the §7.3.1 in-text
// results — byte for byte as `wbbench -fig <name> -seconds 4` prints them.
// Figure 6 and the §4.2 scale table are left out: their columns are solve
// times. A change that moves a figure regenerates the file with
// `go test ./internal/experiments/ -run TestFiguresGolden -update` and says
// why.
func TestFiguresGolden(t *testing.T) {
	const seconds = 4
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	add := func(tab *Table) {
		out.WriteString("\n")
		out.WriteString(tab.String())
	}

	fig3, err := Fig3()
	must(err)
	add(Fig3Table(fig3))
	eeg, err := NewEEGEnv(1, 16)
	must(err)
	fig5a, err := Fig5a(eeg, Fig5aRates, []*platform.Platform{platform.TMoteSky(), platform.NokiaN80()})
	must(err)
	add(Fig5aTable(fig5a))
	e := getSpeech(t)
	add(Fig5bTable(e))
	add(Fig7Table(e))
	add(Fig8Table(e))
	fig9, err := Fig9(e, seconds)
	must(err)
	add(Fig9Table(fig9))
	fig10, err := Fig10(e, seconds)
	must(err)
	add(Fig10Table(fig10))
	text, err := TextTable(e)
	must(err)
	add(text)

	path := filepath.Join("testdata", "figures.golden")
	if *update {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("figures differ from %s (rerun with -update if the change is intended):\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}
