package wscript

import (
	"errors"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"wishbone/internal/wvm"
)

// hostilePrograms are small sources whose elaboration — top-level partial
// evaluation, template capture, or a state initializer — would allocate
// or run without bound if nothing metered it. The first two are the ones
// that took 4.5 GiB / 18 s and 762 MiB per instance before the budget.
var hostilePrograms = []string{
	`big = Array.make(300000000, 0);
namespace Node { s = source("x", 1); }
main = iterate v in s { emit v; };`,
	`namespace Node { s = source("x", 1); }
main = iterate v in s state { a = Array.make(50000000, 0); } { emit v; };`,
	// for has no iteration cap of its own; while's is per loop, and nests.
	`fun spin() { for i = 0 to 9223372036854775807 { x = i; } return 0; }
n = spin();
namespace Node { s = source("x", 1); }
main = s;`,
	`fun spin() { i = 0; while i >= 0 { j = 0; while j >= 0 { j = j + 1; } i = i + 1; } return 0; }
n = spin();
namespace Node { s = source("x", 1); }
main = s;`,
	// Depth is capped at 500 frames, breadth is not.
	`fun fan(n) { if n > 0 { fan(n - 1); fan(n - 1); } return 0; }
n = fan(400);
namespace Node { s = source("x", 1); }
main = s;`,
	`fun blow() { s = "ab"; for i = 0 to 40 { s = s + s; } return s; }
name = blow();
namespace Node { s = source("x", 1); }
main = s;`,
	`fun grow() { a = []; while true { Array.append(a, 0); } return a; }
a = grow();
namespace Node { s = source("x", 1); }
main = s;`,
	`q = Fifo.make(300000000);
namespace Node { s = source("x", 1); }
main = s;`,
	// A captured structure unfolds into a tree when it is copied into an
	// operator's template pool: shared substructure doubles per level, and
	// an array that holds itself never ends.
	`fun dag() { a = [0]; for i = 0 to 60 { a = [a, a]; } return a; }
t = dag();
namespace Node { s = source("x", 1); }
main = iterate v in s { emit t[0]; };`,
	`fun knot() { a = [0]; a[0] = a; return a; }
t = knot();
namespace Node { s = source("x", 1); }
main = iterate v in s { emit t[0]; };`,
	// One operator per iteration.
	`fun chain(s) { cur = s; while true { cur = iterate v in cur { emit v; }; } return cur; }
namespace Node { s = source("x", 1); }
main = chain(s);`,
	initSpin,
}

// initSpin burns time, not memory, in a state initializer: 10⁹ iterations
// are ≈ 20 s of VM time per instance unless probeFuel cuts them short.
const initSpin = `fun spin() { n = 0; for i = 0 to 1000000000 { n = n + 1; } return n; }
namespace Node { s = source("x", 1); }
main = iterate v in s state { x = spin(); } { emit v + x; };`

// TestElaborationBudget: every hostile program is a compile error, and
// the two allocation bombs are refused before they allocate — quickly,
// and without the heap ever holding what they asked for.
func TestElaborationBudget(t *testing.T) {
	for i, src := range hostilePrograms {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, err := CompileOpts(src, Options{})
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		allocMiB := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		if err == nil {
			t.Errorf("program %d compiled; want a budget error:\n%s", i, src)
			continue
		}
		if !strings.Contains(err.Error(), "budget exhausted") && !errors.Is(err, wvm.ErrMemLimit) &&
			!strings.Contains(err.Error(), "nests deeper") {
			t.Errorf("program %d failed with %v; want the elaboration budget to refuse it", i, err)
		}
		t.Logf("program %d: %.1f ms, %.1f MiB allocated: %v", i, 1e3*elapsed.Seconds(), allocMiB, err)
		if i < 2 && (elapsed > 100*time.Millisecond || allocMiB > 64) {
			t.Errorf("program %d took %v and allocated %.1f MiB; want < 100 ms and < 64 MiB", i, elapsed, allocMiB)
		}
		if src == initSpin {
			limit := 2 * time.Second
			if raceEnabled {
				limit *= 10
			}
			if !errors.Is(err, wvm.ErrFuelExhausted) || elapsed > limit {
				t.Errorf("initializer spin failed with %v after %v; want wvm.ErrFuelExhausted in < %v", err, elapsed, limit)
			}
		}
		if elapsed > 10*time.Second {
			t.Errorf("program %d ran %v on its way to the budget", i, elapsed)
		}
	}
}

// TestElaborationBudgetAdmitsDocs: the budget must not refuse what the
// language reference shows (the parity and example suites compile their
// own programs under it as they run).
func TestElaborationBudgetAdmitsDocs(t *testing.T) {
	doc, err := os.ReadFile("../../docs/wscript.md")
	if err != nil {
		t.Fatal(err)
	}
	blocks := strings.Split(string(doc), "```")
	programs := 0
	for i := 1; i < len(blocks); i += 2 {
		if !strings.Contains(blocks[i], "main =") {
			continue // a shell or Go excerpt, not a program
		}
		programs++
		if _, err := CompileOpts(blocks[i], Options{}); err != nil {
			t.Errorf("docs/wscript.md program %d: %v\n%s", programs, err, blocks[i])
		}
	}
	if programs == 0 {
		t.Fatal("found no wscript program in docs/wscript.md")
	}
}
