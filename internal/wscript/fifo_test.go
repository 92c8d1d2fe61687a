package wscript

import (
	"math"
	"testing"

	"wishbone/internal/profile"
)

// runGraph executes a compiled program's graph on the given inputs,
// propagating wscript runtime panics to the caller.
func runGraph(c *Compiled, inputs []profile.Input) {
	if _, err := profile.Run(c.Graph, inputs); err != nil {
		panic(err)
	}
}

// firProg is the paper's Figure 1 FIRFilter, transliterated: a FIFO-backed
// tapped delay line built by a higher-order function.
const firProg = `
fun FIRFilter(coeffs, strm) {
  n = Array.length(coeffs);
  iterate x in strm state { fifo = Fifo.make(4); primed = 0; } {
    if primed == 0 {
      for i = 1 to n - 1 { Fifo.enqueue(fifo, 0.0); }
      primed = 1;
    }
    Fifo.enqueue(fifo, x);
    sum = 0.0;
    for i = 0 to n - 1 {
      sum = sum + coeffs[i] * Fifo.peek(fifo, i);
    }
    Fifo.dequeue(fifo);
    emit sum;
  }
}
namespace Node {
  src = source("s", 10);
  filtered = FIRFilter([0.5, 0.25, -0.125, 1.5], src);
}
main = filtered;
`

func TestFIRFilterFromFigure1(t *testing.T) {
	// Impulse response of the FIFO FIR must reproduce the coefficients —
	// note the paper's FIFO ordering: peek(0) is the OLDEST sample, so the
	// response comes out reversed relative to the coefficient array.
	out := compileAndRun(t, firProg, 6, func(_ string, i int) any {
		if i == 0 {
			return float64(1)
		}
		return float64(0)
	})
	if len(out) != 6 {
		t.Fatalf("outputs=%d", len(out))
	}
	// With 3 zeros pre-queued and peek(0)=oldest: y[k] = coeffs[3-k] for
	// k≤3 (impulse travels from newest slot to oldest).
	want := []float64{1.5, -0.125, 0.25, 0.5, 0, 0}
	for i, w := range want {
		got, ok := out[i].(float64)
		if !ok || math.Abs(got-w) > 1e-12 {
			t.Fatalf("out[%d]=%v want %v (full: %v)", i, out[i], w, out)
		}
	}
}

func TestFifoErrors(t *testing.T) {
	progs := []string{
		// dequeue of empty fifo
		`namespace Node { s = source("x", 1);
		   bad = iterate v in s state { f = Fifo.make(2); } { emit Fifo.dequeue(f); }; }
		 main = bad;`,
		// peek out of range
		`namespace Node { s = source("x", 1);
		   bad = iterate v in s state { f = Fifo.make(2); } { emit Fifo.peek(f, 3); }; }
		 main = bad;`,
	}
	for i, prog := range progs {
		c, err := CompileOpts(prog, Options{})
		if err != nil {
			t.Fatalf("prog %d: %v", i, err)
		}
		inputs, _ := c.Inputs(1, func(string, int) any { return int64(1) })
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("prog %d: expected a runtime error", i)
				}
			}()
			runGraph(c, inputs)
		}()
	}
}

func TestFifoStatePersistsPerInstance(t *testing.T) {
	// Two executor instances of the same FIR must keep separate delay
	// lines; compileAndRun uses a single instance, so instead check the
	// running state across elements: feeding 1,1,1... converges to
	// Σcoeffs.
	out := compileAndRun(t, firProg, 8, func(string, int) any { return float64(1) })
	last := out[len(out)-1].(float64)
	if math.Abs(last-(0.5+0.25-0.125+1.5)) > 1e-12 {
		t.Fatalf("steady state %v, want Σcoeffs=2.125", last)
	}
}
