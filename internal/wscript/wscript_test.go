package wscript

import (
	"strings"
	"testing"

	"wishbone/internal/dataflow"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/wvm"
)

// compileAndRun compiles src, feeds n events from gen into every source,
// and returns the sink outputs.
func compileAndRun(t *testing.T, src string, n int, gen func(name string, i int) any) []any {
	t.Helper()
	c, err := CompileOpts(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs, err := c.Inputs(n, gen)
	if err != nil {
		t.Fatal(err)
	}
	var out []any
	collectSink(c, &out)
	if _, err := profile.Run(c.Graph, inputs); err != nil {
		t.Fatal(err)
	}
	return out
}

// collectSink makes c's sink append every value reaching it to *out as
// plain Go data (int64, float64, bool, string, []any), for either engine's
// values. Install it before c's graph is compiled.
func collectSink(c *Compiled, out *[]any) {
	c.Sink.Work = func(_ *dataflow.Ctx, _ int, v dataflow.Value, _ dataflow.Emit) {
		switch x := v.(type) {
		case *wvm.Array, *wvm.Fifo:
			*out = append(*out, wvm.ToGo(x))
		default:
			*out = append(*out, toGo(x))
		}
	}
}

func TestLexerBasics(t *testing.T) {
	toks, err := lex(`fun f(x) { emit x * 2.5; } // comment`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	want := []tokenKind{tokIdent, tokIdent, tokPunct, tokIdent, tokPunct, tokPunct,
		tokIdent, tokIdent, tokPunct, tokFloat, tokPunct, tokPunct, tokEOF}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens want %d: %v", len(kinds), len(want), toks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d: %v want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, `/* unterminated`, "a # b", `"\q"`} {
		if _, err := lex(src); err == nil {
			t.Errorf("lex(%q): expected error", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		`fun f( { }`,
		`namespace Other { }`,
		`x = ;`,
		`fun f(x) { for i = 1 { } }`,
		`x = iterate y z { };`,
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

const scaleProg = `
namespace Node {
  src = source("s", 10);
  doubled = iterate x in src { emit x * 2; };
}
main = doubled;
`

func TestCompileSimplePipeline(t *testing.T) {
	out := compileAndRun(t, scaleProg, 3, func(string, int) any { return int64(21) })
	if len(out) != 3 {
		t.Fatalf("outputs=%d want 3", len(out))
	}
	for _, v := range out {
		if v != int64(42) {
			t.Fatalf("got %v want 42", v)
		}
	}
}

func TestCompileRequiresMain(t *testing.T) {
	_, err := CompileOpts(`namespace Node { s = source("x", 1); }`, Options{})
	if err == nil || !strings.Contains(err.Error(), "main") {
		t.Fatalf("err=%v, want missing-main error", err)
	}
}

func TestCompileRequiresSourceInNode(t *testing.T) {
	_, err := CompileOpts(`s = source("x", 1); main = s;`, Options{})
	if err == nil || !strings.Contains(err.Error(), "namespace Node") {
		t.Fatalf("err=%v, want source-outside-node error", err)
	}
}

func TestStatefulIterate(t *testing.T) {
	prog := `
namespace Node {
  src = source("s", 5);
  sums = iterate x in src state { total = 0; } {
    total = total + x;
    emit total;
  };
}
main = sums;
`
	out := compileAndRun(t, prog, 4, func(_ string, i int) any { return int64(i + 1) })
	want := []int64{1, 3, 6, 10}
	if len(out) != len(want) {
		t.Fatalf("outputs=%v", out)
	}
	for i, w := range want {
		if out[i] != w {
			t.Fatalf("out[%d]=%v want %v (running sum must persist)", i, out[i], w)
		}
	}
}

func TestFunctionsAndArrays(t *testing.T) {
	// The FIRFilter shape from the paper's Figure 1: a function that
	// constructs a stateful operator with an array-backed delay line.
	prog := `
fun movingAvg(n, s) {
  iterate x in s state { buf = Array.make(3, 0.0); pos = 0; count = 0; } {
    buf[pos] = x;
    pos = (pos + 1) % 3;
    if count < 3 { count = count + 1; }
    sum = 0.0;
    for i = 0 to 2 { sum = sum + buf[i]; }
    emit sum / intToFloat(count);
  }
}
namespace Node {
  src = source("s", 8);
  smooth = movingAvg(3, src);
}
main = smooth;
`
	out := compileAndRun(t, prog, 3, func(_ string, i int) any { return float64(3) })
	// Constant input 3 → average always 3 once warm; first outputs divide
	// by the observed count, so every output is exactly 3.
	for i, v := range out {
		if v != float64(3) {
			t.Fatalf("out[%d]=%v want 3", i, v)
		}
	}
}

func TestZipSynchronizes(t *testing.T) {
	prog := `
namespace Node {
  a = source("a", 4);
  b = source("b", 4);
  both = zip(a, b);
  sums = iterate p in both { emit p[0] + p[1]; };
}
main = sums;
`
	out := compileAndRun(t, prog, 3, func(name string, i int) any {
		if name == "a" {
			return int64(i)
		}
		return int64(10 * i)
	})
	want := []int64{0, 11, 22}
	if len(out) != 3 {
		t.Fatalf("outputs=%v", out)
	}
	for i, w := range want {
		if out[i] != w {
			t.Fatalf("out[%d]=%v want %v", i, out[i], w)
		}
	}
}

func TestCostCountingFeedsProfiler(t *testing.T) {
	prog := `
namespace Node {
  src = source("s", 10);
  heavy = iterate x in src {
    acc = 0.0;
    for i = 1 to 100 { acc = acc + Math.sqrt(intToFloat(i)) * x; }
    emit acc;
  };
  light = iterate y in heavy { emit y; };
}
main = light;
`
	c, err := CompileOpts(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs, err := c.Inputs(5, func(string, int) any { return float64(1) })
	if err != nil {
		t.Fatal(err)
	}
	rep, err := profile.Run(c.Graph, inputs)
	if err != nil {
		t.Fatal(err)
	}
	tm := platform.TMoteSky()
	var heavyID, lightID int
	for _, op := range c.Graph.Operators() {
		if strings.HasPrefix(op.Name, "iter1") {
			heavyID = op.ID()
		}
		if strings.HasPrefix(op.Name, "iter2") {
			lightID = op.ID()
		}
	}
	h := rep.OpSeconds(tm, heavyID)
	l := rep.OpSeconds(tm, lightID)
	if h <= 10*l {
		t.Fatalf("heavy op %.2e s should dwarf pass-through %.2e s", h, l)
	}
}

func TestEndToEndPartitionable(t *testing.T) {
	// The compiled graph must classify and profile like hand-built ones.
	c, err := CompileOpts(scaleProg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cls, err := dataflow.Classify(c.Graph, dataflow.Permissive)
	if err != nil {
		t.Fatal(err)
	}
	if cls.Place[c.Sources["s"].Op.ID()] != dataflow.PinNode {
		t.Fatal("source must be node-pinned")
	}
	if cls.Place[c.Sink.ID()] != dataflow.PinServer {
		t.Fatal("sink must be server-pinned")
	}
}

func TestRuntimeErrorsSurface(t *testing.T) {
	prog := `
namespace Node {
  src = source("s", 1);
  bad = iterate x in src { arr = Array.make(2, 0); emit arr[5]; };
}
main = bad;
`
	c, err := CompileOpts(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs, _ := c.Inputs(1, func(string, int) any { return int64(1) })
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("out-of-bounds access should panic with a wscript error")
		}
	}()
	profile.Run(c.Graph, inputs)
}

func TestWhileAndComparison(t *testing.T) {
	prog := `
fun collatzLen(n0) {
  n = n0;
  len = 0;
  while n != 1 {
    if n % 2 == 0 { n = n / 2; } else { n = 3 * n + 1; }
    len = len + 1;
  }
  return len;
}
namespace Node {
  src = source("s", 1);
  lens = iterate x in src { emit collatzLen(x); };
}
main = lens;
`
	out := compileAndRun(t, prog, 1, func(string, int) any { return int64(6) })
	if len(out) != 1 || out[0] != int64(8) {
		t.Fatalf("collatz(6)=%v want 8", out)
	}
}
