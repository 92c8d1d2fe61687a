package wscript

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"wishbone/internal/profile"
	"wishbone/internal/wvm"
)

// engineRun executes src under one engine — the VM, or the tree-walking
// oracle when opts came through treeOptions — and returns outputs plus the
// full profiling report, or the runtime panic message when the program
// aborts.
func engineRun(t *testing.T, src string, opts Options, n int, gen func(string, int) any) (out []any, rep *profile.Report, panicMsg string) {
	t.Helper()
	tree := opts.reference != nil
	opts.RetainOutputs = true
	c, err := CompileOpts(src, opts)
	if err != nil {
		t.Fatalf("compile (tree %v): %v\n%s", tree, err, src)
	}
	var inputs []profile.Input
	if tree {
		inputs = treeInputs(c, n, gen)
	} else if inputs, err = c.Inputs(n, gen); err != nil {
		t.Fatal(err)
	}
	prog, err := profile.CompileForProfiling(c.Graph)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != nil {
			panicMsg = fmt.Sprint(r)
		}
	}()
	r, inst, err := profile.RunProgramInstance(prog, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if tree {
		return treeOutputs(c.Outputs(inst)), r, ""
	}
	return c.Outputs(inst), r, ""
}

// assertParity runs src under both engines and requires byte-identical
// outputs, cost counters, edge statistics, and (for aborting programs)
// error text.
func assertParity(t *testing.T, src string, n int, gen func(string, int) any) {
	t.Helper()
	vmOut, vmRep, vmPanic := engineRun(t, src, Options{}, n, gen)
	trOut, trRep, trPanic := engineRun(t, src, treeOptions(Options{}), n, gen)

	if vmPanic != "" || trPanic != "" {
		if vmPanic != trPanic {
			t.Fatalf("engines abort differently:\n  vm:   %q\n  tree: %q\n%s", vmPanic, trPanic, src)
		}
		return
	}
	if len(vmOut) != len(trOut) {
		t.Fatalf("output count: vm=%d tree=%d\nvm=%v\ntree=%v\n%s", len(vmOut), len(trOut), vmOut, trOut, src)
	}
	for i := range vmOut {
		if !valueEq(vmOut[i], trOut[i]) {
			t.Fatalf("output[%d]: vm=%#v tree=%#v\n%s", i, vmOut[i], trOut[i], src)
		}
	}
	compareReports(t, src, vmRep, trRep)
}

func valueEq(a, b any) bool {
	as, aok := a.([]any)
	bs, bok := b.([]any)
	if aok != bok {
		return false
	}
	if aok {
		if len(as) != len(bs) {
			return false
		}
		for i := range as {
			if !valueEq(as[i], bs[i]) {
				return false
			}
		}
		return true
	}
	// Engine-specific unit types both represent unit.
	if _, u1 := a.(wvm.Unit); u1 {
		_, u2 := b.(unitVal)
		return u2
	}
	if _, u1 := a.(unitVal); u1 {
		_, u2 := b.(wvm.Unit)
		return u2
	}
	return a == b
}

func compareReports(t *testing.T, src string, vm, tr *profile.Report) {
	t.Helper()
	vmOps := vm.Graph.Operators()
	trOps := tr.Graph.Operators()
	if len(vmOps) != len(trOps) {
		t.Fatalf("operator count: vm=%d tree=%d", len(vmOps), len(trOps))
	}
	for i := range vmOps {
		vid, tid := vmOps[i].ID(), trOps[i].ID()
		if vm.OpTotal[vid].Counts() != tr.OpTotal[tid].Counts() {
			t.Fatalf("op %s total charges differ:\n  vm:   %v\n  tree: %v\n%s",
				vmOps[i].Name, vm.OpTotal[vid], tr.OpTotal[tid], src)
		}
		if vm.OpPeak[vid].Counts() != tr.OpPeak[tid].Counts() {
			t.Fatalf("op %s peak charges differ:\n  vm:   %v\n  tree: %v\n%s",
				vmOps[i].Name, vm.OpPeak[vid], tr.OpPeak[tid], src)
		}
		if vm.OpInvocations[vid] != tr.OpInvocations[tid] {
			t.Fatalf("op %s invocations: vm=%d tree=%d", vmOps[i].Name,
				vm.OpInvocations[vid], tr.OpInvocations[tid])
		}
	}
	vmEdges := vm.Graph.Edges()
	trEdges := tr.Graph.Edges()
	if len(vmEdges) != len(trEdges) {
		t.Fatalf("edge count: vm=%d tree=%d", len(vmEdges), len(trEdges))
	}
	for i := range vmEdges {
		if vm.EdgeBytes[vmEdges[i]] != tr.EdgeBytes[trEdges[i]] ||
			vm.EdgeElems[vmEdges[i]] != tr.EdgeElems[trEdges[i]] ||
			vm.EdgePeak[vmEdges[i]] != tr.EdgePeak[trEdges[i]] {
			t.Fatalf("edge %d stats differ: vm=(%d,%d,%d) tree=(%d,%d,%d)\n%s", i,
				vm.EdgeBytes[vmEdges[i]], vm.EdgeElems[vmEdges[i]], vm.EdgePeak[vmEdges[i]],
				tr.EdgeBytes[trEdges[i]], tr.EdgeElems[trEdges[i]], tr.EdgePeak[trEdges[i]], src)
		}
	}
}

// TestVMParityFixtures checks the hand-written programs the rest of the
// suite exercises.
func TestVMParityFixtures(t *testing.T) {
	ramp := func(_ string, i int) any { return int64(i + 1) }
	fixtures := []struct {
		name string
		src  string
		n    int
		gen  func(string, int) any
	}{
		{"scale", scaleProg, 5, ramp},
		{"fir", firProg, 8, func(_ string, i int) any { return float64(i) * 0.5 }},
		{"stateful-sum", `
namespace Node {
  src = source("s", 5);
  sums = iterate x in src state { total = 0; } { total = total + x; emit total; };
}
main = sums;
`, 6, ramp},
		{"zip", `
namespace Node {
  a = source("a", 4);
  b = source("b", 4);
  sums = iterate p in zip(a, b) { emit p[0] * p[1] + p[0]; };
}
main = sums;
`, 5, func(name string, i int) any {
			if name == "a" {
				return int64(i)
			}
			return int64(10 * i)
		}},
		{"functions", `
fun sq(v) { return v * v; }
fun poly(v) { return sq(v) + 3 * v + 1; }
namespace Node {
  src = source("s", 2);
  ys = iterate x in src { emit poly(x); };
}
main = ys;
`, 4, ramp},
		{"while-collatz", `
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
`, 5, ramp},
		{"captured-template", `
coeffs = [1.5, -0.5, 0.25];
namespace Node {
  src = source("s", 4);
  ys = iterate x in src {
    acc = 0.0;
    for i = 0 to 2 { acc = acc + coeffs[i] * x; }
    emit acc;
  };
}
main = ys;
`, 5, func(_ string, i int) any { return float64(i) + 0.5 }},
		{"strings-and-logic", `
namespace Node {
  src = source("s", 3);
  tags = iterate x in src {
    if x > 2 && x < 9 || x == 0 { emit "mid" + "dle"; } else { emit "edge"; }
  };
}
main = tags;
`, 6, ramp},
		{"windows", `
namespace Node {
  src = source("s", 4);
  energy = iterate w in src state { n = 0; } {
    n = n + 1;
    sum = 0.0;
    for i = 0 to Array.length(w) - 1 { sum = sum + w[i] * w[i]; }
    if n % 2 == 0 { emit [sum, Math.sqrt(sum)]; }
  };
}
main = energy;
`, 6, func(_ string, i int) any {
			w := make([]float64, 8)
			for k := range w {
				w[k] = math.Sin(float64(i*8+k) / 3)
			}
			return w
		}},
		{"runtime-error-bounds", `
namespace Node {
  src = source("s", 1);
  bad = iterate x in src { arr = Array.make(2, 0); emit arr[x]; };
}
main = bad;
`, 4, ramp}, // errors on the second element: identical abort text required
		{"runtime-error-div", `
namespace Node {
  src = source("s", 1);
  bad = iterate x in src { emit 10 / (x - 2); };
}
main = bad;
`, 3, ramp},
		{"fifo-error", `
namespace Node {
  s = source("x", 1);
  bad = iterate v in s state { f = Fifo.make(2); } { emit Fifo.dequeue(f); };
}
main = bad;
`, 1, ramp},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) { assertParity(t, fx.src, fx.n, fx.gen) })
	}
}

// progGen generates random wscript operator bodies that stay inside the
// engine-parity envelope: no mutation of captured values, no
// read-before-first-write, guarded division, bounded loops, safe indices.
type progGen struct {
	r   *rand.Rand
	buf strings.Builder
}

func (g *progGen) intExpr(depth int, vars []string) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		if len(vars) > 0 && g.r.Intn(2) == 0 {
			return vars[g.r.Intn(len(vars))]
		}
		return fmt.Sprint(g.r.Intn(19) - 9)
	}
	l := g.intExpr(depth-1, vars)
	rhs := g.intExpr(depth-1, vars)
	switch g.r.Intn(5) {
	case 0:
		return fmt.Sprintf("(%s + %s)", l, rhs)
	case 1:
		return fmt.Sprintf("(%s - %s)", l, rhs)
	case 2:
		return fmt.Sprintf("(%s * %s)", l, rhs)
	case 3:
		// (rhs % 7 + 8) is always in [2, 14]: division is safe.
		return fmt.Sprintf("(%s / (%s %% 7 + 8))", l, rhs)
	default:
		return fmt.Sprintf("(%s %% (%s %% 5 + 6))", l, rhs)
	}
}

func (g *progGen) floatExpr(depth int, fvars []string) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		if len(fvars) > 0 && g.r.Intn(2) == 0 {
			return fvars[g.r.Intn(len(fvars))]
		}
		return fmt.Sprintf("%.2f", g.r.Float64()*10-5)
	}
	l := g.floatExpr(depth-1, fvars)
	rhs := g.floatExpr(depth-1, fvars)
	switch g.r.Intn(6) {
	case 0:
		return fmt.Sprintf("(%s + %s)", l, rhs)
	case 1:
		return fmt.Sprintf("(%s - %s)", l, rhs)
	case 2:
		return fmt.Sprintf("(%s * %s)", l, rhs)
	case 3:
		return fmt.Sprintf("(%s / (%s * %s + 1.5))", l, rhs, rhs)
	case 4:
		return fmt.Sprintf("Math.sqrt(Math.abs(%s))", l)
	default:
		return fmt.Sprintf("Math.floor(%s)", l)
	}
}

func (g *progGen) boolExpr(ivars []string) string {
	l := g.intExpr(1, ivars)
	r := g.intExpr(1, ivars)
	ops := []string{"<", ">", "<=", ">=", "==", "!="}
	cmp := fmt.Sprintf("%s %s %s", l, ops[g.r.Intn(len(ops))], r)
	if g.r.Intn(3) == 0 {
		cmp2 := fmt.Sprintf("%s %s %s", g.intExpr(1, ivars), ops[g.r.Intn(len(ops))], g.intExpr(1, ivars))
		if g.r.Intn(2) == 0 {
			return fmt.Sprintf("(%s && %s)", cmp, cmp2)
		}
		return fmt.Sprintf("(%s || %s)", cmp, cmp2)
	}
	return cmp
}

// body emits statements into g.buf. ivars/fvars are defined int/float
// variables available for reads.
func (g *progGen) body(indent string, depth int, ivars, fvars []string, nextVar *int) {
	for s := 0; s < 2+g.r.Intn(4); s++ {
		switch g.r.Intn(8) {
		case 0: // new int var
			name := fmt.Sprintf("v%d", *nextVar)
			*nextVar++
			fmt.Fprintf(&g.buf, "%s%s = %s;\n", indent, name, g.intExpr(2, ivars))
			ivars = append(ivars, name)
		case 1: // new float var
			name := fmt.Sprintf("f%d", *nextVar)
			*nextVar++
			fmt.Fprintf(&g.buf, "%s%s = %s;\n", indent, name, g.floatExpr(2, fvars))
			fvars = append(fvars, name)
		case 2: // int accumulate
			fmt.Fprintf(&g.buf, "%ssAcc = sAcc + %s;\n", indent, g.intExpr(2, ivars))
		case 3: // float accumulate
			fmt.Fprintf(&g.buf, "%sfAcc = fAcc + %s;\n", indent, g.floatExpr(2, fvars))
		case 4: // array write then read, safe index
			idx := fmt.Sprintf("((%s) %% 4 + 4) %% 4", g.intExpr(1, ivars))
			fmt.Fprintf(&g.buf, "%sbuf[%s] = %s;\n", indent, idx, g.floatExpr(1, fvars))
			fmt.Fprintf(&g.buf, "%sfAcc = fAcc + buf[%s];\n", indent, idx)
		case 5: // if/else
			if depth > 0 {
				fmt.Fprintf(&g.buf, "%sif %s {\n", indent, g.boolExpr(ivars))
				g.body(indent+"  ", depth-1, ivars, fvars, nextVar)
				if g.r.Intn(2) == 0 {
					fmt.Fprintf(&g.buf, "%s} else {\n", indent)
					g.body(indent+"  ", depth-1, ivars, fvars, nextVar)
				}
				fmt.Fprintf(&g.buf, "%s}\n", indent)
			}
		case 6: // bounded for loop
			if depth > 0 {
				fmt.Fprintf(&g.buf, "%sfor li%d = 0 to %d {\n", indent, *nextVar, g.r.Intn(5))
				loopVar := fmt.Sprintf("li%d", *nextVar)
				*nextVar++
				g.body(indent+"  ", depth-1, append(ivars, loopVar), fvars, nextVar)
				fmt.Fprintf(&g.buf, "%s}\n", indent)
			}
		case 7: // bounded while
			name := fmt.Sprintf("w%d", *nextVar)
			*nextVar++
			fmt.Fprintf(&g.buf, "%s%s = ((%s) %% 4 + 4) %% 4;\n", indent, name, g.intExpr(1, ivars))
			fmt.Fprintf(&g.buf, "%swhile %s > 0 {\n", indent, name)
			fmt.Fprintf(&g.buf, "%s  sAcc = sAcc + %s;\n", indent, name)
			fmt.Fprintf(&g.buf, "%s  %s = %s - 1;\n", indent, name, name)
			fmt.Fprintf(&g.buf, "%s}\n", indent)
		}
	}
	// Emit something observable at every level.
	if g.r.Intn(2) == 0 {
		fmt.Fprintf(&g.buf, "%semit sAcc;\n", indent)
	} else {
		fmt.Fprintf(&g.buf, "%semit [fAcc, intToFloat(sAcc)];\n", indent)
	}
}

func (g *progGen) program() string {
	g.buf.Reset()
	g.buf.WriteString("fun mix(p, q) { return p * 2 + q; }\n")
	g.buf.WriteString("namespace Node {\n  src = source(\"s\", 10);\n")
	g.buf.WriteString("  op1 = iterate x in src state { sAcc = 0; fAcc = 0.0; buf = Array.make(4, 0.0); } {\n")
	next := 0
	g.buf.WriteString("    sAcc = mix(sAcc, x) % 100003;\n")
	g.body("    ", 2, []string{"x", "sAcc"}, []string{"fAcc"}, &next)
	g.buf.WriteString("  };\n}\nmain = op1;\n")
	return g.buf.String()
}

// TestVMParityDifferential fuzzes randomly generated programs through both
// engines, requiring identical outputs and identical cost profiles.
func TestVMParityDifferential(t *testing.T) {
	rounds := 60
	if testing.Short() {
		rounds = 10
	}
	for seed := 0; seed < rounds; seed++ {
		g := &progGen{r: rand.New(rand.NewSource(int64(seed)))}
		src := g.program()
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			assertParity(t, src, 5, func(_ string, i int) any { return int64(i*3 - 4) })
		})
	}
}

// TestVMParityFuelIndependence requires that setting a (huge) finite fuel
// and memory budget changes nothing about execution: identical outputs and
// charges, and the consumed fuel itself is identical to the unlimited run's
// meter reading.
func TestVMParityFuelIndependence(t *testing.T) {
	gen := func(_ string, i int) any { return float64(i) * 0.25 }
	for _, src := range []string{firProg, scaleProg} {
		m1, m2 := &wvm.Meter{}, &wvm.Meter{}
		out1, rep1, p1 := engineRun(t, src, Options{Meter: m1}, 8, gen)
		out2, rep2, p2 := engineRun(t, src, Options{
			Meter:  m2,
			Limits: wvm.Limits{Fuel: 1 << 40, MemBytes: 1 << 40},
		}, 8, gen)
		if p1 != "" || p2 != "" {
			t.Fatalf("unexpected aborts: %q %q", p1, p2)
		}
		if len(out1) != len(out2) {
			t.Fatalf("outputs differ under limits: %d vs %d", len(out1), len(out2))
		}
		for i := range out1 {
			if !valueEq(out1[i], out2[i]) {
				t.Fatalf("output[%d] differs under limits: %v vs %v", i, out1[i], out2[i])
			}
		}
		compareReports(t, src, rep1, rep2)
		if m1.Fuel() == 0 || m1.Fuel() != m2.Fuel() {
			t.Fatalf("fuel accounting not limit-independent: unlimited=%d limited=%d", m1.Fuel(), m2.Fuel())
		}
		if m1.Calls() != m2.Calls() {
			t.Fatalf("metered calls differ: %d vs %d", m1.Calls(), m2.Calls())
		}
	}
}

// BenchmarkEngineVM and BenchmarkEngineTree measure the per-element cost of
// each engine on the Figure 1 FIR filter (docs/wscript.md quotes the
// resulting overhead table).
func benchEngine(b *testing.B, opts Options) {
	c, err := CompileOpts(firProg, opts)
	if err != nil {
		b.Fatal(err)
	}
	gen := func(_ string, i int) any { return float64(i) * 0.5 }
	var inputs []profile.Input
	if opts.reference != nil {
		inputs = treeInputs(c, 256, gen)
	} else if inputs, err = c.Inputs(256, gen); err != nil {
		b.Fatal(err)
	}
	prog, err := profile.CompileForProfiling(c.Graph)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		if _, err := profile.RunProgram(prog, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineVM(b *testing.B)   { benchEngine(b, Options{}) }
func BenchmarkEngineTree(b *testing.B) { benchEngine(b, treeOptions(Options{})) }
