package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestSmoke runs every workload at smoke-test size, tracing off and traced,
// and checks that each declared metric is emitted with its unit and that no
// operation failed — so tier-1 keeps the benchmark compiling, its names
// stable and its correctness gate green.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		def := &workloads[i]
		t.Run(def.name, func(t *testing.T) {
			out := t.TempDir()
			for trace, defs := range [][]metricDef{endToEnd, perLayer} {
				full, err := runWorkload(def, options{seed: 1, seconds: 0.05, trace: trace, size: "tiny", outDir: out})
				if err != nil {
					t.Fatalf("trace=%d: %v", trace, err)
				}
				if full.Result.Failed != 0 || !full.Result.Correct || full.Result.Attempted < 1 {
					t.Errorf("trace=%d: %d of %d operations failed: %v", trace, full.Result.Failed, full.Result.Attempted, full.Notes)
				}
				if len(full.Result.Metrics) != len(defs) {
					t.Errorf("trace=%d: %d metrics emitted, %d declared", trace, len(full.Result.Metrics), len(defs))
				}
				for _, d := range defs {
					mv, ok := full.Result.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("trace=%d: metric %s not emitted", trace, d.name)
					case mv.Unit != d.unit:
						t.Errorf("trace=%d: metric %s has unit %q, want %q", trace, d.name, mv.Unit, d.unit)
					case math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0):
						t.Errorf("trace=%d: metric %s = %v", trace, d.name, mv.Value)
					case trace == 0 && mv.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must be positive", d.name, mv.Value)
					case d.name == "fail_ratio" && mv.Value != 0:
						t.Errorf("fail_ratio = %v, want 0", mv.Value)
					}
				}
			}
			if _, err := os.Stat(filepath.Join(out, "trace-"+def.name+".json")); err != nil {
				t.Errorf("traced run wrote no trace: %v", err)
			}
		})
	}
}

// TestTraceWellFormed checks the trace a traced run writes: every span is
// closed and names its workload and operation, a child belongs to its
// parent's operation, and the runtime's stage spans sit under the run they
// were reported for. (How the layer shares add up to the wall clock is a
// full-size reading, not an assertion on a 10 ms run: README.md has it.)
func TestTraceWellFormed(t *testing.T) {
	out := t.TempDir()
	if _, err := runWorkload(findWorkload("sim-fanin"), options{seed: 1, seconds: 0.05, trace: 1, size: "tiny", outDir: out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(out, "trace-sim-fanin.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	byID := make(map[int]span)
	stages := 0
	for _, s := range tr.Spans {
		if s.Name == "" || s.Op == "" || s.Workload != "sim-fanin" || s.EndNS < s.StartNS {
			t.Errorf("malformed span %+v", s)
		}
		if s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok || p.Op != s.Op {
				t.Errorf("span %+v: parent %+v is missing or of another operation", s, p)
			}
			if p.Name == "runtime.run" && s.Reported {
				stages++
			}
		}
		byID[s.ID] = s
	}
	if stages != 2 {
		t.Errorf("%d stage spans under runtime.run, want node and deliver", stages)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step:
// the same workloads, the same metric names and units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, i int, name, unit, better string, def metricDef) {
		if name != def.name || unit != def.unit {
			t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the benchmark", kind, i, name, unit, def.name, def.unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s metric %s: better = %q", kind, name, better)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the benchmark %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bj.EndToEnd {
		check("end-to-end", i, m.Name, m.Unit, m.Better, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range bj.PerLayer {
		check("per-layer", i, m.Name, m.Unit, m.Better, perLayer[i])
	}
}

// TestQuartilesMatchPython checks quartiles against values computed with
// Python's statistics.quantiles(v, n=4), which the driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 23, 38},
		{[]float64{3, 1}, 0.5, 2, 3.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	flat := []float64{100, 101, 99, 100, 100, 101, 99, 100, 100, 100}
	scale := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	cases := []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		want        string
	}{
		{"req_p50_ms", flat, scale(flat, 1.2), true, "worse"},
		{"req_p50_ms", flat, scale(flat, 0.8), true, "better"},
		{"req_per_s", flat, scale(flat, 0.8), false, "worse"},
		{"req_per_s", flat, scale(flat, 1.05), false, "same"},
		{"req_p50_ms", wide, wide, true, "unresolved"},
		{"req_p50_ms", wide, scale(wide, 0.3), true, "better"},
		{"setup_s", wide, wide, true, "same"},
	}
	for _, c := range cases {
		if got := verdict(c.name, c.a, c.b, c.lowerBetter, 0.10); got != c.want {
			t.Errorf("verdict(%s, lowerBetter=%v) = %s, want %s", c.name, c.lowerBetter, got, c.want)
		}
	}
}

// TestNetClock checks the steal correction: a single thread loses all the
// stolen time, two busy threads 1/√2 of it, a mostly idle process all of
// it, and without steal the net clock is the wall clock.
func TestNetClock(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		c    clocks
		want time.Duration
	}{
		{clocks{wall: 1000 * ms}, 1000 * ms},
		{clocks{wall: 1000 * ms, cpu: 900 * ms}, 1000 * ms},
		{clocks{wall: 1000 * ms, stolen: 200 * ms, cpu: 800 * ms}, 800 * ms},
		{clocks{wall: 1000 * ms, stolen: 400 * ms, cpu: 1600 * ms}, 1000*ms - time.Duration(float64(400*ms)/math.Sqrt2)},
		{clocks{wall: 1000 * ms, stolen: 100 * ms, cpu: 300 * ms}, 900 * ms},
		{clocks{wall: 1000 * ms, stolen: 2000 * ms}, 100 * ms},
	}
	for _, c := range cases {
		if got := c.c.net(); got != c.want {
			t.Errorf("%+v: net = %v, want %v", c.c, got, c.want)
		}
	}
}

// TestUndisturbed checks which repeats the end-to-end metrics are read
// from: those that lost at most maxStolenShare to steal, and never fewer than
// minUndisturbed while there are that many.
func TestUndisturbed(t *testing.T) {
	mk := func(shares ...float64) []*rep {
		var reps []*rep
		for _, s := range shares {
			reps = append(reps, &rep{clocks: clocks{wall: time.Second, stolen: time.Duration(s * float64(time.Second))}})
		}
		return reps
	}
	cases := []struct {
		shares []float64
		want   []float64
	}{
		{[]float64{0, 0.1, 0.05}, []float64{0, 0.05, 0.1}},
		{[]float64{0.5, 0, 0.1, 0.2, 0.05}, []float64{0, 0.05, 0.1, 0.2}},
		{[]float64{0.9, 0.5, 0.6, 0.1, 0.7}, []float64{0.1, 0.5, 0.6}},
		{[]float64{0.9, 0.5}, []float64{0.5, 0.9}},
	}
	for _, c := range cases {
		var got []float64
		for _, r := range undisturbed(mk(c.shares...)) {
			got = append(got, r.stolen.Seconds())
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("undisturbed(%v) kept %v, want %v", c.shares, got, c.want)
		}
	}
}

// TestSelfTime checks that a span's self time excludes its children once,
// even when they overlap.
func TestSelfTime(t *testing.T) {
	tr := newTracer("t")
	tr.spans = []span{
		{Name: "parent", ID: 1, StartNS: 0, EndNS: 100e6},
		{Name: "child", ID: 2, Parent: 1, StartNS: 10e6, EndNS: 50e6},
		{Name: "child", ID: 3, Parent: 1, StartNS: 40e6, EndNS: 70e6},
		{Name: "grandchild", ID: 4, Parent: 2, StartNS: 20e6, EndNS: 30e6},
	}
	if got := tr.selfMs("parent"); got != 40 {
		t.Errorf("self time of parent = %v ms, want 40", got)
	}
	if got := tr.selfMs("child"); got != 60 {
		t.Errorf("self time of children = %v ms, want 60", got)
	}
	if got := tr.totalMs("child"); got != 70 {
		t.Errorf("total time of children = %v ms, want 70", got)
	}
}
