// Command bench is this repository's benchmark: six named workloads over
// the three real entry points of the Wishbone pipeline (wishbone.Planner,
// the partition service over loopback HTTP, and the dist coordinator over
// loopback shard hosts), end-to-end metrics from tracing-off runs, and an
// outside-in ledger of per-layer metrics from a traced run. README.md in
// this directory says why each workload and metric exists; BENCHMARK.json
// at the repository root declares them to the driver.
//
//	go run ./bench --workload sim-fanin --seed 1 --seconds 15 --trace 0
//	go run ./bench                            # every workload, tracing off
//	go run ./bench -trace 1                   # every workload, traced
//	go run ./bench -runs 10 -set out/a.json   # a set of runs for -compare
//	go run ./bench -compare out/a.json out/b.json
//	go run ./bench -update-golden             # re-pin the † counts
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

//go:embed golden.json
var goldenJSON []byte

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        int
	size         string
	outDir       string
	runs         int
	set          string
	compare      bool
	updateGolden bool
}

// Paths relative to the repository root, where the benchmark is run from.
const (
	goldenPath    = "bench/golden.json"
	benchJSONPath = "BENCHMARK.json"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line of a run's standard output: exactly these
// keys, as the driver's contract requires.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fullResult is what a run writes to <out>/result-*.json and what a set of
// runs collects: the contract's result plus everything needed to read it.
type fullResult struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    int      `json:"trace"`
	Size     string   `json:"size"`
	Host     hostInfo `json:"host"`
	// Repeats is the number of timed repeats; Samples the number of request
	// latencies measured; Beyond95 how many of them lie beyond the 95th
	// percentile (a percentile is trusted from ten up).
	Repeats  int `json:"repeats"`
	Samples  int `json:"samples"`
	Beyond95 int `json:"beyond_p95"`
	// Rounds is each timed repeat's own reading of the timing metrics, in
	// run order.
	Rounds []roundStats       `json:"rounds"`
	Result runResult          `json:"result"`
	Counts map[string]float64 `json:"counts,omitempty"`
	Notes  []string           `json:"notes,omitempty"`
}

// hostInfo describes where a number was measured.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 15, "measurement budget of one run, seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: tracing off, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.StringVar(&o.size, "size", "full", "full, or tiny (smoke-test sizes)")
	fs.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for traces and results")
	fs.IntVar(&o.runs, "runs", 1, "with -workload all: runs per workload, seeds seed..seed+runs-1")
	fs.StringVar(&o.set, "set", "", "with -workload all: write every run's result to this file (input of -compare)")
	fs.BoolVar(&o.compare, "compare", false, "compare two -set files: -compare a.json b.json")
	fs.BoolVar(&o.updateGolden, "update-golden", false, "re-pin the deterministic counts of the traced run in "+goldenPath)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.updateGolden {
		// The traced run is the one that reads every deterministic count.
		o.trace = 1
	}
	// The box this is sized for has two cores; a wider host must not change
	// what is measured.
	if runtime.NumCPU() < 2 {
		runtime.GOMAXPROCS(1)
	} else {
		runtime.GOMAXPROCS(2)
	}
	switch {
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two set files")
			return 2
		}
		worse, err := compareSets(fs.Arg(0), fs.Arg(1), benchJSONPath, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	case o.workload == "all":
		return runAll(o, stdout, stderr)
	}
	def := findWorkload(o.workload)
	if def == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	full, err := runWorkload(def, o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
		return 2
	}
	printReport(stdout, full)
	if err := writeResult(o.outDir, full); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	line, _ := json.Marshal(full.Result)
	fmt.Fprintln(stdout, string(line))
	if !full.Result.Correct {
		return 1
	}
	return 0
}

// runWorkload makes one run: repeated timed set-up, then either the
// tracing-off repeats or the traced run.
func runWorkload(def *workloadDef, o options) (*fullResult, error) {
	// Smoke-test sizes also shrink the statistics: three set-ups, one
	// timed repeat.
	tiny := o.size == "tiny"
	minSetup, minReps := 0.5, def.minReps
	if tiny {
		minSetup, minReps = 0, 1
	}
	w := def.new(o.seed, tiny)
	setupS, err := timeSetup(w, minSetup)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer w.close()

	full := &fullResult{
		Workload: def.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Size: o.size,
		Host:   host(),
		Counts: make(map[string]float64),
	}
	full.Result.Metrics = make(map[string]metricValue)
	var reps []*rep
	if o.trace == 0 {
		if reps, err = repeats(w, o.seconds, minReps); err != nil {
			return nil, err
		}
		vals := endToEndMetrics(reps, setupS)
		for _, d := range endToEnd {
			full.Result.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
		}
	} else {
		// Half the budget goes to untraced repeats: their median is the
		// base of trace_overhead_ratio.
		base, err := repeats(w, o.seconds/2, min(minReps, 2))
		if err != nil {
			return nil, err
		}
		vals, traced, err := tracedRun(w, def.name, base, o.outDir)
		if err != nil {
			return nil, err
		}
		reps = append(base, traced...)
		for _, d := range perLayer {
			full.Result.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
			if v, measured := vals[d.name]; measured && d.exact {
				full.Counts[d.name] = v
			}
		}
	}
	full.Repeats = len(reps)
	for _, r := range reps {
		full.Rounds = append(full.Rounds, r.stats())
		full.Result.Attempted += r.requests
		full.Result.Failed += r.failed
		full.Samples += len(r.latMs)
		full.Notes = append(full.Notes, r.notes...)
		for k, v := range r.counts {
			if prev, seen := full.Counts[k]; seen && prev != v {
				full.Result.Failed++
				full.Notes = append(full.Notes, fmt.Sprintf("%s did not repeat exactly: %v then %v", k, prev, v))
			}
			full.Counts[k] = v
		}
	}
	full.Beyond95 = beyond(full.Samples, 95)
	if o.size == "full" {
		checkGolden(full, o)
	}
	full.Result.Correct = full.Result.Failed == 0
	if o.trace == 1 {
		mv := full.Result.Metrics["fail_ratio"]
		mv.Value = float64(full.Result.Failed) / float64(full.Result.Attempted)
		full.Result.Metrics["fail_ratio"] = mv
	}
	return full, nil
}

// tracedRun makes the traced attempt — the workload once with spans on, then
// the isolated per-layer measurements — and writes its trace. Every number
// in it is a single shot on the wall clock, so a burst of hypervisor steal
// would pass for a layer's cost: an attempt that lost more than a twentieth
// of its time to steal is made again, three times at most, and the quietest
// is kept. It returns the kept attempt's metrics and every attempt's repeat
// (their requests all count as attempted).
func tracedRun(w workload, name string, base []*rep, outDir string) (map[string]float64, []*rep, error) {
	const attempts, quiet = 3, 0.05
	var (
		vals  map[string]float64
		kept  *tracer
		reps  []*rep
		share = math.Inf(1)
	)
	for i := 0; i < attempts && share > quiet; i++ {
		tr := newTracer(name)
		sw := startStopwatch()
		v, traced, err := tracedAttempt(w, tr, base)
		if err != nil {
			return nil, nil, err
		}
		c := sw.stop()
		reps = append(reps, traced)
		if s := c.stolen.Seconds() / c.wall.Seconds(); s < share {
			vals, kept, share = v, tr, s
		}
	}
	if err := kept.write(outDir); err != nil {
		return nil, nil, err
	}
	return vals, reps, nil
}

func tracedAttempt(w workload, tr *tracer, base []*rep) (map[string]float64, *rep, error) {
	runtime.GC()
	heap := startHeapSampler()
	traced, err := w.run(tr)
	peak := heap.peakMB()
	if err != nil {
		return nil, nil, err
	}
	vals := make(map[string]float64)
	if err := w.layers(tr, traced, vals); err != nil {
		return nil, nil, fmt.Errorf("per-layer measurements: %w", err)
	}
	// Per request, because the traced repeat may make fewer calls than a timed
	// one; on the net clock, or steal would pass for tracing overhead.
	var perReq []float64
	for _, r := range base {
		perReq = append(perReq, r.net().Seconds()/float64(r.requests))
	}
	vals["trace_overhead_ratio"] = traced.net().Seconds() / float64(traced.requests) / median(perReq)
	vals["req_p95_ms"] = tailMs(base)
	vals["client.peak_heap_mb"] = peak
	vals["client.req_p99_ms"] = percentile(traced.latMs, 99)
	for k, v := range traced.counts {
		vals[k] = v
	}
	return vals, traced, nil
}

// golden pins, per seed and workload, the counts that come from
// deterministic program output.
type golden struct {
	Seed      int64                         `json:"seed"`
	Workloads map[string]map[string]float64 `json:"workloads"`
}

func loadGolden(data []byte) (*golden, error) {
	g := &golden{Workloads: make(map[string]map[string]float64)}
	if len(strings.TrimSpace(string(data))) == 0 {
		return g, nil
	}
	if err := json.Unmarshal(data, g); err != nil {
		return nil, err
	}
	if g.Workloads == nil {
		g.Workloads = make(map[string]map[string]float64)
	}
	return g, nil
}

// checkGolden compares the run's deterministic counts with the pinned ones
// (only the golden seed is pinned), or re-pins them under -update-golden.
func checkGolden(full *fullResult, o options) {
	if o.updateGolden {
		data, _ := os.ReadFile(goldenPath)
		g, err := loadGolden(data)
		if err != nil {
			g, _ = loadGolden(nil)
		}
		g.Seed = full.Seed
		pinned := g.Workloads[full.Workload]
		if pinned == nil {
			pinned = make(map[string]float64)
			g.Workloads[full.Workload] = pinned
		}
		for k, v := range full.Counts {
			pinned[k] = v
		}
		out, _ := json.MarshalIndent(g, "", "  ")
		if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
			full.Result.Failed++
			full.Notes = append(full.Notes, "golden: "+err.Error())
		}
		return
	}
	g, err := loadGolden(goldenJSON)
	if err != nil {
		full.Result.Failed++
		full.Notes = append(full.Notes, "golden.json: "+err.Error())
		return
	}
	if g.Seed != full.Seed {
		return
	}
	for k, v := range full.Counts {
		want, pinned := g.Workloads[full.Workload][k]
		if pinned && !sameCount(v, want) {
			full.Result.Failed++
			full.Notes = append(full.Notes, fmt.Sprintf("golden: %s = %v, pinned %v", k, v, want))
		}
	}
}

// sameCount compares a deterministic count with its pinned value: integers
// exactly, ratios to a relative 1e-9 (they are sums of floats whose last
// bit may differ between architectures).
func sameCount(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// runAll runs every workload, one process each so that memory readings do
// not depend on what ran before, -runs times with consecutive seeds.
func runAll(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var set []*fullResult
	code := 0
	for _, def := range workloads {
		for i := 0; i < o.runs; i++ {
			seed := o.seed + int64(i)
			args := []string{
				"-workload", def.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
				"-trace", fmt.Sprint(o.trace), "-size", o.size, "-out", o.outDir,
			}
			if o.updateGolden {
				args = append(args, "-update-golden")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", def.name, seed, err)
				code = 1
			}
			data, err := os.ReadFile(resultPath(o.outDir, def.name, seed, o.trace))
			if err != nil {
				continue
			}
			var full fullResult
			if json.Unmarshal(data, &full) == nil {
				set = append(set, &full)
			}
		}
	}
	if o.set != "" {
		data, _ := json.MarshalIndent(set, "", " ")
		if err := os.WriteFile(o.set, data, 0o644); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	return code
}

func resultPath(dir, workload string, seed int64, trace int) string {
	return filepath.Join(dir, fmt.Sprintf("result-%s-seed%d-trace%d.json", workload, seed, trace))
}

func writeResult(dir string, full *fullResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(full, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(resultPath(dir, full.Workload, full.Seed, full.Trace), data, 0o644)
}

// printReport prints every metric by name with its unit.
func printReport(w io.Writer, full *fullResult) {
	h := full.Host
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%d size=%s\n", full.Workload, full.Seed, full.Seconds, full.Trace, full.Size)
	fmt.Fprintf(w, "# host: %s, nproc=%d, GOMAXPROCS=%d, %s, commit %s\n", h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit)
	fmt.Fprintf(w, "# repeats=%d requests=%d failed=%d latency samples=%d (%d beyond p95)\n",
		full.Repeats, full.Result.Attempted, full.Result.Failed, full.Samples, full.Beyond95)
	names := make([]string, 0, len(full.Result.Metrics))
	for name := range full.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mv := full.Result.Metrics[name]
		fmt.Fprintf(w, "%-42s %16.6g %s\n", name, mv.Value, mv.Unit)
	}
	for _, n := range full.Notes {
		fmt.Fprintln(w, "! "+n)
	}
}

func host() hostInfo {
	h := hostInfo{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if h.Commit == "unknown" {
		if c := os.Getenv("BENCH_COMMIT"); c != "" {
			h.Commit = c
		}
	}
	return h
}
