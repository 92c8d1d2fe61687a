// Package profile executes a dataflow graph on sample input traces and
// measures what the partitioner needs: per-operator CPU cost on every
// target platform, and per-edge data rates (paper §3).
//
// The paper runs instrumented code on real devices or a cycle-accurate
// simulator and collects timestamps over a serial port. Here the operators'
// work functions record abstract operation counts (internal/cost) during a
// single in-process execution, and per-platform cycle tables
// (internal/platform) convert those counts into device time — one profiling
// run prices every platform at once, which is also how the platform-
// independent parts of the paper's profiler work ("executing them directly
// within Scheme during compilation", §3).
package profile

import (
	"fmt"

	"wishbone/internal/core"
	"wishbone/internal/cost"
	"wishbone/internal/dataflow"
	"wishbone/internal/platform"
)

// Input is one source operator's sample trace.
type Input struct {
	// Source is the source operator the events are injected at.
	Source *dataflow.Operator
	// Events are the trace elements, in arrival order.
	Events []dataflow.Value
	// Rate is the source's full-rate event frequency in events/second
	// (e.g. 40 frames/s for 8 kHz audio in 200-sample windows).
	Rate float64
}

// Report is the result of profiling a graph against sample traces.
type Report struct {
	Graph *dataflow.Graph

	// Seconds is the sampled-time span the traces represent (max over
	// inputs of len(Events)/Rate).
	Seconds float64

	// OpTotal accumulates each operator's operation counts over the whole
	// run; OpInvocations counts work-function invocations; OpPeak is the
	// single costliest invocation (by total operation count).
	OpTotal       map[int]*cost.Counter
	OpInvocations map[int]int
	OpPeak        map[int]*cost.Counter

	// EdgeBytes and EdgeElems total the traffic on each edge; EdgePeak is
	// the largest bytes carried by an edge for a single injected event.
	EdgeBytes map[*dataflow.Edge]int64
	EdgeElems map[*dataflow.Edge]int64
	EdgePeak  map[*dataflow.Edge]int64
}

// Run profiles the graph by injecting every input trace, interleaved by
// event index (sources advance together, as synchronized sensors do).
//
// Profiling executes through the compiled engine (dataflow.Compile): the
// graph is lowered once into a Program and every trace event runs against a
// single Instance with dense per-operator counters and in-engine edge
// accounting. The package's tests hold it to the report the reference
// tree-walking Executor produces (RunReference, export_test.go).
func Run(g *dataflow.Graph, inputs []Input) (*Report, error) {
	prog, err := CompileForProfiling(g)
	if err != nil {
		return nil, err
	}
	return RunProgram(prog, inputs)
}

// CompileForProfiling lowers g into the Program Run executes: the whole
// graph, with dense per-operator counters and in-engine edge accounting.
// The Program is immutable and shareable; a long-running service compiles
// it once per graph and serves every profile request from it (one fresh
// Instance per request).
func CompileForProfiling(g *dataflow.Graph) (*dataflow.Program, error) {
	return dataflow.Compile(g, dataflow.CompileOptions{
		CountOps:     true,
		MeasureEdges: true,
	})
}

// RunProgram profiles through an already-compiled Program (from
// CompileForProfiling). Run is equivalent to CompileForProfiling followed
// by RunProgram; the reports are identical.
func RunProgram(prog *dataflow.Program, inputs []Input) (*Report, error) {
	rep, _, err := RunProgramInstance(prog, inputs)
	return rep, err
}

// RunProgramInstance is RunProgram exposing the Instance the trace executed
// on, so callers can read per-instance operator state afterwards (e.g.
// values a sink retained).
func RunProgramInstance(prog *dataflow.Program, inputs []Input) (*Report, *dataflow.Instance, error) {
	opts := prog.Options()
	if !opts.CountOps || !opts.MeasureEdges {
		return nil, nil, fmt.Errorf("profile: program was not compiled with CompileForProfiling")
	}
	g := prog.Graph()
	if prog.NumScheduled() != g.NumOperators() {
		return nil, nil, fmt.Errorf("profile: program excludes operators; profiling needs the whole graph")
	}
	rep, maxEvents, err := newReport(g, inputs)
	if err != nil {
		return nil, nil, err
	}
	inst := prog.NewInstance(0)
	for i := 0; i < maxEvents; i++ {
		for _, in := range inputs {
			if i >= len(in.Events) {
				continue
			}
			inst.Inject(in.Source, in.Events[i])
			inst.EndEvent()
		}
	}
	for _, op := range g.Operators() {
		id := op.ID()
		rep.OpTotal[id].AddCounter(inst.OpTotal(id))
		rep.OpPeak[id].AddCounter(inst.OpPeak(id))
		if n := inst.Invocations(id); n > 0 {
			rep.OpInvocations[id] = n
		}
	}
	for ei, e := range g.Edges() {
		bytes, elems, peak, seen := inst.EdgeStats(ei)
		if seen {
			rep.EdgeBytes[e] = bytes
			rep.EdgeElems[e] = elems
		}
		if peak > 0 {
			rep.EdgePeak[e] = peak
		}
	}
	return rep, inst, nil
}

// newReport validates the profiling inputs and returns an empty report plus
// the longest trace length.
func newReport(g *dataflow.Graph, inputs []Input) (*Report, int, error) {
	if err := g.Validate(); err != nil {
		return nil, 0, err
	}
	if len(inputs) == 0 {
		return nil, 0, fmt.Errorf("profile: no inputs")
	}
	rep := &Report{
		Graph:         g,
		OpTotal:       make(map[int]*cost.Counter),
		OpInvocations: make(map[int]int),
		OpPeak:        make(map[int]*cost.Counter),
		EdgeBytes:     make(map[*dataflow.Edge]int64),
		EdgeElems:     make(map[*dataflow.Edge]int64),
		EdgePeak:      make(map[*dataflow.Edge]int64),
	}
	maxEvents := 0
	for _, in := range inputs {
		if in.Source == nil || g.ByID(in.Source.ID()) != in.Source {
			return nil, 0, fmt.Errorf("profile: input source not in graph")
		}
		if in.Rate <= 0 {
			return nil, 0, fmt.Errorf("profile: input source %s has no rate", in.Source)
		}
		if sec := float64(len(in.Events)) / in.Rate; sec > rep.Seconds {
			rep.Seconds = sec
		}
		if len(in.Events) > maxEvents {
			maxEvents = len(in.Events)
		}
	}
	if rep.Seconds == 0 {
		return nil, 0, fmt.Errorf("profile: empty traces")
	}
	for _, op := range g.Operators() {
		rep.OpTotal[op.ID()] = &cost.Counter{}
		rep.OpPeak[op.ID()] = &cost.Counter{}
	}
	return rep, maxEvents, nil
}

// CPUCosts prices every operator on platform p, as fractions of the
// platform's CPU at the profiled input rate: mean = total device-seconds /
// trace-seconds; peak extrapolates the costliest single invocation to the
// operator's invocation rate.
func (r *Report) CPUCosts(p *platform.Platform) map[int]core.OpCost {
	out := make(map[int]core.OpCost, len(r.OpTotal))
	for id, total := range r.OpTotal {
		mean := p.Seconds(total) / r.Seconds
		peak := mean
		if inv := r.OpInvocations[id]; inv > 0 {
			rate := float64(inv) / r.Seconds
			peak = p.Seconds(r.OpPeak[id]) * rate
		}
		if peak < mean {
			peak = mean
		}
		out[id] = core.OpCost{Mean: mean, Peak: peak}
	}
	return out
}

// Bandwidths returns each edge's mean and peak data rate in bytes/s at the
// profiled input rate.
func (r *Report) Bandwidths() map[*dataflow.Edge]core.EdgeCost {
	out := make(map[*dataflow.Edge]core.EdgeCost, len(r.EdgeBytes))
	for _, e := range r.Graph.Edges() {
		mean := float64(r.EdgeBytes[e]) / r.Seconds
		// Peak: the heaviest single event at the event rate of this edge's
		// traffic (approximated by the source event cadence).
		elems := r.EdgeElems[e]
		peak := mean
		if elems > 0 {
			perEvent := float64(r.EdgePeak[e])
			eventsPerSec := float64(elems) / r.Seconds
			if v := perEvent * eventsPerSec; v > peak {
				peak = v
			}
		}
		out[e] = core.EdgeCost{Mean: mean, Peak: peak}
	}
	return out
}

// OpSeconds returns operator id's total device time on p divided by its
// invocation count — the per-invocation execution time Figure 7 plots.
func (r *Report) OpSeconds(p *platform.Platform, id int) float64 {
	inv := r.OpInvocations[id]
	if inv == 0 {
		return 0
	}
	return p.Seconds(r.OpTotal[id]) / float64(inv)
}

// BuildSpec assembles a partitioning problem from this report for the given
// platform: CPU budget 1.0 (the whole device), network budget and objective
// coefficients from the platform's radio and energy model.
func BuildSpec(cls *dataflow.Classification, r *Report, p *platform.Platform) *core.Spec {
	return &core.Spec{
		Graph:     r.Graph,
		Class:     cls,
		CPU:       r.CPUCosts(p),
		Bandwidth: r.Bandwidths(),
		CPUBudget: 1.0,
		NetBudget: p.Radio.BytesPerSec,
		Alpha:     p.Alpha,
		Beta:      p.Beta,
	}
}
