package main

// sut.go is the benchmark's only door into the system under test: every
// import of wishbone and wishbone/internal/... lives in this file, and the
// rest of the benchmark sees the system through the aliases and thin
// wrappers below. The wrappers add no behaviour — they exist so that the
// list of functions the benchmark depends on is this file's import of each
// of them (bench/README.md repeats the list). None of the APIs the ROADMAP
// plans to delete or fold is used: no NoPipeline/NoBatch/NoReplay, no
// Engine/RunLegacy, no deprecated free functions, no HostDriver/ShardHost.

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"

	"wishbone"
	"wishbone/internal/apps/eeg"
	"wishbone/internal/apps/speech"
	"wishbone/internal/core"
	"wishbone/internal/dataflow"
	"wishbone/internal/dist"
	"wishbone/internal/netsim"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
	"wishbone/internal/server"
	"wishbone/internal/solver"
	"wishbone/internal/wire"
	"wishbone/internal/wscript"
)

type (
	graph          = dataflow.Graph
	operator       = dataflow.Operator
	edge           = dataflow.Edge
	value          = dataflow.Value
	program        = dataflow.Program
	classification = dataflow.Classification

	traceInput = profile.Input
	report     = profile.Report

	platformT  = platform.Platform
	spec       = core.Spec
	assignment = core.Assignment
	deployment = wishbone.Deployment

	simConfig     = runtime.Config
	simResult     = runtime.Result
	stageTimings  = runtime.StageTimings
	session       = runtime.Session
	arrival       = runtime.Arrival
	arrivalStream = runtime.Stream

	graphSpec        = wire.GraphSpec
	traceSpec        = wire.TraceSpec
	arrivalWire      = wire.ArrivalWire
	limitsWire       = wire.LimitsWire
	profileRequest   = wire.ProfileRequest
	partitionRequest = wire.PartitionRequest
	simulateRequest  = wire.SimulateRequest
	streamRequest    = wire.SimulateStreamRequest
	reportWire       = wire.ReportWire

	serviceClient = server.Client
	serviceStats  = server.Snapshot
)

// --- applications and platforms ------------------------------------------

// app is one benchmark program: its graph, the spec a server rebuilds it
// from, and its deterministic trace generator.
type app struct {
	name  string
	graph *graph
	spec  graphSpec
	trace func(seed int64, seconds float64) []traceInput
	// pipeline is the speech app's operator chain (source first); cut k
	// places pipeline[0..k-1] on the node. Nil for other apps.
	pipeline []*operator
}

func newSpeechApp() *app {
	a := speech.New()
	return &app{
		name:     "speech",
		graph:    a.Graph,
		spec:     graphSpec{App: "speech"},
		pipeline: a.Pipeline,
		trace: func(seed int64, seconds float64) []traceInput {
			return []traceInput{a.SampleTrace(seed, seconds)}
		},
	}
}

func newEEGApp(channels int) *app {
	a := eeg.NewWithChannels(channels)
	return &app{
		name:  fmt.Sprintf("eeg%d", channels),
		graph: a.Graph,
		spec:  graphSpec{App: "eeg", Channels: channels},
		trace: a.SampleTrace,
	}
}

// newWscriptApp compiles src the way the service does. Its trace is the
// service's synthetic one for wscript graphs (a sine ramp per source,
// phase-shifted by the seed; seconds is ignored, events fixes the length),
// repeated here because the reference run needs the same inputs the server
// generates for itself.
func newWscriptApp(src string, events int) (*app, error) {
	c, err := wscript.CompileOpts(src, wscript.Options{})
	if err != nil {
		return nil, err
	}
	return &app{
		name:  "wscript",
		graph: c.Graph,
		spec:  graphSpec{App: "wscript", Source: src},
		trace: func(seed int64, _ float64) []traceInput {
			in, err := c.Inputs(events, func(_ string, i int) any {
				return math.Sin(float64(i)/8+float64(seed)) * 100
			})
			if err != nil {
				return nil
			}
			sort.Slice(in, func(a, b int) bool { return in[a].Source.ID() < in[b].Source.ID() })
			return in
		},
	}, nil
}

// cutAfter returns the speech partition with the first k pipeline stages on
// the node: 1 ships raw audio, 6 cuts after filtBank.
func (a *app) cutAfter(k int) map[int]bool {
	on := make(map[int]bool, len(a.pipeline))
	for i, op := range a.pipeline {
		on[op.ID()] = i < k
	}
	return on
}

// nodeNamespaceCut places every Node-namespace operator on the node.
func (a *app) nodeNamespaceCut() map[int]bool {
	on := make(map[int]bool)
	for _, op := range a.graph.Operators() {
		on[op.ID()] = op.NS == dataflow.NSNode
	}
	return on
}

func onNodeIDs(on map[int]bool) []int {
	var ids []int
	for id, v := range on {
		if v {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

func platformByName(name string) *platformT { return platform.ByName(name) }

// basestationGumstix is a Gumstix whose uplink absorbs 64 raw audio
// streams without congestion collapse, so the server side actually
// processes the load (the sizing BenchmarkShardedSimulate uses).
func basestationGumstix() *platformT {
	p := platform.Gumstix()
	p.Radio.BytesPerSec = 4e6
	p.Radio.CollapseBytesPerSec = 8e6
	return p
}

// --- planner (wishbone.Planner and the layers under it) ------------------

func planAuto(ctx context.Context, backend string, g *graph, in []traceInput, plat *platformT) (*deployment, error) {
	return wishbone.NewPlanner(wishbone.WithSolver(backend)).AutoPartition(ctx, g, in, plat)
}

func planProfile(ctx context.Context, g *graph, in []traceInput) (*report, error) {
	return wishbone.NewPlanner().Profile(ctx, g, in)
}

func classify(g *graph) (*classification, error) { return dataflow.Classify(g, dataflow.Permissive) }

func buildSpec(cls *classification, rep *report, plat *platformT) *spec {
	return profile.BuildSpec(cls, rep, plat)
}

// autoPartitionWith is the solving half of Planner.AutoPartition called
// directly, with the Planner's defaults (full rate first, §4.3 search to
// 0.5 %, no solver limits).
func autoPartitionWith(ctx context.Context, s *spec, backend string) (*core.AutoResult, error) {
	sv, err := solver.New(backend, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return core.AutoPartitionWith(ctx, s, 1.0, 0.005, core.Limits{}, sv)
}

// verifyAssignment checks a plan against its problem at the rate multiple
// it was solved for (the §4.3 search solves a scaled copy of the spec).
func verifyAssignment(a *assignment, s *spec, rateMultiple float64) error {
	return a.Verify(s.Scaled(rateMultiple))
}

// --- runtime --------------------------------------------------------------

func compilePartition(g *graph, onNode map[int]bool) (node, srv *program, err error) {
	return runtime.CompilePartition(g, onNode)
}

func simRun(cfg simConfig) (*simResult, error) { return runtime.Run(cfg) }

func newSession(cfg simConfig) (*session, error) { return runtime.NewSession(cfg) }

func resumeSession(cfg simConfig, snap []byte) (*session, error) {
	return runtime.ResumeSession(cfg, snap)
}

// inputStream adapts a node's periodic trace into the lazy arrival stream
// the streaming path pulls from.
func inputStream(in []traceInput, duration float64) (arrivalStream, error) {
	return runtime.InputStream(in, 1, duration)
}

// arrivalDecoder decodes raw JSON arrival values through the ingest arena,
// outside any session.
type arrivalDecoder = runtime.ArrivalDecoder

// --- dataflow programs run bare -------------------------------------------

// captureCut runs prog (a node partition) over one node's arrivals with no
// runtime around it and returns the values that left on cut edges, with
// the edge each left on.
func captureCut(prog *program, nodeID int, src *operator, events []value) (vals []value, edges []*edge) {
	inst := prog.AcquireInstance(nodeID)
	defer prog.ReleaseInstance(inst)
	inst.Boundary = func(e *edge, v value) {
		vals = append(vals, v)
		edges = append(edges, e)
	}
	for _, ev := range events {
		inst.Inject(src, ev)
	}
	return vals, edges
}

// pushServer feeds one origin's cut-edge values straight into the server
// partition in one origin-grouped batch, as sharded delivery does.
func pushServer(prog *program, origin int, e *edge, vals []value) error {
	inst := prog.AcquireInstance(origin)
	defer prog.ReleaseInstance(inst)
	return inst.PushBatch(e.To, e.ToPort, vals)
}

// batchTotals sums the programs' batch-hit counters: elements that reached
// an operator through a BatchWork dispatch, and all elements.
func batchTotals(progs ...*program) (batched, total int64) {
	for _, p := range progs {
		for _, st := range p.BatchStats() {
			batched += st.Batched
			total += st.Total
		}
	}
	return batched, total
}

// --- wire and netsim in isolation -------------------------------------------

func wireMarshal(dst []byte, v value) ([]byte, error) { return wire.AppendMarshal(dst, v) }

func wireFragmentSpan(encLen, payload int) (count, total int, err error) {
	return wire.FragmentSpan(encLen, payload)
}

func wireFragmentTo(enc []byte, seq uint16, payload int, buf []byte, frags [][]byte) ([][]byte, error) {
	return wire.FragmentTo(enc, seq, payload, buf, frags)
}

type reassembler = wire.Reassembler

func wireUnmarshal(data []byte) (value, int, error) { return wire.Unmarshal(data) }

type lossSampler = netsim.LossSampler

func newLossSampler(seed int64, nodeID int) *lossSampler {
	return netsim.NewLossSampler(netsim.NodeSeed(seed, nodeID))
}

type channel = netsim.Channel

func channelFor(p *platformT) channel { return netsim.ChannelFor(p) }

// --- service and coordinator ---------------------------------------------

// newService returns the partition service's handler and its in-process
// stats accessor.
func newService(cacheEntries int) (http.Handler, func() serviceStats, func()) {
	svc := server.New(server.Config{CacheEntries: cacheEntries})
	return svc.Handler(), svc.Stats, svc.Close
}

func newServiceClient(base string, hc *http.Client) *serviceClient {
	return server.NewClient(base, hc)
}

// reportToWire is the canonical encoding profile responses are compared in.
func reportToWire(r *report) *reportWire { return wire.NewReportWire(r) }

func resultFromWire(w *wire.ResultWire) simResult {
	return simResult{
		InputEvents: w.InputEvents, ProcessedEvents: w.ProcessedEvents,
		MsgsSent: w.MsgsSent, MsgsReceived: w.MsgsReceived,
		PayloadBytes: w.PayloadBytes, DeliveredBytes: w.DeliveredBytes,
		ServerEmits:           w.ServerEmits,
		OfferedAirBytesPerSec: w.OfferedAirBytesPerSec,
		DeliveryRatio:         w.DeliveryRatio,
		NodeCPU:               w.NodeCPU,
	}
}

// distRun runs cfg through a dist.Coordinator over the peers with default
// options (retry policy, checkpoint every window).
func distRun(ctx context.Context, peers []string, hc *http.Client, gs graphSpec, cfg simConfig) (*simResult, bool, error) {
	return dist.New(peers, hc).Run(ctx, gs, cfg)
}
