package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"

	"wishbone/internal/core"
	"wishbone/internal/dataflow"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
	"wishbone/internal/wire"
	"wishbone/internal/wvm"
)

// startServer runs a Server behind a real HTTP listener and returns a
// client for it.
func startServer(t testing.TB, cfg Config) (*Server, *Client) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, NewClient(ts.URL, ts.Client())
}

// localEntry builds the same executable graph the server elaborates from
// spec, for in-process reference runs.
func localEntry(t testing.TB, spec wire.GraphSpec) *entry {
	t.Helper()
	e, err := buildEntry(spec, wvm.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// wireBytes marshals a wire value canonically.
func wireBytes(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServerProfileParity asserts the acceptance criterion: the
// server-returned profile.Report is byte-identical to an in-process
// profile.Run, for both the EEG and speech applications.
func TestServerProfileParity(t *testing.T) {
	_, client := startServer(t, Config{})
	ctx := context.Background()
	for _, spec := range []wire.GraphSpec{
		{App: "eeg"},
		{App: "speech"},
	} {
		trace := wire.TraceSpec{Seed: 11, Seconds: 4}
		resp, err := client.Profile(ctx, wire.ProfileRequest{Graph: spec, Trace: trace})
		if err != nil {
			t.Fatalf("%s: %v", spec.App, err)
		}

		local := localEntry(t, spec)
		rep, err := profile.Run(local.graph, local.traces(traceDefaults(trace)))
		if err != nil {
			t.Fatal(err)
		}
		want := wireBytes(t, wire.NewReportWire(rep))
		got := wireBytes(t, resp.Report)
		if string(got) != string(want) {
			t.Fatalf("%s: server report differs from in-process profile.Run\nserver: %.200s\nlocal:  %.200s",
				spec.App, got, want)
		}
		if resp.GraphHash != local.key {
			t.Fatalf("%s: graph hash %s != locally computed %s", spec.App, resp.GraphHash, local.key)
		}

		// Round-trip the wire report into a full profile.Report and check
		// structural equality too (maps, zero counters, presence).
		decoded, err := resp.Report.Report(local.graph)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(decoded.OpTotal, rep.OpTotal) ||
			!reflect.DeepEqual(decoded.OpInvocations, rep.OpInvocations) ||
			!reflect.DeepEqual(decoded.OpPeak, rep.OpPeak) {
			t.Fatalf("%s: decoded report disagrees with in-process report", spec.App)
		}
	}
}

// eegOnNode places every Node-namespace operator on the node (the EEG
// app's natural cut: svm/detect/sink on the server).
func eegOnNode(g *dataflow.Graph) []int {
	var ids []int
	for _, op := range g.Operators() {
		if op.NS == dataflow.NSNode {
			ids = append(ids, op.ID())
		}
	}
	return ids
}

// TestServerSimulateParity asserts server-returned runtime.Results are
// byte-identical to in-process runtime.Run for the EEG and speech apps.
func TestServerSimulateParity(t *testing.T) {
	_, client := startServer(t, Config{})
	ctx := context.Background()

	type tc struct {
		name  string
		spec  wire.GraphSpec
		on    func(g *dataflow.Graph) []int
		nodes int
	}
	cases := []tc{
		{name: "speech", spec: wire.GraphSpec{App: "speech"},
			on:    func(g *dataflow.Graph) []int { return []int{0, 1, 2, 3, 4, 5} },
			nodes: 4},
		{name: "eeg", spec: wire.GraphSpec{App: "eeg", Channels: 2},
			on:    eegOnNode,
			nodes: 3},
	}
	for _, c := range cases {
		local := localEntry(t, c.spec)
		onIDs := c.on(local.graph)
		trace := wire.TraceSpec{Seed: 5, Seconds: 4}
		req := wire.SimulateRequest{
			Graph:    c.spec,
			Trace:    trace,
			Platform: "Gumstix",
			OnNode:   onIDs,
			Nodes:    c.nodes,
			Duration: 8,
			Seed:     42,
		}
		res, resp, err := client.SimulateResult(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}

		onNode := make(map[int]bool, local.graph.NumOperators())
		for _, op := range local.graph.Operators() {
			onNode[op.ID()] = false
		}
		for _, id := range onIDs {
			onNode[id] = true
		}
		shared := local.traces(traceDefaults(trace))
		want, err := runtime.Run(runtime.Config{
			Graph:     local.graph,
			OnNode:    onNode,
			Platform:  platform.Gumstix(),
			Nodes:     c.nodes,
			Duration:  8,
			RateScale: 1,
			Seed:      42,
			Inputs:    func(nodeID int) []profile.Input { return shared },
		})
		if err != nil {
			t.Fatal(err)
		}
		if *res != *want {
			t.Fatalf("%s: server result %+v != in-process %+v", c.name, res, want)
		}
		if string(wireBytes(t, resp.Result)) != string(wireBytes(t, resultToWire(want))) {
			t.Fatalf("%s: wire-encoded results differ", c.name)
		}
	}
}

// TestServerPartitionParity checks the partition endpoint against an
// in-process core.AutoPartition over the same profiled spec.
func TestServerPartitionParity(t *testing.T) {
	_, client := startServer(t, Config{})
	ctx := context.Background()
	spec := wire.GraphSpec{App: "speech"}
	trace := wire.TraceSpec{Seed: 3, Seconds: 3}

	resp, err := client.Partition(ctx, wire.PartitionRequest{
		Graph: spec, Trace: trace, Platform: "TMoteSky",
	})
	if err != nil {
		t.Fatal(err)
	}

	local := localEntry(t, spec)
	rep, err := profile.Run(local.graph, local.traces(traceDefaults(trace)))
	if err != nil {
		t.Fatal(err)
	}
	cls, err := dataflow.Classify(local.graph, dataflow.Permissive)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.AutoPartition(context.Background(), profile.BuildSpec(cls, rep, platform.TMoteSky()), 1.0, 0.005, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment == nil {
		t.Fatal("in-process AutoPartition found no feasible rate")
	}
	if resp.RateMultiple != res.RateMultiple {
		t.Fatalf("rate %v != in-process %v", resp.RateMultiple, res.RateMultiple)
	}
	// Solver wall-clock telemetry is inherently non-deterministic; zero it
	// on both sides before the byte comparison.
	wantWire := wire.NewAssignmentWire(local.graph, res.Assignment)
	wantWire.Stats.DiscoverTime, wantWire.Stats.ProveTime = 0, 0
	resp.Assignment.Stats.DiscoverTime, resp.Assignment.Stats.ProveTime = 0, 0
	want := wireBytes(t, wantWire)
	got := wireBytes(t, resp.Assignment)
	if string(got) != string(want) {
		t.Fatalf("assignment differs:\nserver: %s\nlocal:  %s", got, want)
	}
	// The reconstructed assignment must verify against the local spec.
	asg, err := resp.Assignment.Assignment(local.graph)
	if err != nil {
		t.Fatal(err)
	}
	spec2 := profile.BuildSpec(cls, rep, platform.TMoteSky()).Scaled(resp.RateMultiple)
	if err := asg.Verify(spec2); err != nil {
		t.Fatalf("server assignment fails verification: %v", err)
	}
}

// TestServerConcurrentTenants is the acceptance -race test: ≥8 tenants
// hammer one shared cached Program with mixed profile and simulate
// requests; all responses must agree with each other.
func TestServerConcurrentTenants(t *testing.T) {
	svc, client := startServer(t, Config{MaxJobs: 4})
	ctx := context.Background()
	spec := wire.GraphSpec{App: "speech"}
	trace := wire.TraceSpec{Seed: 9, Seconds: 3}

	// Warm the cache so every tenant shares one compiled Program.
	first, err := client.Profile(ctx, wire.ProfileRequest{Graph: spec, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	simReq := wire.SimulateRequest{
		Graph: spec, Trace: trace, Platform: "Gumstix",
		OnNode: []int{0, 1, 2, 3, 4, 5, 6, 7}, Nodes: 6, Duration: 5, Seed: 3,
	}
	firstSim, err := client.Simulate(ctx, simReq)
	if err != nil {
		t.Fatal(err)
	}

	const tenants = 10
	var wg sync.WaitGroup
	errs := make(chan error, 2*tenants)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := client.Profile(ctx, wire.ProfileRequest{Graph: spec, Trace: trace})
			if err != nil {
				errs <- err
				return
			}
			if !p.CacheHit {
				errs <- fmt.Errorf("tenant %d: warm profile request missed the cache", i)
			}
			if string(wireBytes(t, p.Report)) != string(wireBytes(t, first.Report)) {
				errs <- fmt.Errorf("tenant %d: profile diverged", i)
			}
			s, err := client.Simulate(ctx, simReq)
			if err != nil {
				errs <- err
				return
			}
			if !s.CacheHit {
				errs <- fmt.Errorf("tenant %d: warm simulate request missed the cache", i)
			}
			if *s.Result != *firstSim.Result {
				errs <- fmt.Errorf("tenant %d: simulation diverged", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	snap := svc.Stats()
	if snap.CacheHitRate <= 0 {
		t.Fatalf("cache hit rate %v, want > 0", snap.CacheHitRate)
	}
	if snap.InFlightJobs != 0 || snap.QueuedJobs != 0 {
		t.Fatalf("jobs leaked: %d in flight, %d queued", snap.InFlightJobs, snap.QueuedJobs)
	}
}

// TestServerSingleflight asserts the thundering-herd guarantee: 8 tenants
// racing on a cold cache trigger exactly one build per key (graph entry,
// profiling Program, report) instead of one per tenant.
func TestServerSingleflight(t *testing.T) {
	svc, client := startServer(t, Config{MaxJobs: 8})
	ctx := context.Background()
	spec := wire.GraphSpec{App: "speech"}
	trace := wire.TraceSpec{Seed: 2, Seconds: 2}

	const tenants = 8
	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Profile(ctx, wire.ProfileRequest{Graph: spec, Trace: trace}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := svc.Stats()
	if snap.CacheMisses != 3 {
		t.Fatalf("cache misses = %d, want exactly 3 (graph, program, report) under a thundering herd; shared=%d",
			snap.CacheMisses, snap.CacheShared)
	}
}

// TestServerAutoSimulate exercises the partition-then-simulate fallback,
// then an explicit cut, with and without the retired "engine" key.
func TestServerAutoSimulate(t *testing.T) {
	_, client := startServer(t, Config{})
	ctx := context.Background()
	req := wire.SimulateRequest{
		Graph:    wire.GraphSpec{App: "speech"},
		Trace:    wire.TraceSpec{Seed: 4, Seconds: 3},
		Platform: "TMoteSky",
		Nodes:    2,
		Duration: 5,
		Seed:     1,
	}
	auto, err := client.Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if auto.RateMultiple <= 0 || auto.RateMultiple > 1 {
		t.Fatalf("auto rate %v outside (0, 1]", auto.RateMultiple)
	}
	if auto.Result.InputEvents == 0 {
		t.Fatal("simulation offered no events")
	}

	req.OnNode = []int{0, 1, 2, 3, 4, 5}
	explicit, err := client.Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	// A body written for the two-engine API still carries an "engine" key;
	// it is an unknown field now and must not change the answer.
	var old wire.SimulateResponse
	if err := client.post(ctx, "/v1/simulate", struct {
		wire.SimulateRequest
		Engine string `json:"engine"`
	}{req, "legacy"}, &old); err != nil {
		t.Fatal(err)
	}
	if *old.Result != *explicit.Result {
		t.Fatalf("an \"engine\" key changed the result: %+v, want %+v", old.Result, explicit.Result)
	}
	if !old.CacheHit {
		t.Fatal("repeat simulation of one (graph, cut) must be served from the program cache")
	}
}

// TestServerWscript round-trips a wscript program through the service.
func TestServerWscript(t *testing.T) {
	_, client := startServer(t, Config{})
	ctx := context.Background()
	src := `
namespace Node {
  src = source("s", 20);
  doubled = iterate x in src { emit x * 2; };
}
main = doubled;
`
	spec := wire.GraphSpec{App: "wscript", Source: src}
	g, err := client.Graph(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Graph.Ops) == 0 {
		t.Fatal("wscript graph has no operators")
	}
	if _, err := client.Profile(ctx, wire.ProfileRequest{Graph: spec}); err != nil {
		t.Fatal(err)
	}
}

// TestServerWscriptElaborationBudget: tenant source that would allocate
// without bound while it elaborates — at top level, or in a state
// initializer — is a 400 from the first route that sees it, not memory
// the daemon has to find.
func TestServerWscriptElaborationBudget(t *testing.T) {
	_, client := startServer(t, Config{})
	for _, src := range []string{
		`big = Array.make(300000000, 0);
namespace Node { s = source("x", 1); }
main = iterate v in s { emit v; };`,
		`namespace Node { s = source("x", 1); }
main = iterate v in s state { a = Array.make(50000000, 0); } { emit v; };`,
	} {
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		_, err := client.Graph(context.Background(), wire.GraphSpec{App: "wscript", Source: src})
		goruntime.ReadMemStats(&after)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
			t.Fatalf("want a 400, got %v for:\n%s", err, src)
		}
		if mib := (after.TotalAlloc - before.TotalAlloc) >> 20; mib > 64 {
			t.Fatalf("the refusal allocated %d MiB for:\n%s", mib, src)
		}
	}
}

// TestServerErrors checks input validation maps to 4xx responses.
func TestServerErrors(t *testing.T) {
	_, client := startServer(t, Config{})
	ctx := context.Background()
	if _, err := client.Profile(ctx, wire.ProfileRequest{Graph: wire.GraphSpec{App: "nope"}}); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := client.Partition(ctx, wire.PartitionRequest{
		Graph: wire.GraphSpec{App: "speech"}, Platform: "NoSuchDevice",
	}); err == nil {
		t.Fatal("unknown platform accepted")
	}
	if _, err := client.Simulate(ctx, wire.SimulateRequest{
		Graph: wire.GraphSpec{App: "speech"}, Platform: "Gumstix",
		OnNode: []int{999}, Nodes: 1, Duration: 1,
	}); err == nil {
		t.Fatal("unknown operator ID accepted")
	}
}

// TestServerShutdown checks Close turns new work away while /healthz and
// stats stay up for the drain window.
func TestServerShutdown(t *testing.T) {
	svc, client := startServer(t, Config{})
	ctx := context.Background()
	if !client.Healthy(ctx) {
		t.Fatal("server not healthy before shutdown")
	}
	svc.Close()
	if _, err := client.Profile(ctx, wire.ProfileRequest{Graph: wire.GraphSpec{App: "speech"}}); err == nil {
		t.Fatal("draining server accepted new work")
	}
	if _, err := client.Stats(ctx); err != nil {
		t.Fatalf("stats unavailable during drain: %v", err)
	}
}

// TestServerEvictionRebuild pins the cache-pressure regression: derived
// values (compiled Programs, reports) capture pointers into one graph
// instance, so after the graph entry is LRU-evicted and rebuilt, stale
// derived entries must never be resolved against the new instance — the
// request must recompile and succeed, not 400 on a graph-identity
// mismatch or silently mis-index edges.
func TestServerEvictionRebuild(t *testing.T) {
	// Capacity 6, auto-partition simulate. Request 1 inserts, oldest
	// first: {graph:A, progProfile:A, report:A, progPart:A}. The eeg
	// profile inserts 3 more keys, overflowing exactly once and evicting
	// graph:A while every derived A entry survives. Request 3 rebuilds
	// the graph entry (a fresh instance); were derived keys purely
	// content-addressed it would now hit the surviving stale report and
	// partition Programs compiled from the old instance — a 400 from
	// runtime's graph-identity check, or silently mis-indexed cut edges.
	_, client := startServer(t, Config{CacheEntries: 6})
	ctx := context.Background()
	simReq := wire.SimulateRequest{
		Graph:    wire.GraphSpec{App: "speech"},
		Trace:    wire.TraceSpec{Seed: 5, Seconds: 2},
		Platform: "Gumstix",
		Nodes:    2, Duration: 4, Seed: 8,
	}
	first, err := client.Simulate(ctx, simReq)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Profile(ctx, wire.ProfileRequest{
		Graph: wire.GraphSpec{App: "eeg", Channels: 1},
	}); err != nil {
		t.Fatal(err)
	}
	again, err := client.Simulate(ctx, simReq)
	if err != nil {
		t.Fatalf("simulate after graph eviction: %v", err)
	}
	if *again.Result != *first.Result {
		t.Fatalf("post-eviction result diverged: %+v vs %+v", again.Result, first.Result)
	}
}

// TestServerIntegration is the end-to-end smoke CI runs: a full
// profile → partition → simulate conversation over HTTP, asserting
// in-process parity at every step and a warm cache at the end.
func TestServerIntegration(t *testing.T) {
	svc, client := startServer(t, Config{CacheEntries: 64, MaxJobs: 2})
	ctx := context.Background()
	spec := wire.GraphSpec{App: "speech"}
	trace := wire.TraceSpec{Seed: 7, Seconds: 3}

	prof, err := client.Profile(ctx, wire.ProfileRequest{Graph: spec, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	part, err := client.Partition(ctx, wire.PartitionRequest{Graph: spec, Trace: trace, Platform: "TMoteSky"})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := client.Simulate(ctx, wire.SimulateRequest{
		Graph: spec, Trace: trace, Platform: "TMoteSky",
		OnNode: part.Assignment.OnNode, RateScale: part.RateMultiple,
		Nodes: 2, Duration: 5, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}

	local := localEntry(t, spec)
	rep, err := profile.Run(local.graph, local.traces(traceDefaults(trace)))
	if err != nil {
		t.Fatal(err)
	}
	if string(wireBytes(t, prof.Report)) != string(wireBytes(t, wire.NewReportWire(rep))) {
		t.Fatal("profile parity broken over the integration path")
	}
	onNode := make(map[int]bool)
	for _, op := range local.graph.Operators() {
		onNode[op.ID()] = false
	}
	for _, id := range part.Assignment.OnNode {
		onNode[id] = true
	}
	shared := local.traces(traceDefaults(trace))
	want, err := runtime.Run(runtime.Config{
		Graph: local.graph, OnNode: onNode, Platform: platform.TMoteSky(),
		Nodes: 2, Duration: 5, RateScale: part.RateMultiple, Seed: 12,
		Inputs: func(nodeID int) []profile.Input { return shared },
	})
	if err != nil {
		t.Fatal(err)
	}
	got := wireToResult(sim.Result)
	if *got != *want {
		t.Fatalf("simulate parity broken: server %+v, local %+v", got, want)
	}
	if snap := svc.Stats(); snap.CacheHits == 0 {
		t.Fatal("integration conversation produced no cache hits")
	}
}

// TestServerSolverSelection exercises the partition endpoint's solver
// field end to end: every backend answers with a verifiable cut stamped
// with the producing backend's name, racing returns byte-identical
// results to exact (ties go to exact), unknown names are 400s, and the
// per-backend win/latency metrics show up in the stats snapshot.
func TestServerSolverSelection(t *testing.T) {
	svc, client := startServer(t, Config{})
	ctx := context.Background()
	spec := wire.GraphSpec{App: "speech"}
	trace := wire.TraceSpec{Seed: 3, Seconds: 3}
	local := localEntry(t, spec)

	ask := func(solver string) *wire.PartitionResponse {
		t.Helper()
		resp, err := client.Partition(ctx, wire.PartitionRequest{
			Graph: spec, Trace: trace, Platform: "TMoteSky", Solver: solver,
		})
		if err != nil {
			t.Fatalf("%s: %v", solver, err)
		}
		asg, err := resp.Assignment.Assignment(local.graph)
		if err != nil {
			t.Fatalf("%s: %v", solver, err)
		}
		rep, err := profile.Run(local.graph, local.traces(traceDefaults(trace)))
		if err != nil {
			t.Fatal(err)
		}
		cls, err := dataflow.Classify(local.graph, dataflow.Permissive)
		if err != nil {
			t.Fatal(err)
		}
		vspec := profile.BuildSpec(cls, rep, platform.TMoteSky()).Scaled(resp.RateMultiple)
		if err := asg.Verify(vspec); err != nil {
			t.Fatalf("%s: served assignment fails verification: %v", solver, err)
		}
		return resp
	}

	exact := ask("exact")
	if exact.Assignment.Solver != "exact" {
		t.Fatalf("solver stamp = %q, want exact", exact.Assignment.Solver)
	}
	for _, name := range []string{"lagrangian", "greedy"} {
		resp := ask(name)
		if resp.Assignment.Solver != name {
			t.Fatalf("solver stamp = %q, want %s", resp.Assignment.Solver, name)
		}
	}
	raced := ask("race")
	if raced.Assignment.Solver != "exact" {
		t.Fatalf("race winner stamp = %q, want exact (ties go to exact)", raced.Assignment.Solver)
	}
	za, zb := *exact.Assignment, *raced.Assignment
	za.Stats.DiscoverTime, za.Stats.ProveTime = 0, 0
	zb.Stats.DiscoverTime, zb.Stats.ProveTime = 0, 0
	if string(wireBytes(t, za)) != string(wireBytes(t, zb)) {
		t.Fatalf("raced assignment differs from exact:\n race %s\nexact %s",
			wireBytes(t, zb), wireBytes(t, za))
	}

	if _, err := client.Partition(ctx, wire.PartitionRequest{
		Graph: spec, Trace: trace, Platform: "TMoteSky", Solver: "simplex-of-doom",
	}); err == nil {
		t.Fatal("unknown solver accepted")
	}

	stats := svc.Stats()
	for _, name := range []string{"exact", "lagrangian", "greedy"} {
		s, ok := stats.Solvers[name]
		if !ok || s.Runs == 0 {
			t.Fatalf("stats missing solver %q: %+v", name, stats.Solvers)
		}
	}
	if stats.Solvers["exact"].Wins == 0 {
		t.Fatal("exact should have recorded wins")
	}
}

// spaces is an endless run of JSON whitespace: a body the decoder must keep
// reading, generated without the test holding it.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// postRaw posts body to a route path and returns the typed error the
// service answered with (nil on 200).
func postRaw(t *testing.T, client *Client, path string, body io.Reader) *APIError {
	t.Helper()
	resp, err := client.http.Post(client.base+path, "application/json", body)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	var apiErr *APIError
	if !errors.As(apiError(resp), &apiErr) {
		t.Fatalf("POST %s: non-200 without an APIError", path)
	}
	return apiErr
}

// TestServerBodyLimit: a JSON value past maxBodyBytes is refused with a
// typed 413 instead of being buffered without bound — a plain route's
// whole body, a streaming route's header, and a single arrival inside an
// otherwise unbounded stream — and the server keeps answering.
func TestServerBodyLimit(t *testing.T) {
	_, client := startServer(t, Config{})
	e := localEntry(t, wire.GraphSpec{App: "speech"})
	src := e.graph.Sources()[0].ID()
	simHeader := fmt.Sprintf(`{"graph":{"app":"speech"},"platform":"TMoteSky","onNode":[%d],"nodes":1,"duration":2}`, src)
	const profHeader = `{"graph":{"app":"speech"}}`
	// The decoder reads ahead of the value it is on, so the padding
	// overshoots the budget by more than any read-ahead it can hold.
	pad := func() io.Reader { return io.LimitReader(spaces{}, maxBodyBytes+64<<10) }
	for _, tc := range []struct{ name, path, prefix string }{
		{"plain", "/v1/simulate", ""},
		{"simulate-stream-header", "/v1/simulate/stream", `{"graph":`},
		{"profile-stream-header", "/v1/profile/stream", `{"graph":`},
		{"simulate-stream-arrival", "/v1/simulate/stream", simHeader + `{"arrivals":[{"node":0,`},
		{"profile-stream-arrival", "/v1/profile/stream", profHeader + `{"arrivals":[{"node":0,`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			apiErr := postRaw(t, client, tc.path, io.MultiReader(strings.NewReader(tc.prefix), pad()))
			if apiErr == nil || apiErr.StatusCode != http.StatusRequestEntityTooLarge || apiErr.Code != "body_too_large" {
				t.Fatalf("over-limit body: want typed 413 body_too_large, got %v", apiErr)
			}
			if _, err := client.Simulate(context.Background(), wire.SimulateRequest{
				Graph: wire.GraphSpec{App: "speech"}, Platform: "TMoteSky", OnNode: []int{src}, Nodes: 1, Duration: 2,
			}); err != nil {
				t.Fatalf("server did not answer after refusing an over-limit body: %v", err)
			}
		})
	}

	// The budget is per value, not per stream: two arrivals that each stay
	// under it but together exceed it are both ingested.
	frame := wireBytes(t, e.traces(wire.TraceSpec{Seed: 1, Seconds: 2})[0].Events[0])
	arrival := func(at float64) io.Reader {
		return io.MultiReader(strings.NewReader(`{"node":0,`), io.LimitReader(spaces{}, maxBodyBytes*5/8),
			strings.NewReader(fmt.Sprintf(`"t":%g,"source":%d,"type":"i16s","v":%s}`, at, src, frame)))
	}
	if apiErr := postRaw(t, client, "/v1/simulate/stream", io.MultiReader(
		strings.NewReader(simHeader+`{"arrivals":[`), arrival(0), strings.NewReader(","), arrival(0.5),
		strings.NewReader("]}"))); apiErr != nil {
		t.Fatalf("two under-limit arrivals in an over-limit stream: %v", apiErr)
	}
}

// TestServerRouteTable walks the table New registers, so a route cannot be
// added without these properties: a malformed body is a 400, a draining
// server answers 503 on every slot-holding route (and still serves the
// slot-free ones), and each request — failed or not — is counted exactly
// once under the route's own /v1/stats key.
func TestServerRouteTable(t *testing.T) {
	svc, client := startServer(t, Config{})
	delta := func(t *testing.T, rt *route, do func()) {
		t.Helper()
		before := svc.Stats().Endpoints[rt.metric]
		do()
		after := svc.Stats().Endpoints[rt.metric]
		if after.Requests != before.Requests+1 || after.Errors != before.Errors+1 {
			t.Fatalf("%s: stats moved by requests %+d errors %+d, want +1 +1",
				rt.metric, after.Requests-before.Requests, after.Errors-before.Errors)
		}
	}
	path := func(rt *route) string { return strings.TrimPrefix(rt.pattern, "POST ") }
	seen := make(map[string]bool)
	for i := range routes {
		rt := &routes[i]
		if seen[rt.metric] {
			t.Fatalf("two routes share the stats key %q", rt.metric)
		}
		seen[rt.metric] = true
		t.Run(rt.metric+"/malformed", func(t *testing.T) {
			delta(t, rt, func() {
				if apiErr := postRaw(t, client, path(rt), strings.NewReader(`{"graph":`)); apiErr == nil || apiErr.StatusCode != http.StatusBadRequest {
					t.Fatalf("malformed JSON: want 400, got %v", apiErr)
				}
			})
		})
	}
	svc.Close()
	for i := range routes {
		rt := &routes[i]
		t.Run(rt.metric+"/closed", func(t *testing.T) {
			delta(t, rt, func() {
				apiErr := postRaw(t, client, path(rt), strings.NewReader(`{}`))
				if apiErr == nil {
					t.Fatal("empty request answered 200")
				}
				if closed := apiErr.StatusCode == http.StatusServiceUnavailable; closed != rt.slot {
					t.Fatalf("draining server: slot=%v route answered %v", rt.slot, apiErr)
				}
			})
		})
	}
}
