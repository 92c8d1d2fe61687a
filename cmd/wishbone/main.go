// Command wishbone compiles a WaveScript-like program (see
// internal/wscript), profiles it on synthetic input, partitions it for a
// target platform, and reports the result — optionally emitting the §3
// GraphViz visualization.
//
// Usage:
//
//	wishbone -src prog.ws [-platform TMoteSky] [-mode permissive]
//	         [-events 64] [-dot out.dot] [-maxrate]
//	         [-solver exact|lagrangian|greedy|race]
//	         [-server http://host:9090]
//	         [-simulate N] [-simseconds S] [-shards K] [-stream]
//	         [-hosts url1,url2,...] [-checkpoint W]
//	         [-replan] [-replan-window S]
//	         [-churn meanUp[,meanDown]] [-burst pGB,pBG,factor]
//	         [-scenario-seed N]
//
// -churn and -burst inject failure models into the simulation
// (internal/netsim): node churn with exponential MTTF/MTTR (MeanDown
// omitted or 0 = permanent crashes) and a Gilbert–Elliott bursty-loss
// channel multiplying the delivery ratio by factor during bursts. Both
// are pure functions of -scenario-seed, so a scenario run is exactly
// reproducible — and byte-identical however it is placed (local,
// -shards, -hosts, -replan).
//
// -replan attaches the online control plane to the streaming simulation:
// each ingestion window's observed load folds into a decaying profile,
// and when it drifts past the policy threshold the partition is re-solved
// with -solver at the observed multiple and operator state relocates
// mid-stream (results stay deterministic for a fixed input). With -hosts
// the coordinator runs the same loop over the shard hosts: a re-plan
// freezes them, migrates their snapshots onto the new cut and re-opens
// them (dist.Coordinator.RunControlled).
//
// With -simulate N, the chosen partition is additionally deployed on a
// simulated N-node network (§7.3): each node runs the node partition
// against the synthetic trace, the shared channel loses packets under
// load, and the server replays deliveries — printing input-processed,
// messages-received and goodput percentages. -shards splits the
// server-side delivery loop by origin node (byte-identical results);
// -stream generates the trace lazily and feeds it in bounded windows
// (constant memory in the simulated span). -hosts places the
// simulation's origin shards across running wbserved instances via the
// /v1/shard protocol (internal/dist),
// falling back to local execution when the cut has global server state
// the origin split cannot express. Distributed runs are fault-tolerant:
// shard RPCs retry transient errors, hosts checkpoint every -checkpoint
// window boundaries (default every boundary; negative disables
// recovery), and a host that dies mid-run re-opens on a surviving peer
// from its last checkpoint — the result stays byte-identical to the
// uninterrupted run (docs/fault-tolerance.md). wscript work functions
// keep all state in engine state slots, so script simulations
// parallelize, shard, and distribute exactly like the built-in
// applications.
//
// Sources in the program are fed a synthetic ramp signal; real deployments
// would substitute recorded traces (profiling only needs representative
// rate/shape, §1).
//
// With -server, the program text is submitted to a running wbserved
// instance instead of being compiled and profiled in process: the server
// re-elaborates the graph, serves the partition from its Program cache,
// and this command prints the same per-operator placement table.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"wishbone/internal/core"
	"wishbone/internal/dataflow"
	"wishbone/internal/dist"
	"wishbone/internal/netsim"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
	"wishbone/internal/server"
	"wishbone/internal/solver"
	"wishbone/internal/viz"
	"wishbone/internal/wire"
	"wishbone/internal/wscript"
)

func main() {
	srcPath := flag.String("src", "", "wscript source file (required)")
	platName := flag.String("platform", "TMoteSky", "target platform name")
	modeName := flag.String("mode", "permissive", "stateful relocation mode: conservative|permissive")
	events := flag.Int("events", 64, "synthetic sample events per source for profiling")
	window := flag.Int("window", 0, "feed each source windows of N samples instead of scalars")
	dotPath := flag.String("dot", "", "write a GraphViz visualization here")
	maxrate := flag.Bool("maxrate", false, "if infeasible, binary-search the max sustainable rate")
	solverName := flag.String("solver", "exact", "solver backend: exact|lagrangian|greedy|race (all raced, best feasible wins)")
	serverURL := flag.String("server", "", "partition-service base URL; when set, requests go to wbserved instead of running in process")
	simNodes := flag.Int("simulate", 0, "deploy the chosen partition on a simulated N-node network")
	simSeconds := flag.Float64("simseconds", 30, "simulated deployment duration in seconds")
	shards := flag.Int("shards", 0, "server-side delivery shards for the simulation (0/1 = sequential)")
	stream := flag.Bool("stream", false, "feed the simulation trace through streaming ingestion (bounded windows, constant memory)")
	replan := flag.Bool("replan", false, "attach the online control loop to the streaming simulation: detect load drift and re-partition mid-stream with -solver (requires -stream)")
	replanWindow := flag.Float64("replan-window", 2, "ingestion window in simulated seconds for -replan drift detection")
	hosts := flag.String("hosts", "", "comma-separated wbserved base URLs; the simulation's origin shards are placed across them")
	checkpoint := flag.Int("checkpoint", 0, "with -hosts, windows per host checkpoint for failure recovery (0 = every window boundary, negative = disable recovery)")
	churnSpec := flag.String("churn", "", "inject node churn into the simulation: meanUp[,meanDown] mean seconds alive/down (meanDown 0 or omitted = permanent crashes)")
	burstSpec := flag.String("burst", "", "inject Gilbert–Elliott bursty loss: pGoodBad,pBadGood,badFactor (per-window transition probabilities, delivery-ratio multiplier during bursts)")
	scenarioSeed := flag.Int64("scenario-seed", 1, "seed for the -churn/-burst failure schedules")
	flag.Parse()

	if *srcPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*srcPath)
	if err != nil {
		log.Fatal(err)
	}
	plat := platform.ByName(*platName)
	if plat == nil {
		log.Fatalf("unknown platform %q (try TMoteSky, NokiaN80, iPhone, Gumstix, MerakiMini, VoxNet)", *platName)
	}
	mode := dataflow.Permissive
	if *modeName == "conservative" {
		mode = dataflow.Conservative
	}
	if *serverURL != "" {
		// The remote API profiles with its own engine and scalar synthetic
		// traces and returns no graph artifacts; refuse flags it cannot
		// honor rather than silently producing different results.
		if *simNodes > 0 {
			log.Fatal("-simulate is not supported with -server (use the /v1/simulate endpoints)")
		}
		if *window > 0 {
			log.Fatal("-window is not supported with -server (the service profiles scalar traces)")
		}
		if *dotPath != "" {
			log.Fatal("-dot is not supported with -server")
		}
		if *maxrate {
			fmt.Println("note: -maxrate is implied with -server (the service always falls back to the rate search)")
		}
		runRemote(*serverURL, string(src), *platName, *modeName, *solverName, *events)
		return
	}

	// This command only prints Result- and Report-derived stats, never
	// sink values, so the sink stays stateless (no RetainOutputs) and the
	// graph stays shardable and distributable.
	compiled, err := wscript.CompileOpts(string(src), wscript.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %s: %d operators, %d edges, %d source(s)\n",
		*srcPath, compiled.Graph.NumOperators(), compiled.Graph.NumEdges(), len(compiled.Sources))

	// Synthetic profiling input: a slow sine ramp per source, as scalars or
	// as sample windows depending on -window.
	inputs, err := compiled.Inputs(*events, func(name string, i int) any {
		if *window <= 0 {
			return math.Sin(float64(i)/8) * 100
		}
		w := make([]float64, *window)
		for k := range w {
			w[k] = math.Sin(float64(i**window+k)/8) * 100
		}
		return w
	})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := profile.Run(compiled.Graph, inputs)
	if err != nil {
		log.Fatal(err)
	}
	cls, err := dataflow.Classify(compiled.Graph, mode)
	if err != nil {
		log.Fatal(err)
	}
	spec := profile.BuildSpec(cls, rep, plat)

	ctx := context.Background()
	sv, err := solver.New(*solverName, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	asg, sstats, err := sv.Solve(ctx, spec, core.Limits{})
	rate := 1.0
	if err != nil {
		if !core.IsInfeasible(err) {
			log.Fatal(err)
		}
		if !*maxrate {
			log.Fatalf("no feasible partition on %s at full rate; rerun with -maxrate", plat.Name)
		}
		res, err := core.MaxRateWith(ctx, spec, 1, 0.005, core.Limits{}, sv)
		if err != nil {
			log.Fatal(err)
		}
		if res.Rate <= 0 {
			log.Fatalf("no feasible partition at any rate on %s", plat.Name)
		}
		asg, rate = res.Assignment, res.Rate
		fmt.Printf("full rate infeasible; max sustainable rate = %.3f×\n", rate)
	} else if *solverName != core.SolverExact {
		// Which backend actually answered, and how tight is its bound?
		gap := "no bound"
		if asg.Stats.Gap >= 0 {
			gap = fmt.Sprintf("gap ≤ %.2f%%", 100*asg.Stats.Gap)
		}
		fmt.Printf("solver %s answered in %.0f ms (%s)\n",
			asg.Stats.Solver, 1000*sstats.Seconds, gap)
		for _, sub := range sstats.Sub {
			state := "lost"
			if sub.Winner {
				state = "won"
			}
			if sub.Err != "" {
				state = "failed"
			}
			fmt.Printf("  raced %-11s %7.0f ms  %s\n", sub.Backend, 1000*sub.Seconds, state)
		}
	}

	fmt.Printf("partition on %s (rate ×%.3f): node CPU %.1f%%, radio %.0f B/s, %d/%d operators on node\n",
		plat.Name, rate, 100*asg.CPULoad, asg.NetLoad,
		asg.NodeOperatorCount(), compiled.Graph.NumOperators())
	for _, op := range compiled.Graph.Operators() {
		side := "server"
		if asg.OnNode[op.ID()] {
			side = "node"
		}
		fmt.Printf("  %-24s %s\n", op.Name, side)
	}

	if *dotPath != "" {
		dot := viz.DOT(compiled.Graph, viz.Options{
			Title:     fmt.Sprintf("%s on %s", *srcPath, plat.Name),
			CPU:       spec.CPU,
			OnNode:    asg.OnNode,
			Bandwidth: spec.Bandwidth,
		})
		if err := os.WriteFile(*dotPath, []byte(dot), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *dotPath)
	}

	scenario, err := parseScenario(*churnSpec, *burstSpec, *scenarioSeed)
	if err != nil {
		log.Fatal(err)
	}

	if *simNodes > 0 {
		timings := &runtime.StageTimings{}
		cfg := runtime.Config{
			Graph:     compiled.Graph,
			OnNode:    asg.OnNode,
			Platform:  plat,
			Nodes:     *simNodes,
			Duration:  *simSeconds,
			RateScale: rate,
			Seed:      1,
			Shards:    *shards,
			Timings:   timings,
			Scenario:  scenario,
		}
		if *stream {
			cfg.ArrivalSource = func(nodeID int) (runtime.Stream, error) {
				return runtime.InputStream(inputs, rate, *simSeconds)
			}
		} else {
			cfg.Inputs = func(nodeID int) []profile.Input { return inputs }
		}
		mode := "batch"
		if *stream {
			mode = "streaming"
		}
		// One coordinator for every placement: no -hosts means no peers,
		// and a coordinator without peers runs locally.
		var peers []string
		for _, u := range strings.Split(*hosts, ",") {
			if u = strings.TrimSpace(u); u != "" {
				peers = append(peers, u)
			}
		}
		coord := dist.NewWithOptions(peers, dist.Options{CheckpointEvery: *checkpoint})
		graphSpec := wire.GraphSpec{App: "wscript", Source: string(src)}
		var res *runtime.Result
		var distributed bool
		if *replan {
			if !*stream {
				log.Fatal("-replan requires -stream (drift detection rides the ingestion windows)")
			}
			cfg.WindowSeconds = *replanWindow
			var events []runtime.ReplanEvent
			res, events, distributed, err = coord.RunControlled(ctx, graphSpec, cfg,
				runtime.ReplanPolicy{}, 0, replanPlanner(ctx, spec.Scaled(rate), sv))
			if err != nil {
				log.Fatal(err)
			}
			printReplans(events)
			mode = "streaming+replan"
		} else {
			res, distributed, err = coord.Run(ctx, graphSpec, cfg)
			if err != nil {
				log.Fatal(err)
			}
		}
		switch {
		case distributed && *replan:
			fmt.Printf("control loop: coordinated across %d host(s)\n", len(peers))
		case distributed:
			mode = fmt.Sprintf("distributed across %d host(s)", len(peers))
		case *hosts != "":
			fmt.Println("note: partition not distributable (global server state) or no usable peers; ran locally")
		}
		fmt.Printf("simulated %d node(s) for %.0fs (%s, %d shard(s)): input %.1f%%, msgs %.1f%%, goodput %.1f%%, node CPU %.1f%%\n",
			*simNodes, *simSeconds, mode, *shards,
			res.PercentInputProcessed(), res.PercentMsgsReceived(), res.Goodput(), 100*res.NodeCPU)
		if !distributed {
			fmt.Printf("stages: node %.0fms, delivery %.0fms, wall %.0fms\n",
				1e3*timings.NodeSeconds(), 1e3*timings.DeliverySeconds(), 1e3*timings.WallSeconds())
		}
	}
}

// parseScenario builds the failure-injection scenario from the -churn
// and -burst flag values (comma-separated floats); both empty means no
// scenario.
func parseScenario(churn, burst string, seed int64) (*netsim.Scenario, error) {
	if churn == "" && burst == "" {
		return nil, nil
	}
	fields := func(flag, s string, min, max int) ([]float64, error) {
		parts := strings.Split(s, ",")
		if len(parts) < min || len(parts) > max {
			return nil, fmt.Errorf("%s wants %d to %d comma-separated numbers, got %q", flag, min, max, s)
		}
		vals := make([]float64, 0, len(parts))
		for _, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad number %q", flag, p)
			}
			vals = append(vals, v)
		}
		return vals, nil
	}
	sc := &netsim.Scenario{}
	if churn != "" {
		v, err := fields("-churn", churn, 1, 2)
		if err != nil {
			return nil, err
		}
		c := &netsim.Churn{Seed: seed, MeanUp: v[0]}
		if len(v) > 1 {
			c.MeanDown = v[1]
		}
		sc.Churn = c
	}
	if burst != "" {
		v, err := fields("-burst", burst, 3, 3)
		if err != nil {
			return nil, err
		}
		sc.Burst = &netsim.Burst{Seed: seed, PGoodBad: v[0], PBadGood: v[1], BadFactor: v[2]}
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return sc, nil
}

// replanPlanner is the control loop's re-solve: when the folded window
// load drifts past the policy threshold for the hysteresis interval, the
// partition is re-solved with the chosen backend at the observed load
// multiple, and operator state relocates at the window boundary.
func replanPlanner(ctx context.Context, base *core.Spec, sv solver.Solver) runtime.Planner {
	return func(multiple float64) (*runtime.Plan, error) {
		res, err := core.AutoPartitionWith(ctx, base, multiple, 0.005, core.Limits{}, sv)
		if err != nil || res.Assignment == nil {
			return nil, nil // keep the incumbent cut
		}
		return &runtime.Plan{OnNode: res.Assignment.OnNode, Solver: res.Assignment.Stats.Solver}, nil
	}
}

// printReplans reports the replan events a controlled run recorded.
func printReplans(events []runtime.ReplanEvent) {
	if len(events) == 0 {
		fmt.Println("control loop: no drift past threshold; cut unchanged")
	}
	for _, ev := range events {
		via := ""
		if ev.Solver != "" {
			via = " via " + ev.Solver
		}
		fmt.Printf("control loop: replan at t=%.0fs (load ×%.2f): moved %d operator(s)%s\n",
			ev.Time, ev.RateMultiple, len(ev.Moved), via)
	}
}

// runRemote is the client mode: submit the program to a wbserved
// instance and print the partition it chose.
func runRemote(baseURL, src, platName, modeName, solverName string, events int) {
	ctx := context.Background()
	client := server.NewClient(baseURL, nil)
	spec := wire.GraphSpec{App: "wscript", Source: src}

	info, err := client.Graph(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server elaborated %d operators, %d edges (graph %.12s…)\n",
		len(info.Graph.Ops), len(info.Graph.Edges), info.GraphHash)

	resp, err := client.Partition(ctx, wire.PartitionRequest{
		Graph:    spec,
		Trace:    wire.TraceSpec{Events: events},
		Platform: platName,
		Mode:     modeName,
		Solver:   solverName,
	})
	if err != nil {
		log.Fatal(err)
	}
	if resp.RateMultiple < 1 {
		fmt.Printf("full rate infeasible; max sustainable rate = %.3f×\n", resp.RateMultiple)
	}
	onNode := make(map[int]bool)
	for _, id := range resp.Assignment.OnNode {
		onNode[id] = true
	}
	fmt.Printf("partition on %s (rate ×%.3f, cache hit %v): node CPU %.1f%%, radio %.0f B/s, %d/%d operators on node\n",
		platName, resp.RateMultiple, resp.CacheHit, 100*resp.Assignment.CPULoad,
		resp.Assignment.NetLoad, len(resp.Assignment.OnNode), len(info.Graph.Ops))
	for id, op := range info.Graph.Ops {
		side := "server"
		if onNode[id] {
			side = "node"
		}
		fmt.Printf("  %-24s %s\n", op.Name, side)
	}
}
