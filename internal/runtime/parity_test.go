package runtime_test

import (
	"testing"

	"wishbone/internal/apps/eeg"
	"wishbone/internal/apps/speech"
	"wishbone/internal/dataflow"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
)

// runBoth executes the same configuration under the shipped engine and the
// tree-walking reference (RunReference) and asserts byte-identical Results.
func runBoth(t *testing.T, cfg runtime.Config) *runtime.Result {
	t.Helper()
	legacy, err := runtime.RunReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := runtime.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *legacy != *compiled {
		t.Fatalf("engines diverge:\nlegacy:   %+v\ncompiled: %+v", *legacy, *compiled)
	}
	return compiled
}

func speechCutOnNode(app *speech.App, prefix int) map[int]bool {
	on := make(map[int]bool, len(app.Pipeline))
	for i, op := range app.Pipeline {
		on[op.ID()] = i < prefix
	}
	return on
}

// TestEngineParitySpeechCutpoints sweeps the six Figure 9/10 cutpoints on a
// multi-node TMote network with per-node traces (the experiments'
// methodology) and requires exact agreement.
func TestEngineParitySpeechCutpoints(t *testing.T) {
	app := speech.New()
	for _, prefix := range []int{1, 3, 5, 6, 7, 8} {
		res := runBoth(t, runtime.Config{
			Graph:    app.Graph,
			OnNode:   speechCutOnNode(app, prefix),
			Platform: platform.TMoteSky(),
			Nodes:    5,
			Duration: 20,
			Inputs: func(nodeID int) []profile.Input {
				return []profile.Input{app.SampleTrace(int64(1000+nodeID), 2.0)}
			},
			Seed: int64(prefix),
		})
		if res.InputEvents == 0 {
			t.Fatalf("cut %d: no input offered", prefix)
		}
	}
}

// TestEngineParitySharedTrace drives every node with the identical trace
// object, which the compiled engine simulates once and replays per node;
// the results must still be byte-identical to the legacy per-node sweep.
func TestEngineParitySharedTrace(t *testing.T) {
	app := speech.New()
	shared := app.SampleTrace(77, 2.0)
	res := runBoth(t, runtime.Config{
		Graph:    app.Graph,
		OnNode:   speechCutOnNode(app, 8), // whole pipeline on the node
		Platform: platform.Gumstix(),
		Nodes:    16,
		Duration: 15,
		Inputs:   func(nodeID int) []profile.Input { return []profile.Input{shared} },
		Seed:     9,
	})
	if res.MsgsSent == 0 || res.DeliveredBytes == 0 {
		t.Fatalf("expected traffic and delivery, got %+v", *res)
	}
}

// TestEngineParityEEG runs the seizure-detection app with the whole node
// namespace on the node (features cross to the server SVM).
func TestEngineParityEEG(t *testing.T) {
	app := eeg.NewWithChannels(4)
	onNode := make(map[int]bool)
	for _, op := range app.Graph.Operators() {
		onNode[op.ID()] = op.NS == dataflow.NSNode
	}
	inputs := app.SampleTrace(3, 16)
	res := runBoth(t, runtime.Config{
		Graph:    app.Graph,
		OnNode:   onNode,
		Platform: platform.Gumstix(),
		Nodes:    3,
		Duration: 30,
		Inputs: func(nodeID int) []profile.Input {
			// Shift each node's channel traces so replicas stay distinct.
			shifted := make([]profile.Input, len(inputs))
			copy(shifted, inputs)
			for i := range shifted {
				rot := append([]dataflow.Value{}, shifted[i].Events[nodeID%len(shifted[i].Events):]...)
				rot = append(rot, shifted[i].Events[:nodeID%len(shifted[i].Events)]...)
				shifted[i].Events = rot
			}
			return shifted
		},
		Seed: 11,
	})
	if res.InputEvents == 0 {
		t.Fatal("no input offered")
	}
}

// TestScratchReentrancyParity covers the two ways pooled kernel scratch
// could be shared when it must not be: the reference executor runs each
// downstream Work inside its upstream's emit (so a scratch still held
// across emit would be reused mid-kernel), and Run at Shards=2, Workers=2
// runs the same operators on two goroutines at once (CI runs this under
// -race). Whole pipeline on the node, every replica on its own trace;
// both engines must still agree byte for byte.
func TestScratchReentrancyParity(t *testing.T) {
	sp := speech.New()
	spRes := runBoth(t, runtime.Config{
		Graph:    sp.Graph,
		OnNode:   speechCutOnNode(sp, 8),
		Platform: platform.Gumstix(),
		Nodes:    6,
		Duration: 10,
		Shards:   2,
		Workers:  2,
		Inputs: func(nodeID int) []profile.Input {
			return []profile.Input{sp.SampleTrace(int64(1700+nodeID), 1.0)}
		},
		Seed: 17,
	})

	ee := eeg.NewWithChannels(2)
	onNode := make(map[int]bool)
	for _, op := range ee.Graph.Operators() {
		onNode[op.ID()] = op.NS == dataflow.NSNode
	}
	eeRes := runBoth(t, runtime.Config{
		Graph:    ee.Graph,
		OnNode:   onNode,
		Platform: platform.Gumstix(),
		Nodes:    4,
		Duration: 30,
		Shards:   2,
		Workers:  2,
		Inputs: func(nodeID int) []profile.Input {
			// Skew the second channel's clock: the non-reentrant node drops
			// an arrival that lands while it is busy, so two channels
			// sampled at the same instants would never complete a zipAll row.
			ins := ee.SampleTrace(int64(1700+nodeID), 16)
			ins[1].Rate *= 0.98
			return ins
		},
		Seed: 17,
	})
	if spRes.MsgsSent == 0 || eeRes.MsgsSent == 0 {
		t.Fatalf("degenerate runs: speech %+v, eeg %+v", *spRes, *eeRes)
	}
}

// TestParallelNodePoolDeterministic forces the compiled engine's worker
// pool (Workers > 1, per-node traces) and checks the result matches a
// sequential run — exercised under -race in CI to cover the parallel node
// loop.
func TestParallelNodePoolDeterministic(t *testing.T) {
	app := speech.New()
	cfg := runtime.Config{
		Graph:    app.Graph,
		OnNode:   speechCutOnNode(app, 6),
		Platform: platform.TMoteSky(),
		Nodes:    8,
		Duration: 10,
		Inputs: func(nodeID int) []profile.Input {
			return []profile.Input{app.SampleTrace(int64(500+nodeID), 1.0)}
		},
		Seed: 4,
	}
	cfg.Workers = 4
	parallel, err := runtime.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	sequential, err := runtime.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *parallel != *sequential {
		t.Fatalf("worker pool changed the result:\nparallel:   %+v\nsequential: %+v",
			*parallel, *sequential)
	}
}

// TestNoReplayMatchesReplay checks the shared-trace fast path against
// per-node execution: replay is selected by the nodes sharing one event
// slice, so handing every node its own copy of the same events runs every
// replica.
func TestNoReplayMatchesReplay(t *testing.T) {
	app := speech.New()
	shared := app.SampleTrace(12, 2.0)
	cfg := runtime.Config{
		Graph:    app.Graph,
		OnNode:   speechCutOnNode(app, 6),
		Platform: platform.Gumstix(),
		Nodes:    6,
		Duration: 10,
		Inputs:   func(nodeID int) []profile.Input { return []profile.Input{shared} },
		Seed:     2,
	}
	replayed, err := runtime.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Inputs = func(nodeID int) []profile.Input {
		return runtime.OwnEvents([]profile.Input{shared})
	}
	perNode, err := runtime.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *replayed != *perNode {
		t.Fatalf("replay changed the result:\nreplay:   %+v\nper-node: %+v", *replayed, *perNode)
	}
}

// TestEmptyTraceFailsSimulation asserts an input with a rate but no events
// errors instead of panicking.
func TestEmptyTraceFailsSimulation(t *testing.T) {
	app := speech.New()
	_, err := runtime.Run(runtime.Config{
		Graph:    app.Graph,
		OnNode:   speechCutOnNode(app, 8),
		Platform: platform.TMoteSky(),
		Nodes:    1,
		Duration: 5,
		Inputs: func(nodeID int) []profile.Input {
			return []profile.Input{{Source: app.Pipeline[0], Rate: 40}}
		},
		Seed: 1,
	})
	if err == nil {
		t.Fatal("empty trace must fail the simulation with an error")
	}
}

// TestBadOnNodeMapFailsSimulation asserts that a partition map leaving a
// source off the node errors instead of crashing (the Executor's old panic
// path).
func TestBadOnNodeMapFailsSimulation(t *testing.T) {
	app := speech.New()
	onNode := speechCutOnNode(app, 8)
	onNode[app.Pipeline[0].ID()] = false // source relocated to the server: invalid
	_, err := runtime.Run(runtime.Config{
		Graph:    app.Graph,
		OnNode:   onNode,
		Platform: platform.TMoteSky(),
		Nodes:    1,
		Duration: 5,
		Inputs: func(nodeID int) []profile.Input {
			return []profile.Input{app.SampleTrace(1, 1.0)}
		},
		Seed: 1,
	})
	if err == nil {
		t.Fatal("bad OnNode map must fail the simulation with an error")
	}
}
