package runtime_test

import (
	"fmt"
	"slices"
	"testing"

	"wishbone/internal/apps/eeg"
	"wishbone/internal/apps/speech"
	"wishbone/internal/dataflow"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
)

func speechCutOnNode(app *speech.App, prefix int) map[int]bool {
	on := make(map[int]bool, len(app.Pipeline))
	for i, op := range app.Pipeline {
		on[op.ID()] = i < prefix
	}
	return on
}

// The engine-parity rows pin placements of runtime.Run as fixed batch
// schedules of the harness (schedule_test.go), each on its own case, held
// to runtime.RunReference in Result and sink digest. Where the channel
// delivers nothing (TMote at speech cuts 1–6, the EEG node cut on
// synchronized clocks) the digests compared are empty.

// batchAt is one Run at shards/workers of the Programs Run compiles, over
// per-node traces.
func batchAt(shards, workers int) schedule {
	return schedule{batch: true, start: place{shards: shards, workers: workers}}
}

// What a row asks of each outcome besides parity.
func offers(o *outcome) bool   { return o.res.InputEvents > 0 }
func sends(o *outcome) bool    { return o.res.InputEvents > 0 && o.res.MsgsSent > 0 }
func emits(o *outcome) bool    { return o.res.MsgsSent > 0 && o.res.ServerEmits > 0 }
func delivers(o *outcome) bool { return o.res.MsgsSent > 0 && o.sinks.Values > 0 }

// TestEngineParitySpeechCutpoints sweeps the six Figure 9/10 cutpoints on
// TMote with per-node traces (the experiments' methodology), and cuts 1–6
// on Gumstix, whose channel hands the sinks thousands of values.
func TestEngineParitySpeechCutpoints(t *testing.T) {
	t.Parallel()
	app := speech.New()
	for _, prefix := range []int{1, 3, 5, 6, 7, 8} {
		speechRun(app, platform.TMoteSky(), prefix, 5, 20, int64(prefix), 1000, 2).expect(t, offers, batchAt(0, 0))
	}
	for _, prefix := range []int{1, 3, 5, 6} {
		speechRun(app, platform.Gumstix(), prefix, 5, 20, int64(prefix), 1000, 2).expect(t, delivers, batchAt(0, 0))
	}
}

// TestEngineParitySharedTrace drives every node with the identical trace
// object, which Run simulates once, as node 0, and replays per node.
func TestEngineParitySharedTrace(t *testing.T) {
	t.Parallel()
	c := speechRun(speech.New(), platform.Gumstix(), 8, 16, 15, 9, 77, 2)
	c.expect(t, func(o *outcome) bool { return o.res.DeliveredBytes > 0 && o.nodeIDs == 1 && sends(o) },
		schedule{batch: true, traces: traceShared})
}

// TestEngineParityEEG runs the seizure-detection app on three rows. The
// node-cut row puts the whole node namespace on the node; its synchronized
// channel arrivals collide on the node CPU, so no feature vector reaches
// the server SVM. The seizure row ships raw windows of
// runtime.SeizureTrace (sources on the node, the rest on the server),
// whose bursts the detector declares. The skewed row is eegNodeCase: the
// node cut on skewed channel clocks, which delivers declared seizures.
func TestEngineParityEEG(t *testing.T) {
	t.Parallel()
	app := eeg.NewWithChannels(4)
	nodeCut, sourceCut := eegCuts(app)
	inputs := app.SampleTrace(3, 16)
	t.Run("node-cut", func(t *testing.T) {
		batchCase("node-cut", eegCfg(app, nodeCut, 3, 30, 11, 0), func(n int) []profile.Input {
			// Rotate each node's channel traces so replicas stay distinct.
			shifted := slices.Clone(inputs)
			for i := range shifted {
				k := n % len(shifted[i].Events)
				shifted[i].Events = append(slices.Clone(shifted[i].Events[k:]), shifted[i].Events[:k]...)
			}
			return shifted
		}).expect(t, offers, batchAt(0, 0))
	})
	t.Run("seizure", func(t *testing.T) {
		batchCase("seizure", eegCfg(app, sourceCut, 3, 30, 11, 0), func(n int) []profile.Input {
			return runtime.SeizureTrace(app, int64(40+n), 30)
		}).expect(t, delivers, batchAt(0, 0))
	})
	t.Run("node-cut-skewed", func(t *testing.T) { eegNodeCase(t).expect(t, delivers, batchAt(0, 0)) })
}

// TestScratchReentrancyParity covers the two ways pooled kernel scratch
// could be shared when it must not be: the reference executor runs each
// downstream Work inside its upstream's emit (so a scratch still held
// across emit would be reused mid-kernel), and Run at Shards=2, Workers=2
// runs the same operators on two goroutines at once (CI runs this under
// -race). Whole node partition on the node, every replica on its own trace.
func TestScratchReentrancyParity(t *testing.T) {
	t.Parallel()
	speechRun(speech.New(), platform.Gumstix(), 8, 6, 10, 17, 1700, 1).expect(t, sends, batchAt(2, 2))
	ee := eeg.NewWithChannels(2)
	onNode, _ := eegCuts(ee)
	batchCase("eeg", eegCfg(ee, onNode, 4, 30, 17, 0),
		func(n int) []profile.Input {
			// Skew the second channel's clock: the non-reentrant node drops
			// an arrival that lands while it is busy, so two channels
			// sampled at the same instants would never complete a zipAll row.
			ins := ee.SampleTrace(int64(1700+n), 16)
			ins[1].Rate *= 0.98
			return ins
		}).expect(t, sends, batchAt(2, 2))
}

// TestParallelNodePoolDeterministic runs the node phase on a worker pool
// (Workers 4, per-node traces) and sequentially; CI runs it under -race.
func TestParallelNodePoolDeterministic(t *testing.T) {
	t.Parallel()
	speechRun(speech.New(), platform.TMoteSky(), 6, 8, 10, 4, 500, 1).verify(t, nil, batchAt(0, 4), batchAt(0, 1))
}

// TestNoReplayMatchesReplay runs one shared trace, which Run simulates as
// node 0 and replays, and every node its own copy of it, which runs every
// replica.
func TestNoReplayMatchesReplay(t *testing.T) {
	t.Parallel()
	c := speechRun(speech.New(), platform.Gumstix(), 6, 6, 10, 2, 12, 2)
	c.expect(t, func(o *outcome) bool { return o.nodeIDs == 1 }, schedule{batch: true, traces: traceShared})
	c.expect(t, func(o *outcome) bool { return o.nodeIDs == c.cfg.Nodes }, schedule{batch: true, traces: traceOwn})
}

// TestBatchedRunParity pins the batched paths (batched server delivery,
// the node-phase passthrough fast path) at each cutpoint and Shards/Workers
// setting. Cut 1 runs both batched paths at once: the node
// partition is the bare source (passthrough) and the whole stateful
// pipeline runs relocated on the server, fed by batched delivery. The
// Gumstix rows repeat the TMote rows on a network that delivers.
func TestBatchedRunParity(t *testing.T) {
	t.Parallel()
	app := speech.New()
	for i, plat := range []*platform.Platform{platform.TMoteSky(), platform.Gumstix()} {
		ok := []func(*outcome) bool{sends, delivers}[i]
		for _, v := range [][3]int{{1, 1, 1}, {1, 4, 4}, {3, 2, 2}, {6, 4, 2}} {
			speechRun(app, plat, v[0], 5, 20, int64(v[0]), 2000, 2).expect(t, ok, batchAt(v[1], v[2]))
		}
	}
}

// TestBatchedStreamParity runs Run's streaming path (window 10 s).
func TestBatchedStreamParity(t *testing.T) {
	t.Parallel()
	c := speechRun(speech.New(), platform.TMoteSky(), 1, 4, 30, 7, 3000, 2)
	c.cfg.WindowSeconds = 10
	c.expect(t, sends, schedule{batch: true, stream: true, start: place{shards: 3, workers: 4}})
}

// TestStreamingMatchesBatchUniform runs Run's streaming and batch paths on
// a steady-rate trace whose period (1/4 s) divides the window (16 s) and
// the duration (64 s): all powers of two, so the per-window and whole-run
// mean loads are the same float64. Duration 24 ends on a partial window
// ([16,24), span 8) whose messages are priced over the remaining span; the
// per-second load stays uniform, so parity holds.
func TestStreamingMatchesBatchUniform(t *testing.T) {
	t.Parallel()
	for _, duration := range []float64{64, 24} {
		g, src, onNode := runtime.StreamApp()
		inputs := []profile.Input{{Source: src, Events: []dataflow.Value{[]float64{5, 7}}, Rate: 4}}
		c := batchCase(fmt.Sprintf("%gs", duration), runtime.Config{Graph: g, OnNode: onNode, Platform: platform.TMoteSky(),
			Nodes: 4, Duration: duration, Seed: 11, WindowSeconds: 16}, func(int) []profile.Input { return inputs })
		c.expect(t, func(o *outcome) bool { return o.res.MsgsSent > 0 && o.res.MsgsReceived > 0 }, batchAt(0, 0),
			schedule{batch: true, stream: true}, schedule{batch: true, stream: true, start: place{shards: 3}})
	}
}

// shardedVariants are the sharded-delivery rows' Shards/Workers settings.
func shardedVariants(traces traceKind) []schedule {
	var scs []schedule
	for _, v := range [][2]int{{0, 0}, {2, 0}, {3, 2}, {8, 8}} {
		scs = append(scs, schedule{batch: true, start: place{shards: v[0], workers: v[1]}, traces: traces})
	}
	return scs
}

// TestShardedDeliveryParitySpeech sweeps a server-heavy and a node-heavy
// speech cut. The prefix-1 cut relocates the stateful preemph/prefilt
// operators to the server, so the per-origin state tables are exercised
// across shards.
func TestShardedDeliveryParitySpeech(t *testing.T) {
	t.Parallel()
	app := speech.New()
	for _, prefix := range []int{1, 5} {
		speechRun(app, platform.Gumstix(), prefix, 6, 12, int64(40+prefix), 300, 2).expect(t, emits, shardedVariants(tracePerNode)...)
	}
}

// TestShardedDeliveryParityEEG covers the fall-back path: the EEG app's
// `detect` operator is stateful in the Server namespace (one global state
// fed by every node), so delivery must quietly stay sequential at every
// requested shard count; a sharded `detect` would split its state and move
// the sink digest. Own copies of the events: every replica executes.
func TestShardedDeliveryParityEEG(t *testing.T) {
	t.Parallel()
	app := eeg.NewWithChannels(4)
	onNode, _ := eegCuts(app)
	inputs := app.SampleTrace(3, 12)
	c := batchCase("eeg", eegCfg(app, onNode, 3, 12, 17, 0), func(int) []profile.Input { return inputs })
	if !c.local {
		t.Fatal("EEG app must exercise the sequential-delivery fallback")
	}
	c.expect(t, offers, shardedVariants(traceOwn)...)
}

// TestConcurrentShardedRuns runs four sharded simulations at once sharing
// one CompilePartition pair (the partition service's hot path); CI runs it
// under -race.
func TestConcurrentShardedRuns(t *testing.T) {
	t.Parallel()
	speechRun(speech.New(), platform.Gumstix(), 5, 8, 10, 23, 700, 2).verify(t, nil,
		schedule{batch: true, start: place{shards: 4, workers: 4}, progs: progShared, concurrent: true})
}

// TestBatchShardedNodePhase pins the batch path's origin-sharded node
// phase: Shards also partitions node simulation, each shard recycling one
// pinned Instance across its nodes.
func TestBatchShardedNodePhase(t *testing.T) {
	t.Parallel()
	speechRun(speech.New(), platform.TMoteSky(), 5, 8, 10, 23, 700, 1).verify(t, nil,
		batchAt(0, 0), batchAt(3, 1), batchAt(3, 4), batchAt(8, 8))
}

// TestEmptyTraceFailsSimulation asserts an input with a rate but no events
// errors instead of panicking.
func TestEmptyTraceFailsSimulation(t *testing.T) {
	app := speech.New()
	cfg := speechRun(app, platform.TMoteSky(), 8, 1, 5, 1, 1, 1).cfg
	cfg.Inputs = func(int) []profile.Input { return []profile.Input{{Source: app.Pipeline[0], Rate: 40}} }
	if _, err := runtime.Run(cfg); err == nil {
		t.Fatal("empty trace must fail the simulation with an error")
	}
}

// TestBadOnNodeMapFailsSimulation asserts that a partition map leaving a
// source off the node errors instead of crashing (the Executor's old panic
// path).
func TestBadOnNodeMapFailsSimulation(t *testing.T) {
	app := speech.New()
	c := speechRun(app, platform.TMoteSky(), 8, 1, 5, 1, 1, 1)
	c.cfg.OnNode[app.Pipeline[0].ID()] = false // source relocated to the server: invalid
	c.cfg.Inputs = c.inputs
	if _, err := runtime.Run(c.cfg); err == nil {
		t.Fatal("bad OnNode map must fail the simulation with an error")
	}
}
