package runtime_test

import (
	"sync"
	"testing"

	"wishbone/internal/apps/eeg"
	"wishbone/internal/apps/speech"
	"wishbone/internal/dataflow"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
)

// runVariants executes cfg under every engine/shard/worker combination
// and asserts byte-identical Results: the sharded delivery loop must be
// indistinguishable from the sequential one, which must be
// indistinguishable from the legacy reference.
func runVariants(t *testing.T, cfg runtime.Config) *runtime.Result {
	t.Helper()
	type variant struct {
		name   string
		run    func(runtime.Config) (*runtime.Result, error)
		mutate func(*runtime.Config)
	}
	variants := []variant{
		{"legacy", runtime.RunReference, func(c *runtime.Config) {}},
		{"sequential", runtime.Run, func(c *runtime.Config) {}},
		{"shards=2", runtime.Run, func(c *runtime.Config) { c.Shards = 2 }},
		{"shards=3/workers=2", runtime.Run, func(c *runtime.Config) { c.Shards = 3; c.Workers = 2 }},
		{"shards=8/workers=8", runtime.Run, func(c *runtime.Config) { c.Shards = 8; c.Workers = 8 }},
	}
	var ref *runtime.Result
	for _, v := range variants {
		c := cfg
		v.mutate(&c)
		res, err := v.run(c)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if *res != *ref {
			t.Fatalf("%s diverges:\nref (%s): %+v\ngot:      %+v", v.name, variants[0].name, *ref, *res)
		}
	}
	return ref
}

// TestShardedDeliveryParitySpeech sweeps a server-heavy and a node-heavy
// speech cut on a multi-node TMote network with per-node traces. The
// prefix-1 cut relocates the stateful preemph/prefilt operators to the
// server, so the per-origin state tables are exercised across shards.
func TestShardedDeliveryParitySpeech(t *testing.T) {
	app := speech.New()
	for _, prefix := range []int{1, 5} {
		res := runVariants(t, runtime.Config{
			Graph:    app.Graph,
			OnNode:   speechCutOnNode(app, prefix),
			Platform: platform.Gumstix(),
			Nodes:    6,
			Duration: 12,
			Inputs: func(nodeID int) []profile.Input {
				return []profile.Input{app.SampleTrace(int64(300+nodeID), 2.0)}
			},
			Seed: int64(40 + prefix),
		})
		if res.MsgsSent == 0 || res.ServerEmits == 0 {
			t.Fatalf("cut %d: degenerate run %+v", prefix, *res)
		}
	}
}

// TestShardedDeliveryParityEEG covers the fall-back path: the EEG app's
// `detect` operator is stateful in the Server namespace (one global state
// fed by every node), so delivery must quietly stay sequential — and
// still agree with every requested shard count.
func TestShardedDeliveryParityEEG(t *testing.T) {
	app := eeg.NewWithChannels(4)
	onNode := make(map[int]bool)
	for _, op := range app.Graph.Operators() {
		onNode[op.ID()] = op.NS == dataflow.NSNode
	}
	inputs := app.SampleTrace(3, 12)
	res := runVariants(t, runtime.Config{
		Graph:    app.Graph,
		OnNode:   onNode,
		Platform: platform.Gumstix(),
		Nodes:    3,
		Duration: 12,
		// Own copies of the events: every replica executes, none replays.
		Inputs: func(nodeID int) []profile.Input { return runtime.OwnEvents(inputs) },
		Seed:   17,
	})
	if res.InputEvents == 0 {
		t.Fatal("no input offered")
	}
}

// TestConcurrentShardedRuns runs several sharded simulations at once
// sharing one cached NodeProgram/ServerProgram pair (the partition
// service's hot path) and requires every Result to match a sequential
// reference — exercised under -race in CI.
func TestConcurrentShardedRuns(t *testing.T) {
	app := speech.New()
	onNode := speechCutOnNode(app, 5)
	node, server, err := runtime.CompilePartition(app.Graph, onNode)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runtime.Config{
		Graph:    app.Graph,
		OnNode:   onNode,
		Platform: platform.Gumstix(),
		Nodes:    8,
		Duration: 10,
		Inputs: func(nodeID int) []profile.Input {
			return []profile.Input{app.SampleTrace(int64(700+nodeID), 2.0)}
		},
		Seed:          23,
		Shards:        4,
		Workers:       4,
		NodeProgram:   node,
		ServerProgram: server,
	}
	ref, err := runtime.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const concurrent = 4
	results := make([]*runtime.Result, concurrent)
	errs := make([]error, concurrent)
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = runtime.Run(cfg)
		}(i)
	}
	wg.Wait()
	for i := 0; i < concurrent; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if *results[i] != *ref {
			t.Fatalf("concurrent run %d diverges:\nref: %+v\ngot: %+v", i, *ref, *results[i])
		}
	}
}
