package runtime_test

import (
	"testing"

	"wishbone/internal/apps/speech"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
)

// TestBatchedRunParity pins the batched execution paths (batched server
// delivery, the node-phase passthrough fast path, batch-compiled
// partitions) against the per-element compiled path and the tree-walking
// legacy engine: Results must be byte-identical at every cutpoint and
// Shards/Workers setting. Cut 1 exercises both batched paths at once —
// the node partition is the bare source (passthrough InjectBatch) and the
// whole stateful pipeline runs relocated on the server, fed by batched
// delivery.
func TestBatchedRunParity(t *testing.T) {
	app := speech.New()
	for _, tc := range []struct {
		prefix, shards, workers int
	}{
		{1, 1, 1},
		{1, 4, 4},
		{3, 2, 2},
		{6, 4, 2},
	} {
		cfg := runtime.Config{
			Graph:    app.Graph,
			OnNode:   speechCutOnNode(app, tc.prefix),
			Platform: platform.TMoteSky(),
			Nodes:    5,
			Duration: 20,
			Shards:   tc.shards,
			Workers:  tc.workers,
			Inputs: func(nodeID int) []profile.Input {
				return []profile.Input{app.SampleTrace(int64(2000+nodeID), 2.0)}
			},
			Seed: int64(tc.prefix),
		}
		batched, err := runtime.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		perElemCfg, err := runtime.PerElementPrograms(cfg)
		if err != nil {
			t.Fatal(err)
		}
		perElem, err := runtime.Run(perElemCfg)
		if err != nil {
			t.Fatal(err)
		}
		legacy, err := runtime.RunReference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if *batched != *perElem {
			t.Errorf("cut %d shards %d: batched diverged from per-element:\nbatched: %+v\nperElem: %+v",
				tc.prefix, tc.shards, *batched, *perElem)
		}
		if *batched != *legacy {
			t.Errorf("cut %d shards %d: batched diverged from legacy:\nbatched: %+v\nlegacy:  %+v",
				tc.prefix, tc.shards, *batched, *legacy)
		}
		if batched.InputEvents == 0 || batched.MsgsSent == 0 {
			t.Fatalf("cut %d: degenerate run %+v", tc.prefix, *batched)
		}
	}
}

// TestBatchedStreamParity runs the streaming Session with batching on and
// off; both Results must be identical.
func TestBatchedStreamParity(t *testing.T) {
	app := speech.New()
	base := runtime.Config{
		Graph:    app.Graph,
		OnNode:   speechCutOnNode(app, 1),
		Platform: platform.TMoteSky(),
		Nodes:    4,
		Duration: 30,
		Shards:   3,
		Workers:  4,
		Seed:     7,
	}
	run := func(noBatch bool) *runtime.Result {
		cfg := base
		if noBatch {
			var err error
			if cfg, err = runtime.PerElementPrograms(cfg); err != nil {
				t.Fatal(err)
			}
		}
		cfg.WindowSeconds = 10
		cfg.ArrivalSource = func(nodeID int) (runtime.Stream, error) {
			return runtime.InputStream(
				[]profile.Input{app.SampleTrace(int64(3000+nodeID), 2.0)}, 1, cfg.Duration)
		}
		res, err := runtime.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(true)
	if ref.MsgsSent == 0 {
		t.Fatalf("degenerate streaming run %+v", *ref)
	}
	if got := run(false); *got != *ref {
		t.Errorf("batched diverged from per-element:\nref: %+v\ngot: %+v", *ref, *got)
	}
}
