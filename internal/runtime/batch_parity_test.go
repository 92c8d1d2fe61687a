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
// delivery. The TMote channel is saturated and no value reaches the sink,
// so those rows compare counts only; the Gumstix rows repeat the settings
// on a network that delivers and must digest sink values.
func TestBatchedRunParity(t *testing.T) {
	app := speech.New()
	for _, tc := range []struct {
		prefix, shards, workers int
		gumstix                 bool
	}{
		{1, 1, 1, false},
		{1, 4, 4, false},
		{3, 2, 2, false},
		{6, 4, 2, false},
		{1, 1, 1, true},
		{1, 4, 4, true},
		{3, 2, 2, true},
		{6, 4, 2, true},
	} {
		plat := platform.TMoteSky()
		if tc.gumstix {
			plat = platform.Gumstix()
		}
		cfg := runtime.Config{
			Graph:    app.Graph,
			OnNode:   speechCutOnNode(app, tc.prefix),
			Platform: plat,
			Nodes:    5,
			Duration: 20,
			Shards:   tc.shards,
			Workers:  tc.workers,
			Inputs: func(nodeID int) []profile.Input {
				return []profile.Input{app.SampleTrace(int64(2000+nodeID), 2.0)}
			},
			Seed: int64(tc.prefix),
		}
		rec, restore := runtime.RecordServerSinks(cfg.Graph, cfg.OnNode)
		batched, err := runtime.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		batchedSinks := rec.Take(t)
		perElemCfg, err := runtime.PerElementPrograms(cfg)
		if err != nil {
			t.Fatal(err)
		}
		perElem, err := runtime.Run(perElemCfg)
		if err != nil {
			t.Fatal(err)
		}
		perElemSinks := rec.Take(t)
		legacy, err := runtime.RunReference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		legacySinks := rec.Take(t)
		restore()
		if batchedSinks != perElemSinks || batchedSinks != legacySinks {
			t.Errorf("%s cut %d shards %d: server sinks got different values: batched %+v, per-element %+v, legacy %+v",
				plat.Name, tc.prefix, tc.shards, batchedSinks, perElemSinks, legacySinks)
		}
		if tc.gumstix && batchedSinks.Values == 0 {
			t.Errorf("%s cut %d shards %d: no value reached a server sink", plat.Name, tc.prefix, tc.shards)
		}
		t.Logf("%s cut %d shards %d: %d sink values", plat.Name, tc.prefix, tc.shards, batchedSinks.Values)
		if *batched != *perElem {
			t.Errorf("%s cut %d shards %d: batched diverged from per-element:\nbatched: %+v\nperElem: %+v",
				plat.Name, tc.prefix, tc.shards, *batched, *perElem)
		}
		if *batched != *legacy {
			t.Errorf("%s cut %d shards %d: batched diverged from legacy:\nbatched: %+v\nlegacy:  %+v",
				plat.Name, tc.prefix, tc.shards, *batched, *legacy)
		}
		if batched.InputEvents == 0 || batched.MsgsSent == 0 {
			t.Fatalf("%s cut %d: degenerate run %+v", plat.Name, tc.prefix, *batched)
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
