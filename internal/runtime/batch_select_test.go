package runtime

import (
	"testing"

	"wishbone/internal/apps/speech"
	"wishbone/internal/dataflow"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
)

// TestBatchSelectionFollowsPrograms pins the derived selector from both
// sides: batched feed and delivery are on exactly when the resolved
// Programs carry batch tables. Cut 1 has both batched paths in play — the
// node partition is the bare source (passthrough) and the stateful pipeline
// runs relocated on the server (batched delivery).
func TestBatchSelectionFollowsPrograms(t *testing.T) {
	app := speech.New()
	onNode := make(map[int]bool, len(app.Pipeline))
	for i, op := range app.Pipeline {
		onNode[op.ID()] = i < 1
	}
	base := Config{
		Graph:    app.Graph,
		OnNode:   onNode,
		Platform: platform.Gumstix(),
		Nodes:    4,
		Duration: 10,
		Shards:   2,
		Inputs: func(nodeID int) []profile.Input {
			return []profile.Input{app.SampleTrace(int64(4000+nodeID), 2.0)}
		},
		Seed: 5,
	}
	batchedCfg := base
	var err error
	if batchedCfg.NodeProgram, batchedCfg.ServerProgram, err = CompilePartition(app.Graph, onNode); err != nil {
		t.Fatal(err)
	}
	perElemCfg, err := PerElementPrograms(base)
	if err != nil {
		t.Fatal(err)
	}

	batchedElems := func(cfg *Config) (n int64) {
		for _, p := range []*dataflow.Program{cfg.NodeProgram, cfg.ServerProgram} {
			for _, st := range p.BatchStats() {
				n += st.Batched
			}
		}
		return n
	}
	selected := func(cfg *Config) (passthrough, delivery bool) {
		plan, err := newDeliveryPlan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer plan.close()
		return passthroughPartition(cfg, cfg.NodeProgram), plan.shards[0].batch
	}

	if pt, dl := selected(&batchedCfg); !pt || !dl {
		t.Fatalf("batch-compiled Programs selected passthrough=%v batched delivery=%v, want both", pt, dl)
	}
	if pt, dl := selected(&perElemCfg); pt || dl {
		t.Fatalf("per-element Programs selected passthrough=%v batched delivery=%v, want neither", pt, dl)
	}

	batched, err := Run(batchedCfg)
	if err != nil {
		t.Fatal(err)
	}
	perElem, err := Run(perElemCfg)
	if err != nil {
		t.Fatal(err)
	}
	implicit, err := Run(base) // the Programs Run compiles itself batch
	if err != nil {
		t.Fatal(err)
	}
	if *perElem != *batched || *implicit != *batched {
		t.Fatalf("Results diverge:\nbatched:  %+v\nperElem:  %+v\nimplicit: %+v", *batched, *perElem, *implicit)
	}
	if batched.ServerEmits == 0 {
		t.Fatalf("degenerate run %+v", *batched)
	}
	if n := batchedElems(&batchedCfg); n == 0 {
		t.Fatal("batch-compiled Programs report no batched elements")
	}
	if n := batchedElems(&perElemCfg); n != 0 {
		t.Fatalf("per-element Programs report %d batched elements, want 0", n)
	}
}
