package runtime_test

import (
	"testing"

	"wishbone/internal/netsim"
	"wishbone/internal/platform"
	"wishbone/internal/runtime"
)

// TestScenarioCrashTriggersReplan composes the failure models with the
// control plane: permanent node crashes shrink the observed window load,
// the drift detector's EWMA leaves the planned band, and the planner is
// consulted — a crashed node fires the drift→replan loop with no extra
// wiring between the two subsystems.
func TestScenarioCrashTriggersReplan(t *testing.T) {
	g, src, onNode := runtime.StreamApp()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := runtime.Config{
		Graph: g, OnNode: onNode, Platform: platform.TMoteSky(),
		Nodes: 5, Duration: 40, Seed: 13, WindowSeconds: 2,
	}
	// Steady offered rate: without churn this run never drifts. The planner
	// keeps the cut, so a trigger is recorded without a handoff.
	feed := driftFeed(cfg.Nodes, cfg.Duration, 4, 4, src)
	policy := runtime.ReplanPolicy{Threshold: 0.3, Hysteresis: 2, Decay: 0.5, MaxReplans: 1}
	clean := newCase("steady", cfg, feed)
	clean.cutB, clean.policy = onNode, &policy
	cleanRun, err := clean.run(t, schedule{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cleanRun.replans) != 0 {
		t.Fatalf("steady run without churn replanned %d times", len(cleanRun.replans))
	}

	// Aggressive permanent churn: most nodes crash mid-run, so the offered
	// load falls well past the drift threshold.
	crash := *clean
	crash.cfg.Scenario = &netsim.Scenario{Churn: &netsim.Churn{Seed: 2, MeanUp: 10}}
	got := crash.reference(t)
	if len(got.replans) == 0 || len(got.multiples) == 0 {
		t.Fatalf("node crashes never fired the drift→replan loop (events=%d planner calls=%d)",
			len(got.replans), len(got.multiples))
	}
	if got.replans[0].RateMultiple >= 1 {
		t.Fatalf("crash-driven drift should solve for a load multiple < 1, got %g", got.replans[0].RateMultiple)
	}
}
