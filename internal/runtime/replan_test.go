package runtime_test

import (
	"testing"

	"wishbone/internal/runtime"
)

// TestMigrateSnapshotIdentity pins that migrating onto the unchanged cut
// is a no-op: the run resumed from MigrateSnapshot's output equals the
// uninterrupted one, byte for byte.
func TestMigrateSnapshotIdentity(t *testing.T) {
	c := reduceCase(t, 9, 4, 24)
	c.verify(t, c.reference(t), schedule{steps: []step{{kind: stepMigrate, at: len(c.feed) / 2}}})
}

// TestMigrateSnapshotFreshStart uses the one point with an independent
// oracle: a snapshot taken before any input carries no accumulated state,
// so migrating it onto cut B and running the whole trace must equal a run
// born on cut B.
func TestMigrateSnapshotFreshStart(t *testing.T) {
	c := reduceCase(t, 13, 4, 24)
	c.cutB = reduceCutB(c.cfg.Graph, c.cfg.OnNode)
	born := newCase("reduce born on cut B", c.cfg, c.feed)
	born.cfg.OnNode = c.cutB
	ref := born.reference(t)
	c.verify(t, ref, schedule{steps: []step{{kind: stepMigrate, at: 0}}})
	// Cut B has no emitting server operator, so ServerEmits is rightly 0;
	// traffic must still have flowed.
	if ref.res.MsgsSent == 0 || ref.res.DeliveredBytes == 0 {
		t.Fatalf("degenerate run %+v", ref.res)
	}
}

// TestControlLoopHysteresis pins the detector's thrash resistance: load
// oscillating in and out of the drift band never fills the hysteresis
// interval, sustained drift fills it exactly, and the post-replan
// cooldown holds the detector down while the new cut settles.
func TestControlLoopHysteresis(t *testing.T) {
	win := func(rate float64) runtime.WindowObservation {
		return runtime.WindowObservation{Span: 1, AirBytes: int(rate)}
	}
	policy := runtime.ReplanPolicy{Threshold: 0.2, Hysteresis: 3, Decay: 1} // Decay 1: EWMA = last window

	loop := runtime.NewControlLoop(policy)
	loop.Observe(win(100)) // the first window is the planned baseline
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			loop.Observe(win(160)) // 60% over: drifted
		} else {
			loop.Observe(win(100)) // back on plan: drift streak resets
		}
		if _, ok := loop.Drift(); ok {
			t.Fatalf("oscillating load triggered a replan at window %d", i)
		}
	}

	loop = runtime.NewControlLoop(policy)
	loop.Observe(win(100))
	for i := 0; i < 3; i++ {
		if _, ok := loop.Drift(); ok {
			t.Fatalf("triggered after only %d drifted windows", i)
		}
		loop.Observe(win(200))
	}
	multiple, ok := loop.Drift()
	if !ok {
		t.Fatal("sustained 2x load did not trigger after the hysteresis interval")
	}
	if multiple < 1.9 || multiple > 2.1 {
		t.Fatalf("trigger solved for multiple %g, want ~2", multiple)
	}

	loop.Replanned()
	// Cooldown (= hysteresis = 3) then a fresh 3-window streak must pass
	// before the next trigger, even under sustained drift.
	for i := 0; i < 5; i++ {
		loop.Observe(win(400))
		if _, ok := loop.Drift(); ok {
			t.Fatalf("triggered during cooldown, window %d after replan", i)
		}
	}
	loop.Observe(win(400))
	if _, ok := loop.Drift(); !ok {
		t.Fatal("post-cooldown sustained drift never re-triggered")
	}

	// MaxReplans caps the loop outright.
	capped := runtime.NewControlLoop(runtime.ReplanPolicy{Threshold: 0.2, Hysteresis: 1, Cooldown: -1, Decay: 1, MaxReplans: 1})
	capped.Observe(win(100))
	capped.Observe(win(300))
	if _, ok := capped.Drift(); !ok {
		t.Fatal("capped loop never triggered its one replan")
	}
	capped.Replanned()
	for i := 0; i < 10; i++ {
		capped.Observe(win(300))
	}
	if _, ok := capped.Drift(); ok {
		t.Fatal("loop triggered past MaxReplans")
	}
}
