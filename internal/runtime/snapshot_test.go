package runtime_test

import (
	"testing"

	"wishbone/internal/platform"
	"wishbone/internal/runtime"
)

// TestSnapshotErrors pins the failure modes: a stateful operator without
// snapshot hooks fails with its name, and a snapshot only resumes into the
// run it was taken from.
func TestSnapshotErrors(t *testing.T) {
	g, src, onNode := runtime.StreamApp()
	for _, op := range g.Operators() {
		if op.Name == "counts" {
			op.SaveState, op.LoadState = nil, nil
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := runtime.Config{
		Graph: g, OnNode: onNode, Platform: platform.TMoteSky(),
		Nodes: 2, Duration: 8, Seed: 1, WindowSeconds: 2,
	}
	sess, err := runtime.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Offer(0, runtime.Arrival{Time: 3, Source: src, Value: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Snapshot(); err == nil {
		t.Fatal("snapshot of a hook-less stateful graph succeeded")
	}

	g2, src2, onNode2 := runtime.StreamApp()
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg2 := runtime.Config{
		Graph: g2, OnNode: onNode2, Platform: platform.TMoteSky(),
		Nodes: 2, Duration: 8, Seed: 1, WindowSeconds: 2,
	}
	sess2, err := runtime.NewSession(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess2.Offer(0, runtime.Arrival{Time: 3, Source: src2, Value: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	data, err := sess2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*runtime.Config){
		func(c *runtime.Config) { c.Seed = 2 },
		func(c *runtime.Config) { c.Nodes = 3 },
		func(c *runtime.Config) { c.Duration = 16 },
		func(c *runtime.Config) { c.WindowSeconds = 4 },
		func(c *runtime.Config) { c.OnNode = map[int]bool{src2.ID(): true} },
	} {
		c := cfg2
		mutate(&c)
		if s, err := runtime.ResumeSession(c, data); err == nil {
			s.Close()
			t.Fatalf("resume under a mismatched config succeeded")
		}
	}
	if _, err := runtime.ResumeSession(cfg2, data[:len(data)-1]); err == nil {
		t.Fatal("resume of a truncated snapshot succeeded")
	}
}
