package runtime

import (
	"errors"
	"testing"

	"wishbone/internal/apps/speech"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
)

// TestSessionBackpressure pins the typed backpressure bound: a stream
// that pours arrivals into one window past Config.MaxBufferedArrivals
// must fail the Offer with ErrBackpressure (the partition service maps
// this to 429), not grow without bound and not report a client fault.
func TestSessionBackpressure(t *testing.T) {
	g, src, onNode := streamApp()
	sess, err := NewSession(Config{
		Graph: g, OnNode: onNode, Platform: losslessPlatform(),
		Nodes: 1, Duration: 1000, WindowSeconds: 1000,
		MaxBufferedArrivals: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got error
	for i := 0; i < 9; i++ {
		if got = sess.Offer(0, Arrival{Time: 0, Source: src, Value: []float64{1, 2}}); got != nil {
			break
		}
	}
	if !errors.Is(got, ErrBackpressure) {
		t.Fatalf("overflowing the window buffer returned %v, want ErrBackpressure", got)
	}
	if errors.Is(got, ErrBadArrival) {
		t.Fatalf("backpressure must not be classified as a bad arrival: %v", got)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchShardedNodePhase pins the batch path's origin-sharded
// node phase: Shards also partitions node simulation (pinned instances),
// and the Result must match the unsharded run exactly.
func TestBatchShardedNodePhase(t *testing.T) {
	app := speech.New()
	onNode := make(map[int]bool, len(app.Pipeline))
	for i, op := range app.Pipeline {
		onNode[op.ID()] = i < 5
	}
	traces := make([][]profile.Input, 8)
	for n := range traces {
		traces[n] = []profile.Input{app.SampleTrace(int64(700+n), 1.0)}
	}
	cfg := Config{
		Graph:    app.Graph,
		OnNode:   onNode,
		Platform: platform.TMoteSky(),
		Nodes:    8,
		Duration: 10,
		Seed:     23,
		Inputs:   func(nodeID int) []profile.Input { return traces[nodeID] },
	}
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct{ shards, workers int }{{3, 1}, {3, 4}, {8, 8}} {
		c := cfg
		c.Shards = v.shards
		c.Workers = v.workers
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if *res != *ref {
			t.Fatalf("shards=%d/workers=%d diverges:\nref: %+v\ngot: %+v", v.shards, v.workers, *ref, *res)
		}
	}
}
