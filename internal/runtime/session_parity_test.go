package runtime

import (
	"errors"
	"testing"

	"wishbone/internal/apps/eeg"
	"wishbone/internal/apps/speech"
	"wishbone/internal/dataflow"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
)

// The session parity suite pins the streaming invariant: a Session —
// whose window w delivers behind the caller's ingest of window w+1
// (stream.go) — produces a Result byte-identical, for steady-rate,
// window-divisible traces, to the batch path at every Shards/Workers
// combination. CI runs these under -race: the delivery goroutine and the
// Offer caller both touch the session.

// sessionVariants are the Shards/Workers placements every parity test
// sweeps.
var sessionVariants = []struct {
	name            string
	shards, workers int
}{
	{"shards=0/workers=1", 0, 1},
	{"shards=4/workers=1", 4, 1},
	{"shards=0/workers=4", 0, 4},
	{"shards=2/workers=2", 2, 2},
	{"shards=4/workers=4", 4, 4},
	{"shards=8/workers=8", 8, 8},
}

// runSessionVariants drives cfg's arrival streams through a Session per
// variant and requires every Result to be byte-identical to ref.
func runSessionVariants(t *testing.T, cfg Config, ref *Result, refName string) {
	t.Helper()
	for _, v := range sessionVariants {
		c := cfg
		c.Shards = v.shards
		c.Workers = v.workers
		sess, err := NewSession(c)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		res, err := feedStreams(sess, &c)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if *res != *ref {
			t.Fatalf("%s diverges from %s:\nref: %+v\ngot: %+v", v.name, refName, *ref, *res)
		}
	}
}

// feedStreams pushes cfg.ArrivalSource's merged streams through sess —
// runStream, but against a Session built by the caller.
func feedStreams(sess *Session, cfg *Config) (*Result, error) {
	if err := Feed(sess, cfg); err != nil {
		sess.Close()
		return nil, err
	}
	return sess.Close()
}

// TestSessionParitySpeech sweeps a server-heavy and a node-heavy speech
// cut on a multi-node network with per-node traces. The prefix-1 cut
// relocates the stateful preemph/prefilt operators, exercising per-origin
// state tables across concurrently delivering shards; the trace is steady
// rate (40 ev/s, period 1/40 s) and the window (2 s) divides the duration
// (12 s), so the streaming Results must also be byte-identical to batch.
func TestSessionParitySpeech(t *testing.T) {
	app := speech.New()
	for _, prefix := range []int{1, 5} {
		onNode := make(map[int]bool, len(app.Pipeline))
		for i, op := range app.Pipeline {
			onNode[op.ID()] = i < prefix
		}
		traces := make([][]profile.Input, 6)
		for n := range traces {
			traces[n] = []profile.Input{app.SampleTrace(int64(300+n), 2.0)}
		}
		cfg := Config{
			Graph:    app.Graph,
			OnNode:   onNode,
			Platform: platform.Gumstix(),
			Nodes:    6,
			Duration: 12,
			Seed:     int64(40 + prefix),
			Inputs:   func(nodeID int) []profile.Input { return traces[nodeID] },
		}
		batch, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if batch.MsgsSent == 0 || batch.ServerEmits == 0 {
			t.Fatalf("cut %d: degenerate run %+v", prefix, *batch)
		}
		stream := cfg
		stream.Inputs = nil
		stream.WindowSeconds = 2
		stream.ArrivalSource = func(nodeID int) (Stream, error) {
			return InputStream(traces[nodeID], 1, cfg.Duration)
		}
		runSessionVariants(t, stream, batch, "batch")
	}
}

// TestSessionParityEEG covers the sequential-delivery fallback: the EEG
// app's `detect` operator is stateful in the Server namespace, so the
// delivery plan quietly collapses to one shard behind the sharded node
// phase, and the Result must stay byte-identical to batch (window 4 s
// divides the 2 s trace period and the 12 s duration).
func TestSessionParityEEG(t *testing.T) {
	app := eeg.NewWithChannels(4)
	onNode := make(map[int]bool)
	for _, op := range app.Graph.Operators() {
		onNode[op.ID()] = op.NS == dataflow.NSNode
	}
	inputs := app.SampleTrace(3, 12)
	cfg := Config{
		Graph:    app.Graph,
		OnNode:   onNode,
		Platform: platform.Gumstix(),
		Nodes:    3,
		Duration: 12,
		Seed:     17,
		// Own copies of the events: every replica executes, none replays.
		Inputs: func(nodeID int) []profile.Input { return OwnEvents(inputs) },
	}
	if shardable(&cfg) {
		t.Fatal("EEG app must exercise the sequential-delivery fallback")
	}
	batch, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if batch.InputEvents == 0 {
		t.Fatal("no input offered")
	}
	stream := cfg
	stream.Inputs = nil
	stream.WindowSeconds = 4
	stream.ArrivalSource = func(nodeID int) (Stream, error) {
		return InputStream(inputs, 1, cfg.Duration)
	}
	runSessionVariants(t, stream, batch, "batch")
}

// TestSessionParityReduce runs the reduce-aggregation stream app:
// aggregates are finalized by the caller between the stages and delivered
// on the AggregateOrigin shard — Close's reduce tail behind the last
// window's delivery — and must match the batch path exactly.
func TestSessionParityReduce(t *testing.T) {
	g, src, onNode := streamApp()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	inputs := streamInputs(src, 4)
	cfg := Config{
		Graph: g, OnNode: onNode, Platform: platform.TMoteSky(),
		Nodes: 4, Duration: 64, Seed: 11,
		Inputs: func(nodeID int) []profile.Input { return inputs },
	}
	batch, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := cfg
	stream.Inputs = nil
	stream.WindowSeconds = 16
	stream.ArrivalSource = func(nodeID int) (Stream, error) {
		return InputStream(inputs, 1, cfg.Duration)
	}
	runSessionVariants(t, stream, batch, "batch")
}

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
