package runtime_test

import (
	"math/rand"
	"sort"
	"testing"

	"wishbone/internal/apps/eeg"
	"wishbone/internal/apps/speech"
	"wishbone/internal/dataflow"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
	"wishbone/internal/wire"
)

// feedItem is one arrival bound to its node, so a whole run's input can be
// replayed through any session chain in one globally time-ordered sequence.
type feedItem struct {
	node int
	a    runtime.Arrival
}

// mergedFeed materializes every node's arrival stream and merges them into
// the global offer order (nondecreasing time, ties by node).
func mergedFeed(t *testing.T, nodes int, duration float64, inputs func(int) []profile.Input) []feedItem {
	t.Helper()
	var feed []feedItem
	for n := 0; n < nodes; n++ {
		st, err := runtime.InputStream(inputs(n), 1, duration)
		if err != nil {
			t.Fatal(err)
		}
		for a, ok := st.Next(); ok; a, ok = st.Next() {
			feed = append(feed, feedItem{node: n, a: a})
		}
	}
	sort.SliceStable(feed, func(i, j int) bool {
		if feed[i].a.Time != feed[j].a.Time {
			return feed[i].a.Time < feed[j].a.Time
		}
		return feed[i].node < feed[j].node
	})
	return feed
}

// runChained replays feed through a chain of sessions: the run is
// snapshotted after each cut index and resumed under the next config in
// cfgs (cycling), exactly as a stream session migrating across processes
// with different placement settings. cuts==nil is the uninterrupted
// reference run.
func runChained(t *testing.T, cfgs []runtime.Config, feed []feedItem, cuts []int) *runtime.Result {
	t.Helper()
	sess, err := runtime.NewSession(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for i, cut := range cuts {
		for _, f := range feed[prev:cut] {
			if err := sess.Offer(f.node, f.a); err != nil {
				t.Fatalf("offer before cut %d: %v", cut, err)
			}
		}
		data, err := sess.Snapshot()
		if err != nil {
			t.Fatalf("snapshot at cut %d: %v", cut, err)
		}
		sess, err = runtime.ResumeSession(cfgs[(i+1)%len(cfgs)], data)
		if err != nil {
			t.Fatalf("resume at cut %d: %v", cut, err)
		}
		prev = cut
	}
	for _, f := range feed[prev:] {
		if err := sess.Offer(f.node, f.a); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkSnapshotParity asserts that snapshotting/resuming at a set of
// deterministic and random cut points — across varying shard/worker
// placements — reproduces the uninterrupted run byte-for-byte.
func checkSnapshotParity(t *testing.T, base runtime.Config, feed []feedItem, seed int64) *runtime.Result {
	t.Helper()
	variants := []runtime.Config{base, base, base}
	variants[1].Shards, variants[1].Workers = 3, 2
	variants[2].Shards, variants[2].Workers = 2, 1
	ref := runChained(t, variants[:1], feed, nil)

	rng := rand.New(rand.NewSource(seed))
	trials := [][]int{
		{0},         // snapshot before any input
		{len(feed)}, // snapshot after the last offer, before Close
		{len(feed) / 3, len(feed) / 2, len(feed) - 1}, // chained migrations
	}
	for i := 0; i < 3; i++ {
		a, b := rng.Intn(len(feed)+1), rng.Intn(len(feed)+1)
		if a > b {
			a, b = b, a
		}
		trials = append(trials, []int{a, b})
	}
	for _, cuts := range trials {
		if got := runChained(t, variants, feed, cuts); *got != *ref {
			t.Fatalf("snapshot at cuts %v diverges:\nref: %+v\ngot: %+v", cuts, *ref, *got)
		}
	}
	return ref
}

// TestSessionSnapshotResumeSpeech snapshots a streaming speech run at
// random points and resumes it under different shard placements. The
// prefix-1 cut relocates the stateful preemph/prefilt operators to the
// server, so per-origin state tables, loss-RNG positions and in-flight
// reassembly all cross the snapshot.
func TestSessionSnapshotResumeSpeech(t *testing.T) {
	app := speech.New()
	for _, prefix := range []int{1, 5} {
		base := runtime.Config{
			Graph:    app.Graph,
			OnNode:   speechCutOnNode(app, prefix),
			Platform: platform.Gumstix(),
			Nodes:    4,
			Duration: 8,
			Seed:     int64(60 + prefix),
			// Window chosen so cuts land mid-window as well as on
			// boundaries; the buffered tail travels in the snapshot.
			WindowSeconds: 2,
		}
		feed := mergedFeed(t, base.Nodes, base.Duration, func(n int) []profile.Input {
			return []profile.Input{app.SampleTrace(int64(300+n), 2.0)}
		})
		ref := checkSnapshotParity(t, base, feed, int64(prefix))
		if ref.MsgsSent == 0 || ref.ServerEmits == 0 {
			t.Fatalf("cut %d: degenerate run %+v", prefix, *ref)
		}
	}
}

// TestSessionSnapshotResumeEEG covers the unshardable path: the EEG
// `detect` operator is stateful in the Server namespace, so its single
// global state (plus the zip queues' cross-window buffers) must travel in
// the snapshot's Server section. The source-only cut ships every raw
// channel sample across the wire — zip queues, detect state, reassembly
// and loss RNG all live at the server; the full node cut exercises the
// node-side dc/FIR states instead.
func TestSessionSnapshotResumeEEG(t *testing.T) {
	app := eeg.NewWithChannels(4)
	inputs := app.SampleTrace(3, 16)
	nodeCut := make(map[int]bool)
	for _, op := range app.Graph.Operators() {
		nodeCut[op.ID()] = op.NS == dataflow.NSNode
	}
	sourceCut := make(map[int]bool)
	for _, in := range inputs {
		sourceCut[in.Source.ID()] = true
	}
	for name, onNode := range map[string]map[int]bool{"source-cut": sourceCut, "node-cut": nodeCut} {
		base := runtime.Config{
			Graph:         app.Graph,
			OnNode:        onNode,
			Platform:      platform.Gumstix(),
			Nodes:         3,
			Duration:      16,
			Seed:          17,
			WindowSeconds: 4,
		}
		feed := mergedFeed(t, base.Nodes, base.Duration, func(int) []profile.Input { return inputs })
		ref := checkSnapshotParity(t, base, feed, 7)
		if ref.InputEvents == 0 || ref.ProcessedEvents == 0 {
			t.Fatalf("%s: degenerate run %+v", name, *ref)
		}
		if name == "source-cut" && (ref.MsgsSent == 0 || ref.ServerEmits == 0) {
			t.Fatalf("source cut sent nothing to the server: %+v", *ref)
		}
	}
}

// snapshotReduceApp builds src → feat → counts(relocated, stateful with
// snapshot hooks) plus src → sum(reduce) → report: one cut edge into a
// relocated per-origin state table and one in-network aggregation edge
// whose pending rounds must cross the snapshot.
func snapshotReduceApp() (*dataflow.Graph, *dataflow.Operator, map[int]bool) {
	g := dataflow.New()
	src := g.Add(&dataflow.Operator{Name: "src", NS: dataflow.NSNode, SideEffect: true})
	feat := g.Add(&dataflow.Operator{Name: "feat", NS: dataflow.NSNode,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			w := v.([]float64)
			emit([]float64{w[0], w[0] * 2, 3, 4})
		}})
	counts := g.Add(&dataflow.Operator{
		Name: "counts", NS: dataflow.NSNode, Stateful: true,
		NewState: func() any { return new(int) },
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			n := ctx.State.(*int)
			*n++
			emit(*n)
		},
		SaveState: func(st any) ([]byte, error) {
			w := wire.NewSnapshotWriter()
			w.Int(int64(*st.(*int)))
			return w.Bytes(), nil
		},
		LoadState: func(data []byte) (any, error) {
			r, err := wire.NewSnapshotReader(data)
			if err != nil {
				return nil, err
			}
			n := new(int)
			*n = int(r.Int())
			return n, r.Err()
		},
	})
	sum := g.Add(&dataflow.Operator{
		Name: "sum", NS: dataflow.NSNode, Reduce: true,
		Combine: func(a, b dataflow.Value) dataflow.Value {
			return []float64{a.([]float64)[0] + b.([]float64)[0]}
		},
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			emit([]float64{v.([]float64)[0]})
		}})
	sink := g.Add(&dataflow.Operator{Name: "sink", NS: dataflow.NSServer, SideEffect: true,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {}})
	report := g.Add(&dataflow.Operator{Name: "report", NS: dataflow.NSServer, SideEffect: true,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {}})
	g.Connect(src, feat, 0)
	g.Connect(feat, counts, 0)
	g.Connect(counts, sink, 0)
	g.Connect(src, sum, 0)
	g.Connect(sum, report, 0)
	// counts stays on the server: a relocated stateful operator.
	onNode := map[int]bool{src.ID(): true, feat.ID(): true, sum.ID(): true}
	return g, src, onNode
}

// TestSessionSnapshotResumeReduce drives the reduce-aggregation graph:
// cross-window pending rounds, per-edge flush watermarks and the aggregate
// origin's fragmentation sequence all travel in the snapshot.
func TestSessionSnapshotResumeReduce(t *testing.T) {
	g, src, onNode := snapshotReduceApp()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	base := runtime.Config{
		Graph: g, OnNode: onNode, Platform: platform.TMoteSky(),
		Nodes: 5, Duration: 24, Seed: 11, WindowSeconds: 4,
	}
	feed := mergedFeed(t, base.Nodes, base.Duration, func(n int) []profile.Input {
		return []profile.Input{{Source: src,
			Events: []dataflow.Value{[]float64{float64(n + 2), 7}}, Rate: 4}}
	})
	ref := checkSnapshotParity(t, base, feed, 3)
	if ref.MsgsSent == 0 || ref.ServerEmits == 0 {
		t.Fatalf("degenerate run %+v", *ref)
	}
}

// TestSnapshotErrors pins the failure modes: a stateful operator without
// snapshot hooks fails with its name, and a snapshot only resumes into the
// run it was taken from.
func TestSnapshotErrors(t *testing.T) {
	g, src, onNode := snapshotReduceApp()
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

	g2, src2, onNode2 := snapshotReduceApp()
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
