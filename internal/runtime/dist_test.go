package runtime_test

import (
	"encoding/binary"
	"strings"
	"testing"

	"wishbone/internal/apps/eeg"
	"wishbone/internal/apps/speech"
	"wishbone/internal/dataflow"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
)

// runDist replays feed through a DistSession over in-process shard hosts
// with the given origin placement.
func runDist(t *testing.T, cfg runtime.Config, feed []feedItem, parts [][]int) *runtime.Result {
	t.Helper()
	hosts := make([]runtime.HostBinding, len(parts))
	for i, origins := range parts {
		h, err := runtime.NewShardHost(cfg, origins)
		if err != nil {
			t.Fatalf("host %d: %v", i, err)
		}
		hosts[i] = runtime.HostBinding{Driver: h, Origins: origins}
	}
	ds, err := runtime.NewDistSession(cfg, hosts)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range feed {
		if err := ds.Offer(f.node, f.a); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ds.Close()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// placements sweeps the ISSUE's required host layouts: everything on one
// host (1×N), an even two-way split (2×N/2), one origin per host (N×1),
// and the round-robin layout the coordinator uses by default.
func placements(nodes int) [][][]int {
	var all []int
	for n := 0; n < nodes; n++ {
		all = append(all, n)
	}
	single := [][]int{all}
	half := [][]int{all[:nodes/2], all[nodes/2:]}
	perNode := make([][]int, nodes)
	for n := 0; n < nodes; n++ {
		perNode[n] = []int{n}
	}
	return [][][]int{single, half, perNode, runtime.PartitionOrigins(nodes, 3)}
}

// checkDistParity runs the single-host streaming reference and requires
// byte-identical Results from every distributed placement.
func checkDistParity(t *testing.T, base runtime.Config, feed []feedItem) *runtime.Result {
	t.Helper()
	ref := runChained(t, []runtime.Config{base}, feed, nil)
	for pi, parts := range placements(base.Nodes) {
		for _, shards := range []int{0, 2} {
			cfg := base
			cfg.Shards = shards
			if got := runDist(t, cfg, feed, parts); *got != *ref {
				t.Fatalf("placement %d (%d hosts, shards=%d) diverges:\nref: %+v\ngot: %+v",
					pi, len(parts), shards, *ref, *got)
			}
		}
	}
	return ref
}

// TestDistributedParitySpeech pins distributed byte-identity on the
// speech app: the prefix-1 cut relocates the stateful preemph/prefilt
// operators, so each host's per-origin state tables, loss RNG streams and
// reassembly must behave exactly as their slice of the single-host run.
func TestDistributedParitySpeech(t *testing.T) {
	app := speech.New()
	for _, prefix := range []int{1, 5} {
		base := runtime.Config{
			Graph:         app.Graph,
			OnNode:        speechCutOnNode(app, prefix),
			Platform:      platform.Gumstix(),
			Nodes:         6,
			Duration:      10,
			Seed:          int64(80 + prefix),
			WindowSeconds: 2,
		}
		feed := mergedFeed(t, base.Nodes, base.Duration, func(n int) []profile.Input {
			return []profile.Input{app.SampleTrace(int64(500+n), 2.0)}
		})
		ref := checkDistParity(t, base, feed)
		if ref.MsgsSent == 0 || ref.ServerEmits == 0 {
			t.Fatalf("cut %d: degenerate run %+v", prefix, *ref)
		}
	}
}

// TestDistributedParityReduce covers in-network aggregation: reduce
// rounds combine contributions across origins owned by different hosts,
// so every contribution crosses the barrier to the coordinator and the
// aggregates deliver through the coordinator's own plan.
func TestDistributedParityReduce(t *testing.T) {
	g, src, onNode := snapshotReduceApp()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	base := runtime.Config{
		Graph: g, OnNode: onNode, Platform: platform.TMoteSky(),
		Nodes: 5, Duration: 24, Seed: 21, WindowSeconds: 4,
	}
	feed := mergedFeed(t, base.Nodes, base.Duration, func(n int) []profile.Input {
		return []profile.Input{{Source: src,
			Events: []dataflow.Value{[]float64{float64(n + 2), 7}}, Rate: 4}}
	})
	ref := checkDistParity(t, base, feed)
	if ref.MsgsSent == 0 || ref.ServerEmits == 0 {
		t.Fatalf("degenerate run %+v", *ref)
	}
}

// corruptReduceHost rewrites every reduce contribution its host reports
// the way a buggy or hostile peer could.
type corruptReduceHost struct {
	runtime.HostDriver
	corrupt func(*runtime.ReduceMsg)
}

func (h corruptReduceHost) ComputeWindow(span float64, arrivals []runtime.HostArrival) (*runtime.WindowReport, error) {
	rep, err := h.HostDriver.ComputeWindow(span, arrivals)
	if err == nil {
		for i := range rep.Reduce {
			h.corrupt(&rep.Reduce[i])
		}
	}
	return rep, err
}

// TestDistMalformedReduceReply pins what the coordinator does with a
// reduce reply it cannot trust, in its own process with no recover above
// it: a payload that does not decode (the element-count overflow that used
// to panic inside wire.Unmarshal) and a contribution for a node outside
// the deployment or owned by another host (an out-of-range node used to
// panic in the aggregator's round counters; another host's node advanced
// the wrong one). The caller gets an error for each.
func TestDistMalformedReduceReply(t *testing.T) {
	g, src, onNode := snapshotReduceApp()
	cfg := runtime.Config{
		Graph: g, OnNode: onNode, Platform: platform.TMoteSky(),
		Nodes: 2, Duration: 8, Seed: 21, WindowSeconds: 4,
	}
	feed := mergedFeed(t, cfg.Nodes, cfg.Duration, func(n int) []profile.Input {
		return []profile.Input{{Source: src,
			Events: []dataflow.Value{[]float64{float64(n + 2), 7}}, Rate: 4}}
	})
	// tagFloat64s, then uvarint(1<<61): 10 bytes claiming 2^64 bytes of payload.
	bad := binary.AppendUvarint([]byte{0x14}, 1<<61)
	node := func(n int) func(*runtime.ReduceMsg) {
		return func(rm *runtime.ReduceMsg) { rm.Node = n }
	}
	for _, tc := range []struct {
		name    string
		corrupt func(*runtime.ReduceMsg)
		want    string
	}{
		{"undecodable payload", func(rm *runtime.ReduceMsg) { rm.Data = bad }, "reduce contribution does not decode"},
		{"negative node", node(-1), "which it does not own"},
		{"node past the deployment", node(cfg.Nodes), "which it does not own"},
		{"another host's node", node(1), "which it does not own"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hosts := make([]runtime.HostBinding, cfg.Nodes)
			for n := range hosts {
				h, err := runtime.NewShardHost(cfg, []int{n})
				if err != nil {
					t.Fatal(err)
				}
				hosts[n] = runtime.HostBinding{Driver: h, Origins: []int{n}}
			}
			hosts[0].Driver = corruptReduceHost{HostDriver: hosts[0].Driver, corrupt: tc.corrupt}
			ds, err := runtime.NewDistSession(cfg, hosts)
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Abort()
			for _, f := range feed {
				if err = ds.Offer(f.node, f.a); err != nil {
					break
				}
			}
			if err == nil {
				_, err = ds.Close()
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// corruptCloseHost rewrites the first busy entry of its host's close reply
// to name another node, and counts the Aborts the coordinator sends it.
type corruptCloseHost struct {
	runtime.HostDriver
	node   int
	aborts *int
}

func (h corruptCloseHost) Close() (*runtime.HostResult, error) {
	hr, err := h.HostDriver.Close()
	if err == nil {
		hr.NodeBusy[0].Node = h.node
	}
	return hr, err
}

func (h corruptCloseHost) Abort() {
	*h.aborts++
	h.HostDriver.Abort()
}

// TestDistMalformedCloseReply pins what Close does with busy seconds for a
// node the reporting host does not own — out of range, or another host's
// (which used to overwrite the owner's entry in the NodeCPU sum): an error,
// and a session that is closed, so the deferred Abort reaches no host.
func TestDistMalformedCloseReply(t *testing.T) {
	app := speech.New()
	cfg := runtime.Config{
		Graph: app.Graph, OnNode: speechCutOnNode(app, 1), Platform: platform.Gumstix(),
		Nodes: 2, Duration: 2, Seed: 5, WindowSeconds: 1,
	}
	feed := mergedFeed(t, cfg.Nodes, cfg.Duration, func(n int) []profile.Input {
		return []profile.Input{app.SampleTrace(int64(700+n), 2.0)}
	})
	for _, tc := range []struct {
		name string
		node int
	}{
		{"negative node", -1},
		{"node past the deployment", cfg.Nodes},
		{"another host's node", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			aborts := 0
			hosts := make([]runtime.HostBinding, cfg.Nodes)
			for n := range hosts {
				h, err := runtime.NewShardHost(cfg, []int{n})
				if err != nil {
					t.Fatal(err)
				}
				hosts[n] = runtime.HostBinding{Driver: h, Origins: []int{n}}
			}
			hosts[0].Driver = corruptCloseHost{HostDriver: hosts[0].Driver, node: tc.node, aborts: &aborts}
			ds, err := runtime.NewDistSession(cfg, hosts)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range feed {
				if err := ds.Offer(f.node, f.a); err != nil {
					t.Fatal(err)
				}
			}
			_, err = ds.Close()
			if err == nil || !strings.Contains(err.Error(), "which it does not own") {
				t.Fatalf("got %v, want the busy-for-foreign-node error", err)
			}
			ds.Abort()
			if aborts != 0 {
				t.Errorf("Abort after a failed Close reached the host %d time(s)", aborts)
			}
		})
	}
}

// TestDistributedSnapshotInterplay chains both tentpole pieces: the
// single-host reference, a distributed run, and a run that streams
// through a Session, snapshots mid-stream, and resumes — all three must
// agree byte-for-byte.
func TestDistributedSnapshotInterplay(t *testing.T) {
	app := speech.New()
	base := runtime.Config{
		Graph:         app.Graph,
		OnNode:        speechCutOnNode(app, 1),
		Platform:      platform.Gumstix(),
		Nodes:         4,
		Duration:      8,
		Seed:          33,
		WindowSeconds: 2,
	}
	feed := mergedFeed(t, base.Nodes, base.Duration, func(n int) []profile.Input {
		return []profile.Input{app.SampleTrace(int64(900+n), 2.0)}
	})
	ref := runChained(t, []runtime.Config{base}, feed, nil)
	dist := runDist(t, base, feed, runtime.PartitionOrigins(base.Nodes, 2))
	snap := runChained(t, []runtime.Config{base}, feed, []int{len(feed) / 2})
	if *dist != *ref || *snap != *ref {
		t.Fatalf("paths diverge:\nref:  %+v\ndist: %+v\nsnap: %+v", *ref, *dist, *snap)
	}
}

// TestDistributableFallback pins the local-fallback predicate: the EEG
// app's global `detect` state cannot be split by origin, and host
// construction refuses it too.
func TestDistributableFallback(t *testing.T) {
	app := eeg.NewWithChannels(2)
	onNode := make(map[int]bool)
	for _, op := range app.Graph.Operators() {
		onNode[op.ID()] = op.NS == dataflow.NSNode
	}
	cfg := runtime.Config{
		Graph: app.Graph, OnNode: onNode, Platform: platform.Gumstix(),
		Nodes: 2, Duration: 4, Seed: 1, WindowSeconds: 2,
	}
	if runtime.Distributable(cfg) {
		t.Fatal("EEG partition reported distributable despite global server state")
	}
	if _, err := runtime.NewShardHost(cfg, []int{0}); err == nil {
		t.Fatal("NewShardHost accepted a partition with global server state")
	}
	sp := speech.New()
	good := runtime.Config{
		Graph: sp.Graph, OnNode: speechCutOnNode(sp, 1), Platform: platform.Gumstix(),
		Nodes: 2, Duration: 4, Seed: 1, WindowSeconds: 2,
	}
	if !runtime.Distributable(good) {
		t.Fatal("speech partition reported not distributable")
	}
}
