package runtime_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"wishbone/internal/apps/speech"
	"wishbone/internal/dataflow"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
)

// localHosts opens one in-process shard host per origin subset.
func localHosts(t *testing.T, cfg runtime.Config, parts [][]int) []runtime.HostBinding {
	t.Helper()
	hosts := make([]runtime.HostBinding, len(parts))
	for i, origins := range parts {
		h, err := runtime.NewShardHost(cfg, origins)
		if err != nil {
			t.Fatalf("host %d: %v", i, err)
		}
		hosts[i] = runtime.HostBinding{Driver: h, Origins: origins}
	}
	return hosts
}

// sessionSnapshot offers feed[:cut] to a fresh Session and freezes it.
func sessionSnapshot(t *testing.T, cfg runtime.Config, feed []feedItem, cut int) []byte {
	t.Helper()
	sess, err := runtime.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range feed[:cut] {
		if err := sess.Offer(f.node, f.a); err != nil {
			t.Fatal(err)
		}
	}
	data, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// distSnapshot offers feed[:cut] to a DistSession over in-process hosts
// and freezes it.
func distSnapshot(t *testing.T, cfg runtime.Config, feed []feedItem, cut int, parts [][]int) []byte {
	t.Helper()
	ds, err := runtime.NewDistSession(cfg, localHosts(t, cfg, parts))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range feed[:cut] {
		if err := ds.Offer(f.node, f.a); err != nil {
			t.Fatal(err)
		}
	}
	data, err := ds.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// boundaryCut is the offer count just past the first arrival at or beyond
// t: every earlier window has flushed and the buffer holds that one
// arrival — the closest an in-progress stream gets to a bare boundary.
func boundaryCut(feed []feedItem, t float64) int {
	for i, f := range feed {
		if f.a.Time >= t {
			return i + 1
		}
	}
	return len(feed)
}

// TestSnapshotBytesPlacementInvariant pins that the snapshot encoding has
// one spelling: a Session at any Shards/Workers, a DistSession at any
// host count, and MigrateSnapshot's decode→encode onto the unchanged cut
// all freeze the same run at the same point into the same bytes.
func TestSnapshotBytesPlacementInvariant(t *testing.T) {
	type run struct {
		name string
		cfg  runtime.Config
		feed []feedItem
	}
	var runs []run
	app := speech.New()
	for _, prefix := range []int{1, 3} {
		cfg := runtime.Config{
			Graph: app.Graph, OnNode: speechCutOnNode(app, prefix), Platform: platform.Gumstix(),
			Nodes: 4, Duration: 8, Seed: int64(40 + prefix), WindowSeconds: 2,
		}
		runs = append(runs, run{
			name: fmt.Sprintf("speech-cut%d", prefix), cfg: cfg,
			feed: mergedFeed(t, cfg.Nodes, cfg.Duration, func(n int) []profile.Input {
				return []profile.Input{app.SampleTrace(int64(300+n), 2.0)}
			}),
		})
	}
	g, src, onNode := snapshotReduceApp()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	rcfg := runtime.Config{
		Graph: g, OnNode: onNode, Platform: platform.TMoteSky(),
		Nodes: 5, Duration: 24, Seed: 11, WindowSeconds: 4,
	}
	runs = append(runs, run{
		name: "reduce", cfg: rcfg,
		feed: mergedFeed(t, rcfg.Nodes, rcfg.Duration, func(n int) []profile.Input {
			return []profile.Input{{Source: src,
				Events: []dataflow.Value{[]float64{float64(n + 2), 7}}, Rate: 4}}
		}),
	})

	for _, r := range runs {
		cuts := map[string]int{
			"mid-window": len(r.feed) * 5 / 8,
			"boundary":   boundaryCut(r.feed, 2*r.cfg.WindowSeconds),
		}
		for where, cut := range cuts {
			one := r.cfg
			one.Shards, one.Workers = 1, 1
			ref := sessionSnapshot(t, one, r.feed, cut)
			if len(ref) < 64 {
				t.Fatalf("%s %s: degenerate %d-byte snapshot", r.name, where, len(ref))
			}
			check := func(variant string, got []byte) {
				t.Helper()
				if !bytes.Equal(got, ref) {
					t.Fatalf("%s %s: %s snapshot (%d bytes) differs from the Shards=Workers=1 Session's (%d bytes)",
						r.name, where, variant, len(got), len(ref))
				}
			}
			two := r.cfg
			two.Shards, two.Workers = 2, 2
			check("Shards=Workers=2 Session", sessionSnapshot(t, two, r.feed, cut))
			for _, hosts := range []int{1, 2, r.cfg.Nodes} {
				check("DistSession", distSnapshot(t, r.cfg, r.feed, cut, runtime.PartitionOrigins(r.cfg.Nodes, hosts)))
			}
			migrated, err := runtime.MigrateSnapshot(r.cfg.Graph, ref, r.cfg.OnNode)
			if err != nil {
				t.Fatal(err)
			}
			check("MigrateSnapshot onto the same cut", migrated)
		}
	}
}

// goldenRun is the run behind testdata/: speech cut after hamming (a
// stateful operator on each side of the cut), frozen ten arrivals into its
// third window — mid-window, yet small enough to commit.
func goldenRun(t *testing.T) (runtime.Config, []feedItem, int) {
	t.Helper()
	app := speech.New()
	cfg := runtime.Config{
		Graph: app.Graph, OnNode: speechCutOnNode(app, 3), Platform: platform.Gumstix(),
		Nodes: 4, Duration: 8, Seed: 43, WindowSeconds: 2,
	}
	feed := mergedFeed(t, cfg.Nodes, cfg.Duration, func(n int) []profile.Input {
		return []profile.Input{app.SampleTrace(int64(300+n), 2.0)}
	})
	return cfg, feed, boundaryCut(feed, 2*cfg.WindowSeconds) + 9
}

// goldenCheckpointAfter is how many Checkpoint calls host 0 answers
// before testdata/host_v1.ckpt's boundary: the golden blob is its second.
const goldenCheckpointAfter = 1

// TestSnapshotGoldenV1 reads blobs written by the commit before the codec
// was collapsed to one implementation (15237f9): the session snapshot
// must still be what this build writes for the same run, resume to the
// uninterrupted run's Result, and survive decode→encode unchanged; the
// host checkpoint must still be what a host writes at that boundary and
// recover a killed host to the uninterrupted Result.
func TestSnapshotGoldenV1(t *testing.T) {
	cfg, feed, cut := goldenRun(t)
	ref := runChained(t, []runtime.Config{cfg}, feed, nil)

	golden, err := os.ReadFile(filepath.Join("testdata", "session_v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sessionSnapshot(t, cfg, feed, cut); !bytes.Equal(got, golden) {
		t.Fatalf("this build freezes the golden run into %d bytes that differ from session_v1.snap (%d bytes)", len(got), len(golden))
	}
	reenc, err := runtime.MigrateSnapshot(cfg.Graph, golden, cfg.OnNode)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc, golden) {
		t.Fatal("session_v1.snap does not survive decode→encode byte-identically")
	}
	sess, err := runtime.ResumeSession(cfg, golden)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range feed[cut:] {
		if err := sess.Offer(f.node, f.a); err != nil {
			t.Fatal(err)
		}
	}
	got, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if *got != *ref {
		t.Fatalf("session_v1.snap resumes to a different Result:\nref: %+v\ngot: %+v", *ref, *got)
	}

	// The host blob: host 0 of a two-host placement dies right after its
	// second checkpoint; the replacement restores from the committed file
	// rather than the blob the coordinator retained.
	goldenHost, err := os.ReadFile(filepath.Join("testdata", "host_v1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	hosts := localHosts(t, cfg, runtime.PartitionOrigins(cfg.Nodes, 2))
	fuse := &hostFuse{op: "compute", after: goldenCheckpointAfter + 1}
	hosts[0].Driver = &flakyHost{inner: hosts[0].Driver, fuse: fuse}
	ds, err := runtime.NewDistSession(cfg, hosts)
	if err != nil {
		t.Fatal(err)
	}
	reopened := false
	ds.EnableRecovery(&runtime.DistRecovery{Every: 1, Reopen: func(host int, origins []int, ckpt []byte) (runtime.HostDriver, error) {
		if !bytes.Equal(ckpt, goldenHost) {
			t.Errorf("host 0's retained checkpoint (%d bytes) differs from host_v1.ckpt (%d bytes)", len(ckpt), len(goldenHost))
		}
		h, err := runtime.RestoreShardHostCheckpoint(cfg, origins, goldenHost)
		if err != nil {
			return nil, err
		}
		again, err := h.Checkpoint()
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(again, goldenHost) {
			t.Errorf("host_v1.ckpt does not survive restore→checkpoint byte-identically")
		}
		reopened = true
		return h, nil
	}})
	for _, f := range feed {
		if err := ds.Offer(f.node, f.a); err != nil {
			t.Fatal(err)
		}
	}
	got, err = ds.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reopened {
		t.Fatal("the injected host death never fired")
	}
	if *got != *ref {
		t.Fatalf("host_v1.ckpt recovers to a different Result:\nref: %+v\ngot: %+v", *ref, *got)
	}
}
