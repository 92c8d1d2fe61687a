package runtime_test

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"wishbone/internal/apps/speech"
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

// sessionSnapshot offers feed[:cut] to a fresh Session — over in-process
// hosts owning parts, or on NewSession's one host when parts is nil — and
// freezes it.
func sessionSnapshot(t *testing.T, cfg runtime.Config, feed []feedItem, cut int, parts [][]int) []byte {
	t.Helper()
	var sess *runtime.Session
	var err error
	if parts == nil {
		sess, err = runtime.NewSession(cfg)
	} else {
		sess, err = runtime.NewDistSession(cfg, localHosts(t, cfg, parts))
	}
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
// one spelling: a Session at any Shards/Workers, a Session at any
// host count, and MigrateSnapshot's decode→encode onto the unchanged cut
// all freeze the same run at the same point into the same bytes.
func TestSnapshotBytesPlacementInvariant(t *testing.T) {
	app := speech.New()
	runs := []*schedCase{speechCase(t, app, 1, 4, 8, 41, 300), speechCase(t, app, 3, 4, 8, 43, 300), reduceCase(t, 11, 5, 24)}
	for _, r := range runs {
		cuts := map[string]int{
			"mid-window": len(r.feed) * 5 / 8,
			"boundary":   boundaryCut(r.feed, 2*r.cfg.WindowSeconds),
		}
		for where, cut := range cuts {
			one := r.cfg
			one.Shards, one.Workers = 1, 1
			ref := sessionSnapshot(t, one, r.feed, cut, nil)
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
			check("Shards=Workers=2 Session", sessionSnapshot(t, two, r.feed, cut, nil))
			for _, hosts := range []int{1, 2, r.cfg.Nodes} {
				check("multi-host Session", sessionSnapshot(t, r.cfg, r.feed, cut, runtime.PartitionOrigins(r.cfg.Nodes, hosts)))
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
	c := speechCase(t, speech.New(), 3, 4, 8, 43, 300)
	return c.cfg, c.feed, boundaryCut(c.feed, 2*c.cfg.WindowSeconds) + 9
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
	ref := &newCase("golden", cfg, feed).reference(t).res

	golden, err := os.ReadFile(filepath.Join("testdata", "session_v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sessionSnapshot(t, cfg, feed, cut, nil); !bytes.Equal(got, golden) {
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
	hosts[0].Driver = &flakyHost{inner: hosts[0].Driver, op: "compute", after: goldenCheckpointAfter + 1}
	ds, err := runtime.NewDistSession(cfg, hosts)
	if err != nil {
		t.Fatal(err)
	}
	reopened := false
	ds.EnableRecovery(&runtime.DistRecovery{Every: 1, Reopen: func(cfg runtime.Config, host int, origins []int, ckpt []byte) (runtime.HostDriver, error) {
		if !bytes.Equal(ckpt, goldenHost) {
			t.Errorf("host 0's retained checkpoint (%d bytes) differs from host_v1.ckpt (%d bytes)", len(ckpt), len(goldenHost))
		}
		h, err := runtime.RestoreShardHost(cfg, origins, goldenHost)
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

// TestHostShareRoundTrip pins the split every resume and replan handoff
// ships: testdata/session_v1.snap cut into per-host shares at each host
// count restores through RestoreShardHost, and each restored host
// checkpoints back exactly its share's bytes, whatever order the caller
// lists its origins in. A share for an origin outside the run, one of a
// different cut, and one restored under the wrong origin set are errors,
// not panics.
func TestHostShareRoundTrip(t *testing.T) {
	cfg, _, _ := goldenRun(t)
	golden, err := os.ReadFile(filepath.Join("testdata", "session_v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	for hosts := 1; hosts <= 4; hosts++ {
		parts := runtime.PartitionOrigins(cfg.Nodes, hosts)
		shares, err := runtime.HostShares(cfg, golden, parts)
		if err != nil {
			t.Fatalf("%d hosts: %v", hosts, err)
		}
		for i, origins := range parts {
			// Listed descending: the host sorts its origins, and the share
			// lists them ascending.
			desc := slices.Clone(origins)
			slices.Reverse(desc)
			h, err := runtime.RestoreShardHost(cfg, desc, shares[i])
			if err != nil {
				t.Fatalf("%d hosts, host %d: %v", hosts, i, err)
			}
			again, err := h.Checkpoint()
			h.Abort()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, shares[i]) {
				t.Fatalf("%d hosts, host %d: restore→checkpoint gives %d bytes, the share is %d", hosts, i, len(again), len(shares[i]))
			}
		}
	}

	if _, err := runtime.HostShares(cfg, golden, [][]int{{0, cfg.Nodes}}); err == nil {
		t.Fatal("a share for an origin outside [0, Nodes) succeeded")
	}
	other := cfg
	other.OnNode = map[int]bool{}
	for _, src := range cfg.Graph.Sources() {
		other.OnNode[src.ID()] = true
	}
	parts := runtime.PartitionOrigins(cfg.Nodes, 2)
	if _, err := runtime.HostShares(other, golden, parts); err == nil {
		t.Fatal("a share for a different cut succeeded")
	}
	shares, err := runtime.HostShares(cfg, golden, parts)
	if err != nil {
		t.Fatal(err)
	}
	if h, err := runtime.RestoreShardHost(other, parts[0], shares[0]); err == nil {
		h.Abort()
		t.Fatal("a share restored under a different cut succeeded")
	}
	if h, err := runtime.RestoreShardHost(cfg, parts[1], shares[0]); err == nil {
		h.Abort()
		t.Fatal("a share restored under the wrong origin set succeeded")
	}
}
