package runtime_test

import (
	"errors"
	"fmt"
	"testing"

	"wishbone/internal/apps/speech"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
)

// hostFuse schedules one injected host death: the fuse blows on the
// (after+1)-th call of kind op, and every call after that fails too (a
// dead host stays dead — the coordinator must stop talking to it).
type hostFuse struct {
	op    string
	after int
	dead  bool
	fired bool
}

// flakyHost wraps a real in-process driver with a hostFuse. Failures
// wrap runtime.ErrHostDown, exactly like the HTTP driver's terminal
// transport errors.
type flakyHost struct {
	inner runtime.HostDriver
	fuse  *hostFuse
}

func (f *flakyHost) trip(op string) error {
	if f.fuse.dead {
		return fmt.Errorf("injected %s on dead host: %w", op, runtime.ErrHostDown)
	}
	if f.fuse.op == op {
		if f.fuse.after == 0 {
			f.fuse.dead, f.fuse.fired = true, true
			return fmt.Errorf("injected crash at %s: %w", op, runtime.ErrHostDown)
		}
		f.fuse.after--
	}
	return nil
}

func (f *flakyHost) ComputeWindow(arrivals []runtime.HostArrival) (*runtime.WindowReport, error) {
	if err := f.trip("compute"); err != nil {
		return nil, err
	}
	return f.inner.ComputeWindow(arrivals)
}

func (f *flakyHost) DeliverWindow(ratio float64) error {
	if err := f.trip("deliver"); err != nil {
		return err
	}
	return f.inner.DeliverWindow(ratio)
}

func (f *flakyHost) Checkpoint() ([]byte, error) {
	if err := f.trip("checkpoint"); err != nil {
		return nil, err
	}
	return f.inner.Checkpoint()
}

func (f *flakyHost) Close() (*runtime.HostResult, error) {
	if err := f.trip("close"); err != nil {
		return nil, err
	}
	return f.inner.Close()
}

func (f *flakyHost) Abort() { f.inner.Abort() }

// localReopen is the in-process DistRecovery.Reopen: restore the lost
// origins from the checkpoint blob on a fresh local host (or start fresh
// when the host died before its first checkpoint).
func localReopen(cfg runtime.Config) func(host int, origins []int, ckpt []byte) (runtime.HostDriver, error) {
	return func(host int, origins []int, ckpt []byte) (runtime.HostDriver, error) {
		var h *runtime.ShardHost
		var err error
		if len(ckpt) > 0 {
			h, err = runtime.RestoreShardHostCheckpoint(cfg, origins, ckpt)
		} else {
			h, err = runtime.NewShardHost(cfg, origins)
		}
		if err != nil {
			return nil, err
		}
		return h, nil
	}
}

func recoverySpeechConfig() (runtime.Config, *speech.App) {
	app := speech.New()
	return runtime.Config{
		Graph:         app.Graph,
		OnNode:        speechCutOnNode(app, 1),
		Platform:      platform.Gumstix(),
		Nodes:         6,
		Duration:      10,
		Seed:          97,
		WindowSeconds: 2,
	}, app
}

func recoverySpeechFeed(t *testing.T, base runtime.Config, app *speech.App) []feedItem {
	t.Helper()
	return mergedFeed(t, base.Nodes, base.Duration, func(n int) []profile.Input {
		return []profile.Input{app.SampleTrace(int64(700+n), 2.0)}
	})
}

// TestDistRecoveryParity kills host 0 of a two-host placement at every
// failure surface the coordinator drives — compute, deliver, checkpoint,
// close — sweeping the kill point and the checkpoint cadence, and
// requires the recovered Result byte-identical to the uninterrupted
// single-host run (the repo's core invariant, now under failures).
func TestDistRecoveryParity(t *testing.T) {
	base, app := recoverySpeechConfig()
	feed := recoverySpeechFeed(t, base, app)
	ref := runChained(t, []runtime.Config{base}, feed, nil)
	if ref.MsgsSent == 0 || ref.ServerEmits == 0 {
		t.Fatalf("degenerate reference %+v", *ref)
	}

	anyFired := false
	for _, every := range []int{1, 3} {
		for _, op := range []string{"compute", "deliver", "checkpoint", "close"} {
			for _, after := range []int{0, 1, 3} {
				name := fmt.Sprintf("every=%d/%s/after=%d", every, op, after)
				fuse := &hostFuse{op: op, after: after}
				parts := runtime.PartitionOrigins(base.Nodes, 2)
				hosts := make([]runtime.HostBinding, len(parts))
				for i, origins := range parts {
					h, err := runtime.NewShardHost(base, origins)
					if err != nil {
						t.Fatalf("%s: host %d: %v", name, i, err)
					}
					var d runtime.HostDriver = h
					if i == 0 {
						d = &flakyHost{inner: d, fuse: fuse}
					}
					hosts[i] = runtime.HostBinding{Driver: d, Origins: origins}
				}
				ds, err := runtime.NewDistSession(base, hosts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ds.EnableRecovery(&runtime.DistRecovery{Every: every, Reopen: localReopen(base)})
				for i, f := range feed {
					if err := ds.Offer(f.node, f.a); err != nil {
						t.Fatalf("%s: offer %d: %v", name, i, err)
					}
				}
				got, err := ds.Close()
				if err != nil {
					t.Fatalf("%s: close: %v", name, err)
				}
				if fuse.fired {
					anyFired = true
					if len(ds.Recoveries()) == 0 {
						t.Fatalf("%s: fuse fired but no recovery recorded", name)
					}
					ev := ds.Recoveries()[0]
					if ev.Host != 0 || ev.Op != op || len(ev.Origins) == 0 {
						t.Fatalf("%s: bad recovery event %+v", name, ev)
					}
				}
				if *got != *ref {
					t.Fatalf("%s: recovered run diverges:\nref: %+v\ngot: %+v", name, *ref, *got)
				}
			}
		}
	}
	if !anyFired {
		t.Fatal("no fuse ever fired; the sweep tested nothing")
	}
}

// TestDistRecoveryRepeatedFailures keeps killing the replacement too:
// every reopened driver dies again after one more window, three times
// over, and the run still finishes byte-identical.
func TestDistRecoveryRepeatedFailures(t *testing.T) {
	base, app := recoverySpeechConfig()
	feed := recoverySpeechFeed(t, base, app)
	ref := runChained(t, []runtime.Config{base}, feed, nil)

	kills := 0
	const maxKills = 3
	inner := localReopen(base)
	reopen := func(host int, origins []int, ckpt []byte) (runtime.HostDriver, error) {
		d, err := inner(host, origins, ckpt)
		if err != nil || kills >= maxKills {
			return d, err
		}
		kills++
		return &flakyHost{inner: d, fuse: &hostFuse{op: "compute", after: 1}}, nil
	}

	parts := runtime.PartitionOrigins(base.Nodes, 2)
	hosts := make([]runtime.HostBinding, len(parts))
	for i, origins := range parts {
		h, err := runtime.NewShardHost(base, origins)
		if err != nil {
			t.Fatal(err)
		}
		var d runtime.HostDriver = h
		if i == 0 {
			kills++
			d = &flakyHost{inner: d, fuse: &hostFuse{op: "compute", after: 0}}
		}
		hosts[i] = runtime.HostBinding{Driver: d, Origins: origins}
	}
	ds, err := runtime.NewDistSession(base, hosts)
	if err != nil {
		t.Fatal(err)
	}
	ds.EnableRecovery(&runtime.DistRecovery{Every: 1, Reopen: reopen})
	for i, f := range feed {
		if err := ds.Offer(f.node, f.a); err != nil {
			t.Fatalf("offer %d: %v", i, err)
		}
	}
	got, err := ds.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ds.Recoveries()); n < 2 {
		t.Fatalf("expected repeated recoveries, got %d", n)
	}
	if *got != *ref {
		t.Fatalf("repeatedly recovered run diverges:\nref: %+v\ngot: %+v", *ref, *got)
	}
}

// TestDistRecoverySnapshot loses a host at the freeze barrier itself:
// Snapshot recovers the host, snapshots the replacement, and the resumed
// continuation matches the plain snapshot/resume chain byte-for-byte.
func TestDistRecoverySnapshot(t *testing.T) {
	base, app := recoverySpeechConfig()
	feed := recoverySpeechFeed(t, base, app)
	cut := len(feed) / 2
	ref := runChained(t, []runtime.Config{base}, feed, []int{cut})

	// The freeze barrier is a checkpoint: arm the fuse for it only once the
	// window checkpoints before it have run.
	fuse := &hostFuse{}
	parts := runtime.PartitionOrigins(base.Nodes, 2)
	hosts := make([]runtime.HostBinding, len(parts))
	for i, origins := range parts {
		h, err := runtime.NewShardHost(base, origins)
		if err != nil {
			t.Fatal(err)
		}
		var d runtime.HostDriver = h
		if i == 0 {
			d = &flakyHost{inner: d, fuse: fuse}
		}
		hosts[i] = runtime.HostBinding{Driver: d, Origins: origins}
	}
	ds, err := runtime.NewDistSession(base, hosts)
	if err != nil {
		t.Fatal(err)
	}
	ds.EnableRecovery(&runtime.DistRecovery{Every: 1, Reopen: localReopen(base)})
	for _, f := range feed[:cut] {
		if err := ds.Offer(f.node, f.a); err != nil {
			t.Fatal(err)
		}
	}
	fuse.op = "checkpoint"
	snap, err := ds.Snapshot()
	if err != nil {
		t.Fatalf("snapshot with host loss: %v", err)
	}
	if !fuse.fired {
		t.Fatal("snapshot fuse never fired")
	}
	sess, err := runtime.ResumeSession(base, snap)
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
		t.Fatalf("post-recovery snapshot chain diverges:\nref: %+v\ngot: %+v", *ref, *got)
	}
}

// TestDistRecoveryDisarmed pins the pre-recovery contract: without
// EnableRecovery a host death is fatal, surfaces the cause unchanged,
// and matches runtime.ErrHostDown for callers that classify.
func TestDistRecoveryDisarmed(t *testing.T) {
	base, app := recoverySpeechConfig()
	feed := recoverySpeechFeed(t, base, app)

	parts := runtime.PartitionOrigins(base.Nodes, 2)
	hosts := make([]runtime.HostBinding, len(parts))
	for i, origins := range parts {
		h, err := runtime.NewShardHost(base, origins)
		if err != nil {
			t.Fatal(err)
		}
		var d runtime.HostDriver = h
		if i == 0 {
			d = &flakyHost{inner: d, fuse: &hostFuse{op: "compute", after: 0}}
		}
		hosts[i] = runtime.HostBinding{Driver: d, Origins: origins}
	}
	ds, err := runtime.NewDistSession(base, hosts)
	if err != nil {
		t.Fatal(err)
	}
	var offerErr error
	for _, f := range feed {
		if offerErr = ds.Offer(f.node, f.a); offerErr != nil {
			break
		}
	}
	if offerErr == nil {
		_, offerErr = ds.Close()
	} else {
		ds.Abort()
	}
	if !errors.Is(offerErr, runtime.ErrHostDown) {
		t.Fatalf("unrecovered host death surfaced as %v; want ErrHostDown", offerErr)
	}
}
