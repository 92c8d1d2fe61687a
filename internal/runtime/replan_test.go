package runtime_test

import (
	"sort"
	"testing"

	"wishbone/internal/apps/speech"
	"wishbone/internal/dataflow"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
)

// driftFeed builds a per-node arrival sequence whose rate jumps from
// baseRate to burstRate at duration/2 — the drift-injected trace every
// replan test streams. Values feed snapshotReduceApp's src operator.
func driftFeed(nodes int, duration, baseRate, burstRate float64, src *dataflow.Operator) []feedItem {
	var feed []feedItem
	for n := 0; n < nodes; n++ {
		emit := func(from, to, rate float64) {
			for t := from; t < to; t += 1 / rate {
				feed = append(feed, feedItem{node: n, a: runtime.Arrival{
					Time: t, Source: src, Value: []float64{float64(n + 2), 7},
				}})
			}
		}
		emit(0, duration/2, baseRate)
		emit(duration/2, duration, burstRate)
	}
	sort.SliceStable(feed, func(i, j int) bool {
		if feed[i].a.Time != feed[j].a.Time {
			return feed[i].a.Time < feed[j].a.Time
		}
		return feed[i].node < feed[j].node
	})
	return feed
}

// reduceCutB is snapshotReduceApp's cut with the stateful counts operator
// relocated from the server to the nodes.
func reduceCutB(g *dataflow.Graph, onNode map[int]bool) map[int]bool {
	cutB := make(map[int]bool, len(onNode))
	for id, v := range onNode {
		cutB[id] = v
	}
	for _, op := range g.Operators() {
		if op.Name == "counts" {
			cutB[op.ID()] = true
		}
	}
	return cutB
}

// TestMigrateSnapshotIdentity pins that migrating onto the unchanged cut
// is a no-op: resume from MigrateSnapshot's output equals resume from the
// raw snapshot, byte for byte.
func TestMigrateSnapshotIdentity(t *testing.T) {
	g, src, onNode := snapshotReduceApp()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	base := runtime.Config{
		Graph: g, OnNode: onNode, Platform: platform.TMoteSky(),
		Nodes: 4, Duration: 24, Seed: 9, WindowSeconds: 4,
	}
	feed := mergedFeed(t, base.Nodes, base.Duration, func(n int) []profile.Input {
		return []profile.Input{{Source: src,
			Events: []dataflow.Value{[]float64{float64(n + 2), 7}}, Rate: 4}}
	})
	ref := runChained(t, []runtime.Config{base}, feed, []int{len(feed) / 2})

	sess, err := runtime.NewSession(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range feed[:len(feed)/2] {
		if err := sess.Offer(f.node, f.a); err != nil {
			t.Fatal(err)
		}
	}
	data, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	migrated, err := runtime.MigrateSnapshot(g, data, onNode)
	if err != nil {
		t.Fatal(err)
	}
	sess, err = runtime.ResumeSession(base, migrated)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range feed[len(feed)/2:] {
		if err := sess.Offer(f.node, f.a); err != nil {
			t.Fatal(err)
		}
	}
	got, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if *got != *ref {
		t.Fatalf("identity migration diverges:\nref: %+v\ngot: %+v", *ref, *got)
	}
}

// TestMigrateSnapshotFreshStart uses the one point with an independent
// oracle: a snapshot taken before any input carries no accumulated state,
// so migrating it onto cut B and running the whole trace must equal a run
// born on cut B.
func TestMigrateSnapshotFreshStart(t *testing.T) {
	g, src, onNode := snapshotReduceApp()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cutB := reduceCutB(g, onNode)
	base := runtime.Config{
		Graph: g, OnNode: onNode, Platform: platform.TMoteSky(),
		Nodes: 4, Duration: 24, Seed: 13, WindowSeconds: 4,
	}
	cfgB := base
	cfgB.OnNode = cutB
	feed := mergedFeed(t, base.Nodes, base.Duration, func(n int) []profile.Input {
		return []profile.Input{{Source: src,
			Events: []dataflow.Value{[]float64{float64(n + 2), 7}}, Rate: 4}}
	})
	ref := runChained(t, []runtime.Config{cfgB}, feed, nil)

	sess, err := runtime.NewSession(base)
	if err != nil {
		t.Fatal(err)
	}
	data, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	migrated, err := runtime.MigrateSnapshot(g, data, cutB)
	if err != nil {
		t.Fatal(err)
	}
	sess, err = runtime.ResumeSession(cfgB, migrated)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range feed {
		if err := sess.Offer(f.node, f.a); err != nil {
			t.Fatal(err)
		}
	}
	got, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if *got != *ref {
		t.Fatalf("pre-input migration diverges from a cut-B run:\nref: %+v\ngot: %+v", *ref, *got)
	}
	// Cut B has no emitting server operator, so ServerEmits is rightly 0;
	// traffic must still have flowed.
	if ref.MsgsSent == 0 || ref.DeliveredBytes == 0 {
		t.Fatalf("degenerate run %+v", *ref)
	}
}

// runControlled streams feed through a Session with the control loop
// armed and reports the result, the replan events, and the feed index
// right after which each replan fired.
func runControlled(t *testing.T, cfg runtime.Config, policy runtime.ReplanPolicy,
	planner runtime.Planner, feed []feedItem) (*runtime.Result, []runtime.ReplanEvent, []int) {
	t.Helper()
	cs, err := runtime.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs.EnableReplan(policy, planner, nil)
	var bounds []int
	for i, f := range feed {
		if err := cs.Offer(f.node, f.a); err != nil {
			t.Fatalf("offer %d: %v", i, err)
		}
		if len(cs.Replans()) > len(bounds) {
			bounds = append(bounds, i)
		}
	}
	res, err := cs.Close()
	if err != nil {
		t.Fatal(err)
	}
	return res, cs.Replans(), bounds
}

// TestReplanParity is the tentpole pin: a drift-injected trace replanned
// mid-stream by the control loop must be byte-identical to the external
// Snapshot → MigrateSnapshot → ResumeSession chain cut at the same
// boundary — at every Shards/Workers placement of the resumed half.
func TestReplanParity(t *testing.T) {
	g, src, onNode := snapshotReduceApp()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cutB := reduceCutB(g, onNode)
	base := runtime.Config{
		Graph: g, OnNode: onNode, Platform: platform.TMoteSky(),
		Nodes: 4, Duration: 24, Seed: 31, WindowSeconds: 2,
	}
	feed := driftFeed(base.Nodes, base.Duration, 4, 16, src)
	policy := runtime.ReplanPolicy{Threshold: 0.5, Hysteresis: 2, Decay: 0.5, MaxReplans: 1}
	planner := func(multiple float64) (*runtime.Plan, error) {
		if multiple < 1 {
			t.Errorf("planner asked to solve for shrink multiple %g on a growing load", multiple)
		}
		return &runtime.Plan{OnNode: cutB}, nil
	}

	res, events, bounds := runControlled(t, base, policy, planner, feed)
	if len(events) != 1 {
		t.Fatalf("want exactly one replan, got %d: %+v", len(events), events)
	}
	var countsID int
	for _, op := range g.Operators() {
		if op.Name == "counts" {
			countsID = op.ID()
		}
	}
	if len(events[0].Moved) != 1 || events[0].Moved[0] != countsID {
		t.Fatalf("replan moved %v, want [%d]", events[0].Moved, countsID)
	}
	k := bounds[0]
	if k == 0 || k == len(feed)-1 {
		t.Fatalf("replan fired at feed edge %d/%d; the drift injection is mistimed", k, len(feed))
	}

	for _, knobs := range []struct{ shards, workers int }{{0, 0}, {3, 2}, {2, 1}} {
		sess, err := runtime.NewSession(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range feed[:k+1] {
			if err := sess.Offer(f.node, f.a); err != nil {
				t.Fatal(err)
			}
		}
		data, err := sess.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		migrated, err := runtime.MigrateSnapshot(g, data, cutB)
		if err != nil {
			t.Fatal(err)
		}
		cfgB := base
		cfgB.OnNode = cutB
		cfgB.Shards, cfgB.Workers = knobs.shards, knobs.workers
		sess, err = runtime.ResumeSession(cfgB, migrated)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range feed[k+1:] {
			if err := sess.Offer(f.node, f.a); err != nil {
				t.Fatal(err)
			}
		}
		got, err := sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		if *got != *res {
			t.Fatalf("external handoff (shards=%d workers=%d) diverges from in-place replan:\nreplan: %+v\nchain:  %+v",
				knobs.shards, knobs.workers, *res, *got)
		}
	}
	if res.MsgsSent == 0 || res.ServerEmits == 0 {
		t.Fatalf("degenerate run %+v", *res)
	}
}

// TestReplanParitySpeech replays the replan parity pin on the speech app,
// where the relocation direction is server → node for two stateful
// operators (preemph/prefilt) with live per-origin state tables.
func TestReplanParitySpeech(t *testing.T) {
	app := speech.New()
	cutA := speechCutOnNode(app, 1)
	cutB := speechCutOnNode(app, 3)
	base := runtime.Config{
		Graph: app.Graph, OnNode: cutA, Platform: platform.Gumstix(),
		Nodes: 4, Duration: 8, Seed: 71, WindowSeconds: 1,
	}
	raw := mergedFeed(t, base.Nodes, base.Duration, func(n int) []profile.Input {
		return []profile.Input{app.SampleTrace(int64(700+n), 2.0)}
	})
	// Inject drift by tripling the arrival density past mid-run: each
	// late arrival is offered with two echoes slightly later.
	var feed []feedItem
	for _, f := range raw {
		feed = append(feed, f)
		if f.a.Time > base.Duration/2 {
			for d := 1; d <= 2; d++ {
				e := f
				e.a.Time += float64(d) * 0.01
				feed = append(feed, e)
			}
		}
	}
	sort.SliceStable(feed, func(i, j int) bool {
		if feed[i].a.Time != feed[j].a.Time {
			return feed[i].a.Time < feed[j].a.Time
		}
		return feed[i].node < feed[j].node
	})

	policy := runtime.ReplanPolicy{Threshold: 0.5, Hysteresis: 2, Decay: 0.5, MaxReplans: 1}
	planner := func(float64) (*runtime.Plan, error) { return &runtime.Plan{OnNode: cutB}, nil }
	res, events, bounds := runControlled(t, base, policy, planner, feed)
	if len(events) != 1 || len(events[0].Moved) == 0 {
		t.Fatalf("want one replan with moved operators, got %+v", events)
	}
	k := bounds[0]

	sess, err := runtime.NewSession(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range feed[:k+1] {
		if err := sess.Offer(f.node, f.a); err != nil {
			t.Fatal(err)
		}
	}
	data, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	migrated, err := runtime.MigrateSnapshot(app.Graph, data, cutB)
	if err != nil {
		t.Fatal(err)
	}
	cfgB := base
	cfgB.OnNode = cutB
	cfgB.Shards, cfgB.Workers = 2, 2
	sess, err = runtime.ResumeSession(cfgB, migrated)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range feed[k+1:] {
		if err := sess.Offer(f.node, f.a); err != nil {
			t.Fatal(err)
		}
	}
	got, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if *got != *res {
		t.Fatalf("speech external handoff diverges:\nreplan: %+v\nchain:  %+v", *res, *got)
	}
	if res.MsgsSent == 0 || res.ServerEmits == 0 {
		t.Fatalf("degenerate run %+v", *res)
	}
}

// TestDistReplanParity drives the same drift-injected trace through a
// distributed session over in-process shard hosts with the control loop
// armed — rebinding onto a different host count mid-run — and requires
// the Result byte-identical to the single-host controlled run.
func TestDistReplanParity(t *testing.T) {
	g, src, onNode := snapshotReduceApp()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cutB := reduceCutB(g, onNode)
	base := runtime.Config{
		Graph: g, OnNode: onNode, Platform: platform.TMoteSky(),
		Nodes: 4, Duration: 24, Seed: 31, WindowSeconds: 2,
	}
	feed := driftFeed(base.Nodes, base.Duration, 4, 16, src)
	policy := runtime.ReplanPolicy{Threshold: 0.5, Hysteresis: 2, Decay: 0.5, MaxReplans: 1}
	planner := func(float64) (*runtime.Plan, error) { return &runtime.Plan{OnNode: cutB}, nil }

	ref, refEvents, _ := runControlled(t, base, policy, planner, feed)
	if len(refEvents) != 1 {
		t.Fatalf("single-host reference saw %d replans, want 1", len(refEvents))
	}

	for _, hostsAfter := range []int{1, 2, 3} {
		hosts := make([]runtime.HostBinding, 0, 2)
		for _, origins := range runtime.PartitionOrigins(base.Nodes, 2) {
			h, err := runtime.NewShardHost(base, origins)
			if err != nil {
				t.Fatal(err)
			}
			hosts = append(hosts, runtime.HostBinding{Driver: h, Origins: origins})
		}
		ds, err := runtime.NewDistSession(base, hosts)
		if err != nil {
			t.Fatal(err)
		}
		rebound := false
		rebind := func(ncfg runtime.Config, snapshot []byte) ([]runtime.HostBinding, error) {
			rebound = true
			var nh []runtime.HostBinding
			for _, origins := range runtime.PartitionOrigins(ncfg.Nodes, hostsAfter) {
				h, err := runtime.RestoreShardHost(ncfg, origins, snapshot)
				if err != nil {
					for _, b := range nh {
						b.Driver.Abort()
					}
					return nil, err
				}
				nh = append(nh, runtime.HostBinding{Driver: h, Origins: origins})
			}
			return nh, nil
		}
		ds.EnableReplan(policy, planner, rebind)
		for i, f := range feed {
			if err := ds.Offer(f.node, f.a); err != nil {
				t.Fatalf("hosts→%d: offer %d: %v", hostsAfter, i, err)
			}
		}
		got, err := ds.Close()
		if err != nil {
			t.Fatalf("hosts→%d: %v", hostsAfter, err)
		}
		if !rebound {
			t.Fatalf("hosts→%d: replan never relocated across hosts", hostsAfter)
		}
		if len(ds.Replans()) != 1 {
			t.Fatalf("hosts→%d: %d replan events, want 1", hostsAfter, len(ds.Replans()))
		}
		if *got != *ref {
			t.Fatalf("hosts→%d: distributed replan diverges:\nref: %+v\ngot: %+v", hostsAfter, *ref, *got)
		}
	}
}

// TestDistRecoveryAfterReplan loses a host in the first window after a
// relocating replan, before any checkpoint on the new cut. The handoff
// must drop the old cut's checkpoints and replay tail, so the replacement
// reopens from the migrated snapshot and replays only the in-flight
// window; the Result stays byte-identical to the single-host controlled
// run, and the recovery is on record.
func TestDistRecoveryAfterReplan(t *testing.T) {
	g, src, onNode := snapshotReduceApp()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cutB := reduceCutB(g, onNode)
	base := runtime.Config{
		Graph: g, OnNode: onNode, Platform: platform.TMoteSky(),
		Nodes: 4, Duration: 24, Seed: 31, WindowSeconds: 2,
	}
	feed := driftFeed(base.Nodes, base.Duration, 4, 16, src)
	policy := runtime.ReplanPolicy{Threshold: 0.5, Hysteresis: 2, Decay: 0.5, MaxReplans: 1}
	planner := func(float64) (*runtime.Plan, error) { return &runtime.Plan{OnNode: cutB}, nil }
	ref, _, _ := runControlled(t, base, policy, planner, feed)
	// Cadence 1 leaves old-cut checkpoints at the handoff; 3 leaves an
	// old-cut replay tail as well.
	for _, every := range []int{1, 3} {
		// The run's current Config and resume blob, as a coordinator keeps
		// them for its Reopen callback.
		cur, resume := base, []byte(nil)
		reopen := func(host int, origins []int, ckpt []byte) (runtime.HostDriver, error) {
			if ckpt != nil {
				return runtime.RestoreShardHostCheckpoint(cur, origins, ckpt)
			}
			if resume == nil {
				t.Fatalf("host %d lost before the handoff", host)
			}
			return runtime.RestoreShardHost(cur, origins, resume)
		}
		fuse := &hostFuse{op: "compute"}
		rebind := func(ncfg runtime.Config, snapshot []byte) ([]runtime.HostBinding, error) {
			cur, resume = ncfg, snapshot
			var nh []runtime.HostBinding
			for i, origins := range runtime.PartitionOrigins(ncfg.Nodes, 2) {
				h, err := runtime.RestoreShardHost(ncfg, origins, snapshot)
				if err != nil {
					return nil, err
				}
				var d runtime.HostDriver = h
				if i == 0 {
					d = &flakyHost{inner: h, fuse: fuse}
				}
				nh = append(nh, runtime.HostBinding{Driver: d, Origins: origins})
			}
			return nh, nil
		}

		var hosts []runtime.HostBinding
		for _, origins := range runtime.PartitionOrigins(base.Nodes, 2) {
			h, err := runtime.NewShardHost(base, origins)
			if err != nil {
				t.Fatal(err)
			}
			hosts = append(hosts, runtime.HostBinding{Driver: h, Origins: origins})
		}
		ds, err := runtime.NewDistSession(base, hosts)
		if err != nil {
			t.Fatal(err)
		}
		ds.EnableRecovery(&runtime.DistRecovery{Every: every, Reopen: reopen})
		ds.EnableReplan(policy, planner, rebind)
		for i, f := range feed {
			if err := ds.Offer(f.node, f.a); err != nil {
				t.Fatalf("every=%d: offer %d: %v", every, i, err)
			}
		}
		got, err := ds.Close()
		if err != nil {
			t.Fatalf("every=%d: %v", every, err)
		}
		if len(ds.Replans()) != 1 || resume == nil {
			t.Fatalf("every=%d: want one relocating replan, got %+v", every, ds.Replans())
		}
		if !fuse.fired {
			t.Fatalf("every=%d: the post-handoff host never failed", every)
		}
		recs := ds.Recoveries()
		if len(recs) != 1 || recs[0].Host != 0 || recs[0].Op != "compute" || recs[0].Windows != 1 {
			t.Fatalf("every=%d: want one recovery of host 0 replaying the in-flight window, got %+v", every, recs)
		}
		if *got != *ref {
			t.Fatalf("every=%d: recovery after replan diverges:\nref: %+v\ngot: %+v", every, *ref, *got)
		}
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
