package runtime_test

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"wishbone/internal/apps/eeg"
	"wishbone/internal/apps/speech"
	"wishbone/internal/dataflow"
	"wishbone/internal/netsim"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
)

// The schedule harness: byte-identity across hosts, snapshots, replans,
// host loss and batch placements, checked by one runner over generated
// schedules. A case is a run (config, arrivals, optionally a control loop,
// and the batch Inputs its arrivals were merged from). A session schedule
// is where the run starts and what happens between Offers; it must
// reproduce the case's single-host reference (with a control loop, the
// single-host controlled run): the Result byte for byte, and the digest of
// the values reaching the server-side sinks unless a host was lost (the
// replacement's replay delivers to the sinks again). A batch schedule, one
// placement of runtime.Run, must reproduce runtime.RunReference on the
// same traces. A failing schedule is shrunk one change at a time and
// reported with its seed.

// feedItem is one arrival bound to its node: a run's whole input, replayed
// through any schedule in one globally time-ordered sequence.
type feedItem struct {
	node int
	a    runtime.Arrival
}

// sortFeed puts feed in runtime.Feed's offer order: time, then node.
func sortFeed(feed []feedItem) []feedItem {
	sort.SliceStable(feed, func(i, j int) bool {
		if feed[i].a.Time != feed[j].a.Time {
			return feed[i].a.Time < feed[j].a.Time
		}
		return feed[i].node < feed[j].node
	})
	return feed
}

// mergedFeed materializes every node's arrival stream in offer order.
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
	return sortFeed(feed)
}

// driftFeed offers runtime.StreamApp's src one value per node at baseRate
// until duration/2 and at burstRate after: the drift that fires a control
// loop.
func driftFeed(nodes int, duration, baseRate, burstRate float64, src *dataflow.Operator) []feedItem {
	var feed []feedItem
	for n := 0; n < nodes; n++ {
		emit := func(from, to, rate float64) {
			for t := from; t < to; t += 1 / rate {
				feed = append(feed, feedItem{node: n, a: runtime.Arrival{Time: t, Source: src, Value: []float64{float64(n + 2), 7}}})
			}
		}
		emit(0, duration/2, baseRate)
		emit(duration/2, duration, burstRate)
	}
	return sortFeed(feed)
}

// schedCase is one run schedules are drawn over. cutB is where a migrate
// step moves the run and what the control loop's planner answers (nil:
// the run's own cut); policy arms the control loop; local marks a
// partition that cannot be split by origin, so it runs on the one
// in-process host only, and its batch delivery on one shard. inputs, when
// set, are the batch Inputs feed was merged from; traces and refs cache
// them and the reference engine's runs of them (per-node and shared).
type schedCase struct {
	name   string
	cfg    runtime.Config
	feed   []feedItem
	cutB   map[int]bool
	policy *runtime.ReplanPolicy
	local  bool
	inputs func(int) []profile.Input
	traces [][]profile.Input
	refs   [2]*outcome
}

func newCase(name string, cfg runtime.Config, feed []feedItem) *schedCase {
	return &schedCase{name: name, cfg: cfg, feed: feed, local: !runtime.Distributable(cfg)}
}

// batchCase is cfg's batch run with node n offered inputs(n).
func batchCase(name string, cfg runtime.Config, inputs func(int) []profile.Input) *schedCase {
	c := newCase(name, cfg, nil)
	c.inputs = inputs
	return c
}

// inputCase is batchCase with inputs also merged into the feed.
func inputCase(t *testing.T, name string, cfg runtime.Config, inputs func(int) []profile.Input) *schedCase {
	c := batchCase(name, cfg, inputs)
	c.feed = mergedFeed(t, cfg.Nodes, cfg.Duration, inputs)
	return c
}

// withReplan arms c's control loop, its planner answering cutB.
func (c *schedCase) withReplan(cutB map[int]bool) *schedCase {
	c.cutB = cutB
	c.policy = &runtime.ReplanPolicy{Threshold: 0.5, Hysteresis: 2, Decay: 0.5, MaxReplans: 1}
	return c
}

// place is where a run's hosts sit: parts nil is the one in-process host
// of NewSession or ResumeSession, else one in-process ShardHost per part
// behind the coordinator, each as a peer would be.
type place struct {
	parts           [][]int
	shards, workers int
}

type stepKind string

const (
	stepSnapshot stepKind = "snapshot" // Snapshot, resume at to (onto hosts through HostShares)
	stepMigrate  stepKind = "migrate"  // the external replan: Snapshot → MigrateSnapshot onto cutB → resume at to
	stepReplan   stepKind = "replan"   // the control loop's replan: its rebind moves the run to to
	stepLoss     stepKind = "loss"     // arm a fuse on host `host` of the current binding
)

// step is one event of a schedule, applied before the Offer of feed[at]
// (the control loop picks a replan's boundary). A loss fuse lets `after`
// calls of op through, then fails that one and every later call; `again`
// replacements die too, each one call of op later.
type step struct {
	kind         stepKind
	at           int
	to           place
	host         int // modulo the binding's size
	op           string
	after, again int
}

// progKind is where a run's Programs come from.
type progKind int

const (
	progRun    progKind = iota // compiled by Run, or by each session host
	progShared                 // one CompilePartition pair for every Run or host
)

func (k progKind) String() string { return [...]string{"run", "shared"}[k] }

// apply gives cfg k's Programs for its cut.
func (k progKind) apply(cfg runtime.Config) (runtime.Config, error) {
	cfg.NodeProgram, cfg.ServerProgram = nil, nil
	var err error
	if k == progShared {
		cfg.NodeProgram, cfg.ServerProgram, err = runtime.CompilePartition(cfg.Graph, cfg.OnNode)
	}
	return cfg, err
}

// traceKind is how a batch schedule hands a case's traces to Run.
type traceKind int

const (
	tracePerNode traceKind = iota // node n its own trace
	traceShared                   // node 0's slice to every node: Run simulates node 0 and replays it
	traceOwn                      // a copy of node 0's slice per node: every replica runs
)

func (k traceKind) String() string { return [...]string{"per-node", "shared", "own"}[k] }

// schedule is a start placement, its Programs, a recovery cadence (0:
// disarmed), steps in feed order and whether arrivals go in raw
// (runner.offer); or, when batch, one placement of runtime.Run: start's
// Shards and Workers, progs, traces, four Runs sharing the Programs when
// concurrent, and Run's streaming path (c's window) when stream.
type schedule struct {
	seed       int64
	start      place
	progs      progKind
	every      int
	steps      []step
	raw        bool
	batch      bool
	traces     traceKind
	concurrent bool
	stream     bool
}

func (sc schedule) String() string {
	if sc.batch {
		return fmt.Sprintf("seed %d: batch shards=%d workers=%d programs=%v traces=%v concurrent=%v stream=%v",
			sc.seed, sc.start.shards, sc.start.workers, sc.progs, sc.traces, sc.concurrent, sc.stream)
	}
	s := fmt.Sprintf("seed %d: start %+v, programs %v, raw %v, recovery every %d", sc.seed, sc.start, sc.progs, sc.raw, sc.every)
	for _, st := range sc.steps {
		s += fmt.Sprintf("\n\t%+v", st)
	}
	return s
}

// simpler is every schedule one step shorter than sc or with one setting
// put back to its plainest: Programs compiled by Run, arrivals offered as
// values, per-node traces, one Run, Shards 0, one worker.
func (sc schedule) simpler() []schedule {
	var out []schedule
	for j := range sc.steps {
		c := sc
		c.steps = slices.Delete(slices.Clone(sc.steps), j, j+1)
		out = append(out, c)
	}
	for _, plain := range []func(*schedule){
		func(c *schedule) { c.progs = progRun }, func(c *schedule) { c.raw = false },
		func(c *schedule) { c.traces = tracePerNode }, func(c *schedule) { c.concurrent = false },
		func(c *schedule) { c.start.shards = 0 }, func(c *schedule) { c.start.workers = 1 },
	} {
		c := sc
		if plain(&c); c.String() != sc.String() {
			out = append(out, c)
		}
	}
	return out
}

func (sc schedule) has(kind stepKind) bool {
	return slices.ContainsFunc(sc.steps, func(s step) bool { return s.kind == kind })
}

var lossOps = []string{"compute", "deliver", "checkpoint", "close"}

// generate draws a schedule for c from seed. With a control loop the run
// replans right after feed[ref.bounds[0]]; snapshots land after that (a
// resumed session restarts detection) and the first loss just past it,
// before the new cut's first checkpoint. Armed recovery keeps the run on
// hosts: a loss needs a driver to fail.
func (c *schedCase) generate(seed int64, ref *outcome) schedule {
	rng := rand.New(rand.NewSource(seed))
	n, lo := len(c.feed), 0
	sc := schedule{seed: seed}
	if !c.local && rng.Intn(2) == 0 {
		sc.every = 1 + 2*rng.Intn(2)
	}
	randPlace := func() place {
		p, hosts := place{shards: rng.Intn(4), workers: rng.Intn(3)}, rng.Intn(4)
		if sc.every > 0 {
			hosts = 1 + rng.Intn(3)
		}
		if !c.local && hosts > 0 {
			p.parts = runtime.PartitionOrigins(c.cfg.Nodes, hosts)
		}
		return p
	}
	sc.start = randPlace()
	if c.policy != nil {
		lo = ref.bounds[0] + 1
		sc.steps = append(sc.steps, step{kind: []stepKind{stepReplan, stepReplan, stepMigrate}[rng.Intn(3)], at: lo, to: randPlace()})
	}
	for i, m := 0, 1+rng.Intn(3); i < m; i++ {
		nearReplan := lo > 0 && i == 0
		if sc.every == 0 || !nearReplan && rng.Intn(2) == 0 {
			sc.steps = append(sc.steps, step{kind: stepSnapshot, at: lo + rng.Intn(n-lo+1), to: randPlace()})
			continue
		}
		s := step{kind: stepLoss, at: rng.Intn(n + 1), host: rng.Intn(3), op: lossOps[rng.Intn(4)], after: rng.Intn(3)}
		if nearReplan {
			s.at = min(lo+rng.Intn(n/8+1), n)
		}
		if s.op == "close" {
			s.after = 0 // a host is closed once
		}
		if sc.every == 1 {
			// A replacement that dies in its own replay is not recoverable;
			// at cadence 1 the replay is one window.
			s.again = rng.Intn(3) / 2
		}
		sc.steps = append(sc.steps, s)
	}
	sort.SliceStable(sc.steps, func(i, j int) bool { return sc.steps[i].at < sc.steps[j].at })
	sc.progs, sc.raw = progKind(rng.Intn(2)), rng.Intn(2) == 0
	return sc
}

// generateBatch draws a batch placement of c from seed.
func (c *schedCase) generateBatch(seed int64) schedule {
	rng := rand.New(rand.NewSource(seed))
	start := place{shards: []int{0, 1, 2, 3, 8, c.cfg.Nodes + 1}[rng.Intn(6)], workers: []int{1, 2, 4, 8}[rng.Intn(4)]}
	return schedule{seed: seed, batch: true, start: start, progs: progKind(rng.Intn(2)),
		traces: traceKind(rng.Intn(3)), concurrent: rng.Intn(2) == 1}
}

// outcome is what one schedule's run left behind.
type outcome struct {
	res        runtime.Result
	sinks      runtime.SinkDigest
	replans    []runtime.ReplanEvent
	bounds     []int     // feed index whose Offer fired each replan
	multiples  []float64 // what the planner was asked for
	recoveries []runtime.RecoveryEvent
	fired      []*flakyHost // hosts whose fuse blew
	rebinds    int          // control-loop handoffs onto hosts
	snapshots  int          // snapshot and migrate steps run
	nodeIDs    int          // batch: nodes the node-side work ran as (0: it has none)
}

// flakyHost wraps an in-process driver with a fuse (see step); an empty op
// is a fuse not armed yet, a blown one keeps the op it blew at. Failures
// wrap runtime.ErrHostDown like the HTTP driver's terminal transport
// errors. Fuses are armed between Offers while calls arrive on delivery
// goroutines, hence the lock. host and origins name the slot it serves.
type flakyHost struct {
	inner   runtime.HostDriver
	mu      sync.Mutex
	op      string
	after   int
	dead    bool
	host    int
	origins []int
}

func (f *flakyHost) arm(op string, after int) {
	f.mu.Lock()
	f.op, f.after = op, after
	f.mu.Unlock()
}

// call runs the driver call op unless the fuse blows at it.
func (f *flakyHost) call(op string, inner func() error) error {
	f.mu.Lock()
	switch {
	case f.dead:
		f.mu.Unlock()
		return fmt.Errorf("injected %s on dead host: %w", op, runtime.ErrHostDown)
	case f.op == op && f.after == 0:
		f.dead = true
		f.mu.Unlock()
		return fmt.Errorf("injected crash at %s: %w", op, runtime.ErrHostDown)
	case f.op == op:
		f.after--
	}
	f.mu.Unlock()
	return inner()
}

func (f *flakyHost) ComputeWindow(arrivals []runtime.HostArrival) (rep *runtime.WindowReport, err error) {
	err = f.call("compute", func() error { rep, err = f.inner.ComputeWindow(arrivals); return err })
	return rep, err
}

func (f *flakyHost) DeliverWindow(ratio float64) error {
	return f.call("deliver", func() error { return f.inner.DeliverWindow(ratio) })
}

func (f *flakyHost) Checkpoint() (blob []byte, err error) {
	err = f.call("checkpoint", func() error { blob, err = f.inner.Checkpoint(); return err })
	return blob, err
}

func (f *flakyHost) Close() (hr *runtime.HostResult, err error) {
	err = f.call("close", func() error { hr, err = f.inner.Close(); return err })
	return hr, err
}

func (f *flakyHost) Abort() { f.inner.Abort() }

// runner drives one schedule of one case. cfg is the current session's
// (a replan or migrate moves its cut); wrap its hosts by index, nil when
// local. resumed marks a run resumed from a snapshot, whose lost hosts
// must reopen from a blob.
type runner struct {
	c       *schedCase
	sc      schedule
	cfg     runtime.Config
	sess    *runtime.Session
	wrap    []*flakyHost
	all     []*flakyHost // every host the run opened
	seen    int          // replans of the session already recorded
	resumed bool
	again   int // replacements still to die, at againOp
	againOp string
	out     outcome
}

// run plays sc over c and returns what it left, or the first failure.
func (c *schedCase) run(t testing.TB, sc schedule) (*outcome, error) {
	rec, restore := runtime.RecordServerSinks(c.cfg.Graph, c.cfg.OnNode)
	defer restore()
	r := &runner{c: c, sc: sc}
	defer func() {
		if r.sess != nil {
			r.sess.Abort()
		}
	}()
	if err := r.bind(c.cfg, sc.start, nil); err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	if c.policy != nil && !sc.has(stepMigrate) {
		var rebind func(runtime.Config, []byte) ([]runtime.HostBinding, error)
		if i := slices.IndexFunc(sc.steps, func(s step) bool { return s.kind == stepReplan }); i >= 0 && sc.steps[i].to.parts != nil {
			to := sc.steps[i].to
			rebind = func(cfg runtime.Config, snapshot []byte) ([]runtime.HostBinding, error) {
				cfg.Shards, cfg.Workers = to.shards, to.workers
				r.out.rebinds++
				r.resumed = true
				return r.hosts(cfg, to.parts, snapshot)
			}
		}
		r.sess.EnableReplan(*c.policy, func(multiple float64) (*runtime.Plan, error) {
			r.out.multiples = append(r.out.multiples, multiple)
			return &runtime.Plan{OnNode: c.cutB}, nil
		}, rebind)
	}
	for i, si := 0, 0; ; i++ {
		for ; si < len(sc.steps) && sc.steps[si].at <= i; si++ {
			if err := r.apply(sc.steps[si]); err != nil {
				return nil, fmt.Errorf("%+v: %w", sc.steps[si], err)
			}
		}
		if i == len(c.feed) {
			break
		}
		if err := r.offer(c.feed[i]); err != nil {
			return nil, fmt.Errorf("offer %d: %w", i, err)
		}
		for evs := r.sess.Replans(); r.seen < len(evs); r.seen++ {
			r.out.replans = append(r.out.replans, evs[r.seen])
			r.out.bounds = append(r.out.bounds, i)
			if len(evs[r.seen].Moved) > 0 {
				r.cfg.OnNode = c.cutB
			}
		}
	}
	res, err := r.sess.Close()
	r.retire()
	if err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	r.out.res, r.out.sinks = *res, rec.Take(t)
	for _, f := range r.all {
		if f.dead {
			r.out.fired = append(r.out.fired, f)
		}
	}
	return &r.out, nil
}

// offer hands the session f through Offer or, in a raw schedule, as the
// JSON a /v1/simulate/stream chunk carries, through OfferRaw.
func (r *runner) offer(f feedItem) error {
	if !r.sc.raw {
		return r.sess.Offer(f.node, f.a)
	}
	raw, err := json.Marshal(f.a.Value)
	if err != nil {
		return err
	}
	typ := map[string]string{"[]int16": "i16s", "[]float64": "f64s"}[fmt.Sprintf("%T", f.a.Value)]
	return r.sess.OfferRaw(f.node, f.a.Time, f.a.Source, typ, raw)
}

// bind opens the session at p on cfg, fresh or resumed from data, with
// recovery armed on hosts.
func (r *runner) bind(cfg runtime.Config, p place, data []byte) error {
	cfg.Shards, cfg.Workers = p.shards, p.workers
	cfg, err := r.sc.progs.apply(cfg)
	if err != nil {
		return err
	}
	r.cfg, r.wrap = cfg, nil
	switch {
	case p.parts == nil && data == nil:
		r.sess, err = runtime.NewSession(cfg)
	case p.parts == nil:
		r.sess, err = runtime.ResumeSession(cfg, data)
	default:
		var hosts []runtime.HostBinding
		if hosts, err = r.hosts(cfg, p.parts, data); err != nil {
			return err
		}
		if data == nil {
			if r.sess, err = runtime.NewDistSession(cfg, hosts); err == nil {
				r.sess.EnableRecovery(r.recovery())
			}
		} else {
			r.sess, err = runtime.ResumeOnHosts(cfg, data, hosts, r.recovery())
		}
		if err != nil {
			abortAll(hosts)
		}
	}
	return err
}

// hosts opens one wrapped in-process host per part, fresh or restored from
// its HostShares entry of snapshot, as the current binding.
func (r *runner) hosts(cfg runtime.Config, parts [][]int, snapshot []byte) ([]runtime.HostBinding, error) {
	shares := make([][]byte, len(parts))
	if snapshot != nil {
		var err error
		if shares, err = runtime.HostShares(cfg, snapshot, parts); err != nil {
			return nil, err
		}
	}
	hosts := make([]runtime.HostBinding, len(parts))
	r.wrap = make([]*flakyHost, len(parts))
	for hi, origins := range parts {
		d, err := r.open(cfg, hi, origins, shares[hi])
		if err != nil {
			abortAll(hosts[:hi])
			return nil, err
		}
		hosts[hi] = runtime.HostBinding{Driver: d, Origins: origins}
	}
	return hosts, nil
}

// open opens binding slot hi's wrapped host, restored from blob or fresh.
func (r *runner) open(cfg runtime.Config, hi int, origins []int, blob []byte) (*flakyHost, error) {
	var h *runtime.ShardHost
	var err error
	if blob != nil {
		h, err = runtime.RestoreShardHost(cfg, origins, blob)
	} else {
		h, err = runtime.NewShardHost(cfg, origins)
	}
	if err != nil {
		return nil, fmt.Errorf("host %d: %w", hi, err)
	}
	r.wrap[hi] = &flakyHost{inner: h, host: hi, origins: origins}
	r.all = append(r.all, r.wrap[hi])
	return r.wrap[hi], nil
}

func abortAll(hosts []runtime.HostBinding) {
	for _, b := range hosts {
		b.Driver.Abort()
	}
}

func (r *runner) recovery() *runtime.DistRecovery {
	if r.sc.every == 0 {
		return nil
	}
	return &runtime.DistRecovery{Every: r.sc.every, Reopen: func(cfg runtime.Config, host int, origins []int, ckpt []byte) (runtime.HostDriver, error) {
		if ckpt == nil && r.resumed {
			return nil, fmt.Errorf("host %d reopened without a blob in a resumed run", host)
		}
		d, err := r.open(cfg, host, origins, ckpt)
		if err != nil {
			return nil, err
		}
		if r.again > 0 {
			r.again--
			d.arm(r.againOp, 1)
		}
		return d, nil
	}, OnRecover: func(ev runtime.RecoveryEvent) { r.out.recoveries = append(r.out.recoveries, ev) }}
}

// retire drops the current session.
func (r *runner) retire() {
	r.sess, r.seen = nil, 0
}

func (r *runner) apply(s step) error {
	switch s.kind {
	case stepReplan:
		return nil // its rebind was set when the loop was armed
	case stepLoss:
		if r.wrap != nil {
			r.wrap[s.host%len(r.wrap)].arm(s.op, s.after)
			r.again, r.againOp = s.again, s.op
		}
		return nil
	}
	data, err := r.sess.Snapshot()
	r.retire()
	if err != nil {
		return err
	}
	r.out.snapshots++
	cfg := r.cfg
	if s.kind == stepMigrate {
		if r.c.cutB != nil {
			cfg.OnNode = r.c.cutB
		}
		if data, err = runtime.MigrateSnapshot(cfg.Graph, data, cfg.OnNode); err != nil {
			return err
		}
	}
	r.resumed = true
	return r.bind(cfg, s.to, data)
}

// reference is c's uninterrupted single-host run (with c's control loop,
// when it has one).
func (c *schedCase) reference(t *testing.T) *outcome {
	t.Helper()
	ref, err := c.run(t, schedule{})
	if err != nil {
		t.Fatalf("%s: reference run: %v", c.name, err)
	}
	if c.policy != nil && len(ref.bounds) == 0 {
		t.Fatalf("%s: the reference run never replanned", c.name)
	}
	return ref
}

// live is c's reference, failing t when it moved no message or emitted
// nothing at the server.
func (c *schedCase) live(t *testing.T) *outcome {
	t.Helper()
	ref := c.reference(t)
	if ref.res.MsgsSent == 0 || ref.res.ServerEmits == 0 {
		t.Fatalf("%s: degenerate run %+v", c.name, ref.res)
	}
	return ref
}

// check runs sc and holds it to ref and to the harness invariants: every
// blown fuse left one RecoveryEvent naming its host, origins and op (a
// Snapshot's checkpoint barrier names itself snapshot), and the control
// loop fired where it fired in the reference.
func (c *schedCase) check(t testing.TB, ref *outcome, sc schedule) (*outcome, error) {
	if sc.batch || ref == nil {
		var err error
		if ref, err = c.batchRef(t, sc.traces); err != nil {
			return nil, err
		}
	}
	if sc.batch {
		return c.checkBatch(t, ref, sc)
	}
	got, err := c.run(t, sc)
	switch {
	case err != nil:
		return nil, err
	case got.res != ref.res:
		return got, fmt.Errorf("Result diverges:\nref: %+v\ngot: %+v", ref.res, got.res)
	case len(got.fired) == 0 && got.sinks != ref.sinks:
		return got, fmt.Errorf("the server sinks receive different values:\nref: %+v\ngot: %+v", ref.sinks, got.sinks)
	case len(got.fired) != len(got.recoveries):
		return got, fmt.Errorf("%d fuses blew but %d recoveries are on record: %+v", len(got.fired), len(got.recoveries), got.recoveries)
	case c.policy != nil && !sc.has(stepMigrate) && !slices.Equal(got.bounds, ref.bounds):
		return got, fmt.Errorf("replans fire after feed %v, the reference after %v", got.bounds, ref.bounds)
	}
	used := make([]bool, len(got.recoveries))
next:
	for _, f := range got.fired {
		for i, ev := range got.recoveries {
			if !used[i] && ev.Host == f.host && slices.Equal(ev.Origins, f.origins) &&
				(ev.Op == f.op || f.op == "checkpoint" && ev.Op == "snapshot") {
				used[i] = true
				continue next
			}
		}
		return got, fmt.Errorf("host %d lost at %s left no recovery naming it: %+v", f.host, f.op, got.recoveries)
	}
	return got, nil
}

// batchInputs hands Run c's traces as k says; every node's trace is built
// once.
func (c *schedCase) batchInputs(k traceKind) func(int) []profile.Input {
	if c.traces == nil {
		for n := range c.cfg.Nodes {
			c.traces = append(c.traces, c.inputs(n))
		}
	}
	tr := c.traces
	switch k {
	case traceShared:
		return func(int) []profile.Input { return tr[0] }
	case traceOwn:
		return func(int) []profile.Input { return runtime.OwnEvents(tr[0]) }
	}
	// Copies, so that a case offering every node one slice still runs each.
	return func(n int) []profile.Input { return runtime.OwnEvents(tr[n]) }
}

// batchRef is runtime.RunReference over c's traces under k, with its sink
// digest: per-node, or node 0's on every node (shared and own alike).
func (c *schedCase) batchRef(t testing.TB, k traceKind) (*outcome, error) {
	i := min(int(k), 1)
	if c.refs[i] == nil {
		rec, restore := runtime.RecordServerSinks(c.cfg.Graph, c.cfg.OnNode)
		defer restore()
		cfg := c.cfg
		cfg.WindowSeconds, cfg.Inputs = 0, c.batchInputs(k)
		res, err := runtime.RunReference(cfg)
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		c.refs[i] = &outcome{res: *res, sinks: rec.Take(t)}
	}
	return c.refs[i], nil
}

// checkBatch runs batch schedule sc and holds it to runtime.RunReference on
// the same traces: every Run's Result byte for byte, the sink digest (once
// per Run), and the nodes node-side work ran as: node 0 alone when the
// traces are shared (Run replays it), every node otherwise.
func (c *schedCase) checkBatch(t testing.TB, ref *outcome, sc schedule) (*outcome, error) {
	rec, restore := runtime.RecordServerSinks(c.cfg.Graph, c.cfg.OnNode)
	defer restore()
	// Mark each node the node-side work runs as.
	ran := make([]atomic.Bool, c.cfg.Nodes)
	defer runtime.WrapWork(c.cfg.Graph, func(op *dataflow.Operator) bool { return c.cfg.OnNode[op.ID()] },
		func(ctx *dataflow.Ctx, _ ...dataflow.Value) { ran[ctx.NodeID].Store(true) })()
	cfg := c.cfg
	cfg.WindowSeconds, cfg.Inputs = 0, c.batchInputs(sc.traces)
	if in := cfg.Inputs; sc.stream {
		cfg.WindowSeconds, cfg.Inputs = c.cfg.WindowSeconds, nil
		cfg.ArrivalSource = func(n int) (runtime.Stream, error) { return runtime.InputStream(in(n), 1, cfg.Duration) }
	}
	cfg.Shards, cfg.Workers = sc.start.shards, sc.start.workers
	cfg, err := sc.progs.apply(cfg)
	if err != nil {
		return nil, err
	}
	runs := 1
	if sc.concurrent {
		runs = 4
	}
	res, errs := make([]*runtime.Result, runs), make([]error, runs)
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func() { defer wg.Done(); res[i], errs[i] = runtime.Run(cfg) }()
	}
	wg.Wait()
	got, want, wantIDs := &outcome{sinks: rec.Take(t)}, ref.sinks, c.cfg.Nodes
	want.Values, want.Sum = want.Values*runs, want.Sum*uint64(runs)
	if sc.traces == traceShared {
		wantIDs = 1
	}
	for i := range ran {
		if ran[i].Load() {
			got.nodeIDs++
		}
	}
	for i, r := range res {
		switch {
		case errs[i] != nil:
			return nil, fmt.Errorf("run %d: %w", i, errs[i])
		case *r != ref.res:
			return got, fmt.Errorf("run %d: Result diverges from the reference:\nref: %+v\ngot: %+v", i, ref.res, *r)
		}
	}
	switch {
	case got.sinks != want:
		return got, fmt.Errorf("the server sinks receive different values:\nref: %+v × %d\ngot: %+v", ref.sinks, runs, got.sinks)
	case got.nodeIDs > 0 && got.nodeIDs != wantIDs:
		return got, fmt.Errorf("node-side work ran as %d nodes, want %d", got.nodeIDs, wantIDs)
	}
	got.res, got.sinks = ref.res, ref.sinks
	return got, nil
}

// verify runs each schedule and fails t on the first that breaks, shrunk:
// made simpler one change at a time while it still fails. Batch schedules,
// and all when ref is nil, are held to the reference engine (batchRef).
func (c *schedCase) verify(t *testing.T, ref *outcome, scs ...schedule) []*outcome {
	t.Helper()
	outs := make([]*outcome, len(scs))
	for i, sc := range scs {
		got, err := c.check(t, ref, sc)
		outs[i] = got
		small, serr := sc, err
		for shrunk := err != nil; shrunk; {
			shrunk = false
			for _, cand := range small.simpler() {
				if _, e := c.check(t, ref, cand); e != nil {
					small, serr, shrunk = cand, e, true
					break
				}
			}
		}
		if err != nil {
			t.Fatalf("%s: schedule fails\n%v\n%v\nshrunk to\n%v\n%v", c.name, sc, err, small, serr)
		}
	}
	return outs
}

// expect verifies scs over c and fails t unless ok holds for every
// outcome.
func (c *schedCase) expect(t *testing.T, ok func(*outcome) bool, scs ...schedule) {
	t.Helper()
	for i, got := range c.verify(t, nil, scs...) {
		if !ok(got) {
			t.Fatalf("%s: %v: degenerate run %+v, %d sink values, node work on %d nodes", c.name, scs[i], got.res, got.sinks.Values, got.nodeIDs)
		}
		t.Logf("%s: %d of %d events processed, %d messages sent, %d sink values", c.name,
			got.res.ProcessedEvents, got.res.InputEvents, got.res.MsgsSent, got.sinks.Values)
	}
}

// fuzz verifies n schedules generated over c from seeds derived from the
// test's name.
func (c *schedCase) fuzz(t *testing.T, ref *outcome, n int) {
	t.Helper()
	h := fnv.New64a()
	h.Write([]byte(t.Name()))
	for i := range int64(n) {
		c.verify(t, ref, c.generate(int64(h.Sum64()>>1)+i, ref))
	}
}

// scheduleSeeds is TestScheduleHarness's fixed seed list.
var scheduleSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}

// harnessCases, each on its own graph: speech on Gumstix at cuts 1 and 5,
// the reduce app on TMote replanned under drift in both directions between
// its cuts (counts' per-origin state moves onto the nodes, then off them),
// EEG on the one in-process host with a trace that crosses the seizure
// detector, and speech under node churn and bursty loss.
func harnessCases(t *testing.T) []*schedCase {
	back := replanCase(t)
	back.name, back.cfg.OnNode, back.cutB = "reduce B→A", back.cutB, back.cfg.OnNode
	scen := speechCase(t, speech.New(), 1, 4, 8, 55, 300)
	scen.name, scen.cfg.Scenario = "speech churn+burst", churnBurst()
	return []*schedCase{
		speechCase(t, speech.New(), 1, 4, 8, 61, 300), speechCase(t, speech.New(), 5, 4, 8, 65, 300),
		replanCase(t), back, eegCase(t), scen,
	}
}

// speechRun is speech on plat cut after prefix operators, node n offered
// app's secs-second trace seeded traceSeed+n.
func speechRun(app *speech.App, plat *platform.Platform, prefix, nodes int, duration float64, seed, traceSeed int64, secs float64) *schedCase {
	cfg := runtime.Config{
		Graph: app.Graph, OnNode: speechCutOnNode(app, prefix), Platform: plat,
		Nodes: nodes, Duration: duration, Seed: seed,
	}
	return batchCase(fmt.Sprintf("%s cut %d", plat.Name, prefix), cfg, func(n int) []profile.Input {
		return []profile.Input{app.SampleTrace(traceSeed+int64(n), secs)}
	})
}

// speechCase is speechRun on Gumstix with 2 s traces, window 2 s.
func speechCase(t *testing.T, app *speech.App, prefix, nodes int, duration float64, seed, traceSeed int64) *schedCase {
	c := speechRun(app, platform.Gumstix(), prefix, nodes, duration, seed, traceSeed, 2)
	c.name, c.cfg.WindowSeconds = fmt.Sprintf("speech cut %d", prefix), 2
	c.feed = mergedFeed(t, nodes, duration, c.inputs)
	return c
}

// oneEvent offers node n of runtime.StreamApp (or orderedStreamApp) the
// event {n+2, 7} at 4/s.
func oneEvent(src *dataflow.Operator) func(int) []profile.Input {
	return func(n int) []profile.Input {
		return []profile.Input{{Source: src, Events: []dataflow.Value{[]float64{float64(n + 2), 7}}, Rate: 4}}
	}
}

// reduceCase is runtime.StreamApp on TMote, window 4 s, every node
// offering one event at 4/s.
func reduceCase(t *testing.T, seed int64, nodes int, duration float64) *schedCase {
	g, src, onNode := runtime.StreamApp()
	cfg := runtime.Config{
		Graph: g, OnNode: onNode, Platform: platform.TMoteSky(),
		Nodes: nodes, Duration: duration, Seed: seed, WindowSeconds: 4,
	}
	return inputCase(t, "reduce", cfg, oneEvent(src))
}

// reduceCutB is runtime.StreamApp's cut with the stateful counts operator
// relocated from the server to the nodes.
func reduceCutB(g *dataflow.Graph, onNode map[int]bool) map[int]bool {
	cutB := maps.Clone(onNode)
	cutB[g.ByName("counts").ID()] = true
	return cutB
}

// replanCase is the reduce app replanned onto reduceCutB by a drift from 4
// to 16 arrivals/s at mid-run.
func replanCase(t *testing.T) *schedCase {
	g, src, onNode := runtime.StreamApp()
	cfg := runtime.Config{
		Graph: g, OnNode: onNode, Platform: platform.TMoteSky(),
		Nodes: 4, Duration: 24, Seed: 31, WindowSeconds: 2,
	}
	return newCase("reduce A→B", cfg, driftFeed(cfg.Nodes, cfg.Duration, 4, 16, src)).withReplan(reduceCutB(g, onNode))
}

// eegCuts are the EEG app's whole node namespace on the node, and its
// sources alone.
func eegCuts(app *eeg.App) (nodeCut, sourceCut map[int]bool) {
	nodeCut, sourceCut = map[int]bool{}, map[int]bool{}
	for _, op := range app.Graph.Operators() {
		nodeCut[op.ID()] = op.NS == dataflow.NSNode
	}
	for _, src := range app.Sources {
		sourceCut[src.ID()] = true
	}
	return nodeCut, sourceCut
}

// eegCfg is app on Gumstix cut at onNode.
func eegCfg(app *eeg.App, onNode map[int]bool, nodes int, duration float64, seed int64, window float64) runtime.Config {
	return runtime.Config{Graph: app.Graph, OnNode: onNode, Platform: platform.Gumstix(),
		Nodes: nodes, Duration: duration, Seed: seed, WindowSeconds: window}
}

// eegCase is 4-channel EEG cut after its sources on Gumstix, every node
// replaying runtime.SeizureTrace: the wavelet cascade, zip queues, SVM and
// global detector run server-side.
func eegCase(t *testing.T) *schedCase {
	app := eeg.NewWithChannels(4)
	_, sourceCut := eegCuts(app)
	inputs := runtime.SeizureTrace(app, 3, 16)
	return inputCase(t, "eeg seizure", eegCfg(app, sourceCut, 3, 16, 17, 4), func(int) []profile.Input { return inputs })
}

// eegNodeCase is 4-channel EEG with its node namespace on 3 Gumstix nodes
// for 30 s, node n replaying runtime.SeizureTrace seeded 40+n with channel
// i's clock at ×(1 − 0.02·i). Synchronized channels collide on the node CPU
// (nodeSim.feed drops an arrival that finds it busy); skewed, they deliver.
func eegNodeCase(t *testing.T) *schedCase {
	app := eeg.NewWithChannels(4)
	nodeCut, _ := eegCuts(app)
	return inputCase(t, "eeg node cut", eegCfg(app, nodeCut, 3, 30, 11, 0), func(n int) []profile.Input {
		ins := runtime.SeizureTrace(app, int64(40+n), 30)
		for i := range ins {
			ins[i].Rate *= 1 - 0.02*float64(i)
		}
		return ins
	})
}

// batchCases, each on its own graph: speech on Gumstix at cuts 1, 5, 6 and
// 7 (at 7 the sinks keep cepstrals computed on the server), the reduce
// app, both EEG cuts, and orderedStreamApp, whose partition is unshardable
// and order-sensitive.
func batchCases(t *testing.T) []*schedCase {
	var cs []*schedCase
	for _, prefix := range []int{1, 5, 6, 7} {
		cs = append(cs, speechCase(t, speech.New(), prefix, 4, 8, int64(60+prefix), 300))
	}
	g, src, onNode := orderedStreamApp()
	ordered := inputCase(t, "ordered", runtime.Config{
		Graph: g, OnNode: onNode, Platform: platform.TMoteSky(), Nodes: 4, Duration: 24, Seed: 11,
	}, oneEvent(src))
	return append(cs, reduceCase(t, 21, 4, 24), eegCase(t), eegNodeCase(t), ordered)
}

// servedPlacements are, by the batch case they run on, the placements of
// the benchmark's sim-fanin and sim-edge and of /v1/simulate (one trace
// for every node, Programs from the service's cache).
var servedPlacements = map[string][]schedule{
	"speech cut 1": {{batch: true, start: place{shards: 1, workers: 1}, progs: progShared}},
	"speech cut 6": {{batch: true, start: place{shards: 2, workers: 2}, progs: progShared}},
	"speech cut 5": {{batch: true, progs: progShared, traces: traceShared}},
}

// churnBurst is node churn plus Gilbert–Elliott bursty loss.
func churnBurst() *netsim.Scenario {
	return &netsim.Scenario{
		Churn: &netsim.Churn{Seed: 9, MeanUp: 6, MeanDown: 3},
		Burst: &netsim.Burst{Seed: 4, PGoodBad: 0.4, PBadGood: 0.5, BadFactor: 0.5},
	}
}

// TestScheduleHarness crosses harnessCases with scheduleSeeds as session
// schedules, and batchCases with them as batch placements (plus
// servedPlacements), and reports what the schedules reached. It fails
// unless every step kind ran, a host was lost at each of the four ops, a
// schedule combined a replan, a host loss and a snapshot, every batch
// setting was drawn, a batch run replayed a shared trace and one sharded an
// unshardable partition, and every sink digest compared covered values.
func TestScheduleHarness(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	tally := func(n int, keys ...string) {
		mu.Lock()
		for _, k := range keys {
			seen[k] += n
		}
		mu.Unlock()
	}
	t.Run("cases", func(t *testing.T) {
		for _, c := range harnessCases(t) {
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				ref := c.reference(t)
				if ref.sinks.Values == 0 {
					t.Fatalf("%s: no value reaches a server sink; its digests would compare empty sets", c.name)
				}
				for _, seed := range scheduleSeeds {
					sc := c.generate(seed, ref)
					got := c.verify(t, ref, sc)[0]
					replanned, lost := len(got.replans) > 0 || sc.has(stepMigrate), len(got.fired) > 0
					tally(1, "schedules", "session-programs="+sc.progs.String(), fmt.Sprintf("raw=%v", sc.raw))
					tally(len(got.replans), "replan")
					tally(got.snapshots, "snapshot")
					for _, f := range got.fired {
						tally(1, "loss-at-"+f.op)
					}
					for k, hit := range map[string]bool{"migrate": sc.has(stepMigrate), "sink-digests-compared": !lost,
						"replan+loss+snapshot": replanned && lost && got.snapshots > 0} {
						if hit {
							tally(1, k)
						}
					}
				}
			})
		}
	})
	t.Run("batch", func(t *testing.T) {
		for _, c := range batchCases(t) {
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				scs := slices.Clone(servedPlacements[c.name])
				for _, seed := range scheduleSeeds {
					scs = append(scs, c.generateBatch(seed))
				}
				for i, got := range c.verify(t, nil, scs...) {
					sc, shards := scs[i], fmt.Sprint(scs[i].start.shards)
					if got.sinks.Values == 0 {
						t.Fatalf("%s: %v compared an empty sink digest", c.name, sc)
					}
					if sc.start.shards == c.cfg.Nodes+1 {
						shards = "nodes+1"
					}
					tally(1, "batch-schedules", "shards="+shards, fmt.Sprintf("workers=%d", sc.start.workers),
						"programs="+sc.progs.String(), "traces="+sc.traces.String(), fmt.Sprintf("concurrent=%v", sc.concurrent))
					if sc.traces == traceShared && got.nodeIDs == 1 {
						tally(1, "replay")
					}
					if c.local && sc.start.shards > 1 {
						tally(1, "unshardable-fallback")
					}
				}
			})
		}
	})
	t.Logf("coverage: %v", seen)
	// Each group's keys are required when it ran (-run may select one).
	for group, keys := range map[string]string{
		"schedules": `snapshot migrate replan loss-at-compute loss-at-deliver loss-at-checkpoint loss-at-close
			replan+loss+snapshot sink-digests-compared session-programs=run session-programs=shared
			raw=false raw=true`,
		"batch-schedules": `replay unshardable-fallback shards=0 shards=1 shards=2 shards=3 shards=8 shards=nodes+1
			workers=1 workers=2 workers=4 workers=8 programs=run programs=shared
			traces=per-node traces=shared traces=own concurrent=false concurrent=true`,
	} {
		for _, k := range strings.Fields(keys) {
			if seen[group] > 0 && seen[k] == 0 {
				t.Errorf("no schedule reached %s", k)
			}
		}
	}
}

// The rows below are the per-feature parity tests the harness replaced.
// Each keeps its name, runs its old scenario as fixed schedules over its
// own case with its own assertions, and verifies two generated schedules
// over the same case. They run in parallel: every row owns its graphs.

// chainSchedules snapshot before any input, after the last offer, and
// three times in a row, resuming at the placements the old snapshot suite
// cycled through.
func chainSchedules(c *schedCase) []schedule {
	n := len(c.feed)
	v := []place{{}, {shards: 3, workers: 2}, {shards: 2, workers: 1}}
	snap := func(at int, to place) step { return step{kind: stepSnapshot, at: at, to: to} }
	return []schedule{
		{steps: []step{snap(0, v[1])}},
		{steps: []step{snap(n, v[1])}},
		{steps: []step{snap(n/3, v[1]), snap(n/2, v[2]), snap(n-1, v[0])}},
	}
}

// placementSchedules start the run on every host layout (everything on one
// host, an even two-way split, one origin per host, round robin over
// three) at each of the given Shards.
func placementSchedules(nodes int, shards ...int) []schedule {
	all := runtime.PartitionOrigins(nodes, 1)[0]
	var scs []schedule
	for _, parts := range [][][]int{{all}, {all[:nodes/2], all[nodes/2:]}, runtime.PartitionOrigins(nodes, nodes), runtime.PartitionOrigins(nodes, 3)} {
		for _, s := range shards {
			scs = append(scs, schedule{start: place{parts: parts, shards: s}})
		}
	}
	return scs
}

// TestSessionSnapshotResumeSpeech: the prefix-1 cut relocates the stateful
// preemph/prefilt operators to the server, so per-origin state tables,
// loss-RNG positions and in-flight reassembly all cross the snapshot.
func TestSessionSnapshotResumeSpeech(t *testing.T) {
	t.Parallel()
	app := speech.New()
	for _, prefix := range []int{1, 5} {
		c := speechCase(t, app, prefix, 4, 8, int64(60+prefix), 300)
		ref := c.live(t)
		c.verify(t, ref, chainSchedules(c)...)
		c.fuzz(t, ref, 2)
	}
}

// TestSessionSnapshotResumeEEG covers the unshardable path: the global
// `detect` state and the zip queues' cross-window buffers travel in the
// snapshot's Server section. The source cut ships every raw channel
// sample; the node cut exercises the node-side dc/FIR states instead.
func TestSessionSnapshotResumeEEG(t *testing.T) {
	t.Parallel()
	app := eeg.NewWithChannels(4)
	inputs := app.SampleTrace(3, 16)
	nodeCut, sourceCut := eegCuts(app)
	for name, onNode := range map[string]map[int]bool{"source-cut": sourceCut, "node-cut": nodeCut} {
		c := inputCase(t, name, eegCfg(app, onNode, 3, 16, 17, 4), func(int) []profile.Input { return inputs })
		ref := c.reference(t)
		if ref.res.InputEvents == 0 || ref.res.ProcessedEvents == 0 ||
			name == "source-cut" && (ref.res.MsgsSent == 0 || ref.res.ServerEmits == 0) {
			t.Fatalf("%s: degenerate run %+v", name, ref.res)
		}
		c.verify(t, ref, chainSchedules(c)...)
	}
	c := eegCase(t)
	c.fuzz(t, c.reference(t), 2)
}

// TestSessionSnapshotResumeReduce: cross-window pending rounds, per-edge
// flush watermarks and the aggregate origin's fragmentation sequence all
// travel in the snapshot.
func TestSessionSnapshotResumeReduce(t *testing.T) {
	t.Parallel()
	c := reduceCase(t, 11, 5, 24)
	ref := c.live(t)
	c.verify(t, ref, chainSchedules(c)...)
	c.fuzz(t, ref, 2)
}

// TestDistributedParitySpeech: each host's per-origin state tables, loss
// RNG streams and reassembly behave exactly as their slice of the
// single-host run.
func TestDistributedParitySpeech(t *testing.T) {
	t.Parallel()
	app := speech.New()
	for _, prefix := range []int{1, 5} {
		c := speechCase(t, app, prefix, 6, 10, int64(80+prefix), 500)
		ref := c.live(t)
		c.verify(t, ref, placementSchedules(c.cfg.Nodes, 0, 2)...)
		c.fuzz(t, ref, 2)
	}
}

// TestDistributedParityReduce: reduce rounds combine contributions of
// origins on different hosts at the coordinator, whose plan delivers the
// aggregates.
func TestDistributedParityReduce(t *testing.T) {
	t.Parallel()
	c := reduceCase(t, 21, 5, 24)
	ref := c.live(t)
	c.verify(t, ref, placementSchedules(c.cfg.Nodes, 0, 2)...)
	c.fuzz(t, ref, 2)
}

// TestDistributedSnapshotInterplay: a two-host run and a run snapshotted
// mid-stream both equal the single-host reference.
func TestDistributedSnapshotInterplay(t *testing.T) {
	t.Parallel()
	c := speechCase(t, speech.New(), 1, 4, 8, 33, 900)
	ref := c.reference(t)
	c.verify(t, ref, schedule{start: place{parts: runtime.PartitionOrigins(c.cfg.Nodes, 2)}},
		schedule{steps: []step{{kind: stepSnapshot, at: len(c.feed) / 2}}})
	c.fuzz(t, ref, 2)
}

// recoveryCase is the speech run the recovery rows lose hosts in.
func recoveryCase(t *testing.T) *schedCase { return speechCase(t, speech.New(), 1, 6, 10, 97, 700) }

// lossAt is a two-host schedule with recovery every `every` windows that
// arms host 0's fuse before feed[at].
func lossAt(c *schedCase, every, at int, op string, after int, more ...step) schedule {
	steps := append([]step{{kind: stepLoss, at: at, op: op, after: after}}, more...)
	return schedule{start: place{parts: runtime.PartitionOrigins(c.cfg.Nodes, 2)}, every: every, steps: steps}
}

// TestDistRecoveryParity kills host 0 of two at every failure surface the
// coordinator drives, sweeping the kill point and the checkpoint cadence.
func TestDistRecoveryParity(t *testing.T) {
	t.Parallel()
	c := recoveryCase(t)
	ref, fired := c.live(t), 0
	for _, every := range []int{1, 3} {
		for _, op := range lossOps {
			for _, after := range []int{0, 1, 3} {
				fired += len(c.verify(t, ref, lossAt(c, every, 0, op, after))[0].fired)
			}
		}
	}
	if fired == 0 {
		t.Fatal("no fuse ever fired; the sweep tested nothing")
	}
	c.fuzz(t, ref, 2)
}

// TestDistRecoveryRepeatedFailures keeps killing the replacement too: every
// reopened driver dies again after one more window, three kills in all.
func TestDistRecoveryRepeatedFailures(t *testing.T) {
	t.Parallel()
	c := recoveryCase(t)
	ref, sc := c.live(t), lossAt(c, 1, 0, "compute", 0)
	sc.steps[0].again = 2
	if got := c.verify(t, ref, sc)[0]; len(got.recoveries) < 2 {
		t.Fatalf("expected repeated recoveries, got %d", len(got.recoveries))
	}
	c.fuzz(t, ref, 2)
}

// TestDistRecoverySnapshot loses a host at the freeze barrier itself:
// Snapshot recovers it, snapshots the replacement, and the resumed
// continuation equals the reference.
func TestDistRecoverySnapshot(t *testing.T) {
	t.Parallel()
	c := recoveryCase(t)
	ref, cut := c.live(t), len(c.feed)/2
	got := c.verify(t, ref, lossAt(c, 1, cut, "checkpoint", 0, step{kind: stepSnapshot, at: cut}))[0]
	if len(got.recoveries) != 1 || got.recoveries[0].Op != "snapshot" {
		t.Fatalf("want one recovery inside the snapshot, got %+v", got.recoveries)
	}
	c.fuzz(t, ref, 2)
}

// migrateAt is the external replan chain: snapshot right after the
// reference's replan fired, migrate onto cutB, resume at to.
func migrateAt(ref *outcome, to place) schedule {
	return schedule{steps: []step{{kind: stepMigrate, at: ref.bounds[0] + 1, to: to}}}
}

// TestReplanParity: the control loop's in-place replan of a drift-injected
// trace equals the external Snapshot → MigrateSnapshot → ResumeSession
// chain cut at the same boundary, at any Shards/Workers of the resumed
// half.
func TestReplanParity(t *testing.T) {
	t.Parallel()
	c := replanCase(t)
	ref := c.live(t)
	if counts := c.cfg.Graph.ByName("counts").ID(); len(ref.replans) != 1 || !slices.Equal(ref.replans[0].Moved, []int{counts}) {
		t.Fatalf("want one replan moving [%d], got %+v", counts, ref.replans)
	}
	if slices.Min(ref.multiples) < 1 {
		t.Errorf("planner asked to solve for shrink multiples %v on a growing load", ref.multiples)
	}
	if k := ref.bounds[0]; k == 0 || k == len(c.feed)-1 {
		t.Fatalf("replan fired at feed edge %d/%d; the drift injection is mistimed", k, len(c.feed))
	}
	c.verify(t, ref, migrateAt(ref, place{}), migrateAt(ref, place{shards: 3, workers: 2}), migrateAt(ref, place{shards: 2, workers: 1}))
	c.fuzz(t, ref, 2)
}

// TestReplanParitySpeech relocates speech's stateful preemph/prefilt
// operators, with live per-origin state tables, from the server onto the
// nodes.
func TestReplanParitySpeech(t *testing.T) {
	t.Parallel()
	app := speech.New()
	steady := speechCase(t, app, 1, 4, 8, 71, 700)
	cfg := steady.cfg
	cfg.WindowSeconds = 1
	// Drift: past mid-run each arrival is offered with two echoes 10 and
	// 20 ms later.
	var feed []feedItem
	for _, f := range steady.feed {
		feed = append(feed, f)
		for d := 1; d <= 2 && f.a.Time > cfg.Duration/2; d++ {
			e := f
			e.a.Time += float64(d) * 0.01
			feed = append(feed, e)
		}
	}
	c := newCase("speech replan", cfg, sortFeed(feed)).withReplan(speechCutOnNode(app, 3))
	ref := c.live(t)
	if len(ref.replans) != 1 || len(ref.replans[0].Moved) == 0 {
		t.Fatalf("want one replan with moved operators, got %+v", ref.replans)
	}
	c.verify(t, ref, migrateAt(ref, place{shards: 2, workers: 2}))
	c.fuzz(t, ref, 2)
}

// TestDistReplanParity: the controlled run over two hosts, rebinding onto
// 1, 2 and 3 hosts mid-run, equals the single-host controlled run.
func TestDistReplanParity(t *testing.T) {
	t.Parallel()
	c := replanCase(t)
	ref := c.reference(t)
	for hosts := 1; hosts <= 3; hosts++ {
		got := c.verify(t, ref, schedule{start: place{parts: runtime.PartitionOrigins(c.cfg.Nodes, 2)},
			steps: []step{{kind: stepReplan, to: place{parts: runtime.PartitionOrigins(c.cfg.Nodes, hosts)}}}})[0]
		if len(got.replans) != 1 || got.rebinds != 1 {
			t.Fatalf("hosts→%d: want one replan rebinding onto hosts, got %+v (%d rebinds)", hosts, got.replans, got.rebinds)
		}
	}
	c.fuzz(t, ref, 2)
}

// TestDistRecoveryAfterReplan loses a host in the first window after a
// relocating replan, before any checkpoint on the new cut: the replacement
// reopens from its share of the migrated snapshot (a blob-less reopen in a
// resumed run fails the schedule) and replays only the in-flight window.
func TestDistRecoveryAfterReplan(t *testing.T) {
	t.Parallel()
	c := replanCase(t)
	ref, two := c.reference(t), runtime.PartitionOrigins(c.cfg.Nodes, 2)
	// Cadence 1 leaves old-cut checkpoints at the handoff; 3 leaves an
	// old-cut replay tail as well.
	for _, every := range []int{1, 3} {
		got := c.verify(t, ref, schedule{start: place{parts: two}, every: every, steps: []step{
			{kind: stepReplan, to: place{parts: two}}, {kind: stepLoss, at: ref.bounds[0] + 1, op: "compute"}}})[0]
		if len(got.replans) != 1 || got.rebinds != 1 {
			t.Fatalf("every=%d: want one relocating replan, got %+v", every, got.replans)
		}
		if recs := got.recoveries; len(recs) != 1 || recs[0].Host != 0 || recs[0].Op != "compute" || recs[0].Windows != 1 {
			t.Fatalf("every=%d: want one recovery of host 0 replaying the in-flight window, got %+v", every, recs)
		}
	}
	c.fuzz(t, ref, 2)
}

// TestScenarioParityAcrossPlacements: the failure models are pure
// functions of (seed, node, window), so under node churn plus bursty loss
// no placement or snapshot chain observes a different failure schedule.
func TestScenarioParityAcrossPlacements(t *testing.T) {
	t.Parallel()
	c := speechCase(t, speech.New(), 1, 6, 12, 55, 300)
	clean := c.reference(t)
	c.cfg.Scenario = churnBurst()
	ref := c.reference(t)
	if ref.res.MsgsSent == 0 {
		t.Fatalf("scenario run degenerate: %+v", ref.res)
	}
	if clean.res == ref.res {
		t.Fatal("scenario had no observable effect on the run")
	}
	n := len(c.feed)
	c.verify(t, ref, append(placementSchedules(c.cfg.Nodes, 0),
		schedule{steps: []step{{kind: stepSnapshot, at: n / 3}, {kind: stepSnapshot, at: 2 * n / 3}}})...)
	c.fuzz(t, ref, 2)
}

// The session-parity rows hold the streaming invariant to the batch path:
// for a steady-rate, window-divisible trace, a Session, whose window w
// delivers behind the caller's ingest of window w+1, reproduces the batch
// Run byte for byte, sink values included, at every Shards/Workers of its
// one in-process host. Both are held to the reference engine on the
// case's Inputs. CI runs them under -race: the delivery goroutine and the
// Offer caller both touch the session.

// sessionVariants are the batch Run and a session on its one in-process
// host at each Shards/Workers pair the session-parity rows sweep.
func sessionVariants() []schedule {
	scs := []schedule{batchAt(0, 0)}
	for _, v := range [][2]int{{0, 1}, {4, 1}, {0, 4}, {2, 2}, {4, 4}, {8, 8}} {
		scs = append(scs, schedule{start: place{shards: v[0], workers: v[1]}})
	}
	return scs
}

// TestSessionParitySpeech: a server-heavy and a node-heavy speech cut at
// 40 events/s, window 2 s over 12 s; the prefix-1 cut relocates the
// stateful preemph/prefilt operators, so per-origin state tables meet
// concurrently delivering shards.
func TestSessionParitySpeech(t *testing.T) {
	t.Parallel()
	app := speech.New()
	for _, prefix := range []int{1, 5} {
		speechCase(t, app, prefix, 6, 12, int64(40+prefix), 300).expect(t, emits, sessionVariants()...)
	}
}

// TestSessionParityEEG covers the sequential-delivery fallback: `detect`
// is stateful in the Server namespace, so delivery collapses to one shard
// behind the sharded node phase (window 4 s divides the 2 s trace period
// and the 12 s duration). The node-cut row delivers no value (its channel
// arrivals collide on the node CPU); the seizure row ships raw windows of
// SeizureTrace and must hand the sink the same declared seizures as batch.
func TestSessionParityEEG(t *testing.T) {
	t.Parallel()
	app := eeg.NewWithChannels(4)
	nodeCut, sourceCut := eegCuts(app)
	for _, tc := range []struct {
		name   string
		onNode map[int]bool
		inputs []profile.Input
		ok     func(*outcome) bool
	}{
		{"node-cut", nodeCut, app.SampleTrace(3, 12), offers},
		{"seizure", sourceCut, runtime.SeizureTrace(app, 3, 12), delivers},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := inputCase(t, tc.name, eegCfg(app, tc.onNode, 3, 12, 17, 4), func(int) []profile.Input { return tc.inputs })
			if !c.local {
				t.Fatal("EEG app must exercise the sequential-delivery fallback")
			}
			c.expect(t, tc.ok, sessionVariants()...)
		})
	}
}

// orderedStreamApp is runtime.StreamApp with report made stateful in the
// Server namespace and fed twice: the aggregates from sum on port 0 and
// every node's counts on port 1. It emits on each port switch, so its
// output depends on how the two streams interleave — the one order an
// unshardable partition delivers aggregates and per-node messages in.
func orderedStreamApp() (*dataflow.Graph, *dataflow.Operator, map[int]bool) {
	g, src, onNode := runtime.StreamApp()
	report, counts := g.ByName("report"), g.ByName("counts")
	report.Stateful = true
	report.NewState = func() any { last := -1; return &last }
	report.Work = func(ctx *dataflow.Ctx, port int, v dataflow.Value, emit dataflow.Emit) {
		if last := ctx.State.(*int); *last != port {
			*last = port
			emit(v)
		}
	}
	out := g.Add(&dataflow.Operator{Name: "switches", NS: dataflow.NSServer, SideEffect: true,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {}})
	g.Connect(counts, report, 1)
	g.Connect(report, out, 0)
	return g, src, onNode
}

// TestSessionParityReduce: aggregates are finalized by the coordinator
// between the stages and delivered on the AggregateOrigin shard, Close's
// reduce tail behind the last window's delivery. The ordered row makes the
// partition unshardable and order-sensitive: aggregates and per-node
// messages must reach its one server instance in the batch path's single
// stable time order.
func TestSessionParityReduce(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name  string
		app   func() (*dataflow.Graph, *dataflow.Operator, map[int]bool)
		order bool
	}{
		{"shardable", runtime.StreamApp, false},
		{"unshardable-ordered", orderedStreamApp, true},
	} {
		g, src, onNode := tc.app()
		inputs := []profile.Input{{Source: src, Events: []dataflow.Value{[]float64{5, 7}}, Rate: 4}}
		cfg := runtime.Config{
			Graph: g, OnNode: onNode, Platform: platform.TMoteSky(),
			Nodes: 4, Duration: 64, Seed: 11, WindowSeconds: 16,
		}
		c := inputCase(t, tc.name, cfg, func(int) []profile.Input { return inputs })
		if c.local != tc.order {
			t.Fatalf("%s: distributable=%v", tc.name, !c.local)
		}
		c.verify(t, nil, sessionVariants()...)
	}
}
