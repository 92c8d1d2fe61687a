package runtime

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"wishbone/internal/dataflow"
	"wishbone/internal/netsim"
	"wishbone/internal/wire"
)

// Session is the incremental simulation API behind streaming ingestion,
// and the one window loop every streaming run has: Offer arrivals in
// nondecreasing time order (any node interleaving), Close to flush the
// tail and read the Result. The partition service's /v1/simulate/stream
// endpoint drives a Session straight from the request body; Run drives one
// from Config.ArrivalSource; the distributed coordinator drives one over
// remote shard hosts.
//
// A Session is the window coordinator over a list of host drivers
// (distsession.go). It keeps exactly the global pieces: the window clock,
// arrival admission and buffering, the failure scenario's gates, the
// in-network reduce rounds (they combine across all nodes), and the one
// global coupling — pricing each window's delivery ratio from the total
// offered air — with the ratio bookkeeping the final Result reports. The
// node phase and per-origin delivery run on the hosts: NewSession binds one
// in-process ShardHost owning every origin, NewDistSession any placement.
//
// Each window is strictly phased: the previous window's deliveries are
// joined, the hosts compute, the coordinator folds and prices, and the
// deliveries start behind the caller, which ingests window w+1 while w
// delivers — so in process simulation work stays within Config.Workers.
// Results are byte-identical at every host count, origin placement and
// Shards/Workers setting: integer counters sum order-free, reduce
// contributions re-merge in global node order, pricing stays on the
// caller in window order, and node CPU seconds sum in node order.
type Session struct {
	cfg     Config
	ch      netsim.Channel
	agg     *reduceAggregator
	sources map[*dataflow.Operator]bool
	scen    *scenarioState
	window  float64
	buf     [][]arrival

	// replan is the armed control loop (control.go), nil when off. Every
	// priced window feeds it on the Offer caller's goroutine — pricing is
	// a coordinator-side step even when delivery runs behind the caller
	// or remotely — and it may relocate the run after an Offer.
	replan *replanner

	windowClock
	maxBuffered int
	buffered    int
	res         Result
	closed      bool

	// The bound hosts (distsession.go). aggPlan delivers AggregateOrigin's
	// messages — nil for an unshardable partition, whose one in-process
	// host sorts them in with its own.
	hosts   []HostBinding
	ownerOf []int // node -> index into hosts
	aggPlan *deliveryPlan

	// Per-window scratch: arrivals grouped per host, each host's report
	// and call error, the window's aggregates and their sort scratch.
	hostArr [][]HostArrival
	reports []*WindowReport
	errs    []error
	out     []message
	scratch []message

	// delivery counts the window delivering behind the caller (at most
	// one), delivering the hosts it calls and aggErr its aggregate failure,
	// all read only after join. err is the first window failure, and no
	// window runs on top of it.
	delivery   sync.WaitGroup
	delivering []int
	aggErr     error
	err        error

	// Host-failure recovery (recovery.go): the armed policy, each host's
	// last boundary checkpoint, and the window tail flushed since it.
	rec        *DistRecovery
	ckpts      [][]byte
	tail       []distWindowRec
	sinceCkpt  int
	recoveries []RecoveryEvent

	// ingest backs OfferRaw's zero-copy decode: raw JSON arrival values
	// land in generational typed slabs instead of one allocation per
	// arrival. Rotated once per flushed window; under the proof bind
	// runs, a generation's blocks are carved again once its window is
	// joined and out of the replay tail (ingest.go).
	ingest ingestArena

	started time.Time
}

// windowClock is the coordinator's scalar state that crosses a snapshot:
// the time-order watermark, the window clock, and the ratio bookkeeping.
// sessionSnap embeds the same struct, so capture and apply copy it whole.
type windowClock struct {
	lastTime     float64
	windowStart  float64
	lastSpan     float64
	peakBuffered int
	totalAir     int
	ratioFirst   float64
	ratioAir     float64
	ratioUniform bool
	sawWindow    bool
}

// maxWindowArrivals caps one ingestion window's buffered arrivals — far
// above any sane window (64 nodes × 40 ev/s × 60 s ≈ 150k) but a hard
// stop for a hostile or misconfigured stream that never crosses a window
// boundary.
const maxWindowArrivals = 1 << 20

// init validates cfg and builds the coordinator state in place (the
// scenario gates hold &s.cfg, so the session must not move after this).
func (s *Session) init(cfg Config) error {
	if err := validateConfig(&cfg); err != nil {
		return err
	}
	if math.IsNaN(cfg.WindowSeconds) || math.IsInf(cfg.WindowSeconds, 0) || cfg.WindowSeconds < 0 {
		return fmt.Errorf("runtime: bad WindowSeconds %g", cfg.WindowSeconds)
	}
	s.cfg = cfg
	s.ch = netsim.ChannelFor(cfg.Platform)
	s.agg = newReduceAggregator(cfg.Nodes)
	s.sources = make(map[*dataflow.Operator]bool)
	s.window = cfg.WindowSeconds
	s.buf = make([][]arrival, cfg.Nodes)
	s.maxBuffered = cfg.MaxBufferedArrivals
	s.windowClock = windowClock{ratioUniform: true}
	if s.maxBuffered <= 0 || s.maxBuffered > maxWindowArrivals {
		s.maxBuffered = maxWindowArrivals
	}
	if s.window <= 0 {
		s.window = 10
	}
	if s.window > cfg.Duration {
		s.window = cfg.Duration
	}
	s.lastSpan = s.window
	for _, src := range cfg.Graph.Sources() {
		s.sources[src] = true
	}
	s.scen = newScenarioState(&s.cfg)
	return nil
}

// Offer feeds one arrival. Arrivals must be globally nondecreasing in
// time across nodes (per-node interleaving is free); crossing a window
// boundary flushes the completed window through the node phase and the
// server-side delivery. Arrivals at or beyond cfg.Duration are ignored,
// like the batch path's arrival builder.
func (s *Session) Offer(nodeID int, a Arrival) error {
	return s.offer(nodeID, a.Time, a.Source, func(bool) (dataflow.Value, error) { return a.Value, nil })
}

// offer is Offer and OfferRaw: admit the arrival, flush the window
// boundaries its time crosses, and buffer the value unless it drops — past
// Duration, or at a node the failure scenario has crashed (whose arrival
// vanishes, but whose time already advanced the window clock, so windows
// keep flushing and the control loop keeps observing while nodes are
// down). value yields the arrival's value, told whether it drops. The
// control loop's handoff, when it triggers, runs last: the arrival is
// already buffered and travels in the snapshot.
func (s *Session) offer(nodeID int, t float64, src *dataflow.Operator, value func(drop bool) (dataflow.Value, error)) error {
	if err := s.admit(nodeID, src, t); err != nil {
		return err
	}
	drop := t >= s.cfg.Duration
	if !drop {
		if err := s.advance(t); err != nil {
			return err
		}
		drop = s.scen.drops(nodeID, t)
	}
	v, err := value(drop)
	if err != nil {
		return err
	}
	if !drop {
		if err := s.push(nodeID, arrival{t: t, src: src, v: v}); err != nil {
			return err
		}
	}
	if s.replan != nil {
		return s.maybeReplan()
	}
	return nil
}

// admit applies the per-arrival validity checks shared by Offer and
// OfferRaw and advances the time-order watermark.
func (s *Session) admit(nodeID int, src *dataflow.Operator, t float64) error {
	if s.closed {
		return fmt.Errorf("runtime: Offer on a closed session")
	}
	if nodeID < 0 || nodeID >= s.cfg.Nodes {
		return fmt.Errorf("runtime: arrival for node %d outside [0,%d): %w", nodeID, s.cfg.Nodes, ErrBadArrival)
	}
	if !s.sources[src] {
		// Arrivals inject only at the graph's sources (all of which
		// validateConfig pins to the node partition, §4.2.1) — an
		// injection at a mid-graph or server-side operator would bypass
		// upstream processing and silently skew the Result.
		return fmt.Errorf("runtime: arrival source %v is not a source of the graph: %w", src, ErrBadArrival)
	}
	if t < s.lastTime {
		return fmt.Errorf("runtime: arrivals out of order (%.6f after %.6f): %w", t, s.lastTime, ErrBadArrival)
	}
	s.lastTime = t
	return nil
}

// advance flushes every window boundary the arrival time crosses.
func (s *Session) advance(t float64) error {
	for t >= s.windowStart+s.window {
		if s.windowStart+s.window <= s.windowStart {
			return fmt.Errorf("runtime: WindowSeconds %g cannot advance the window clock at t=%g",
				s.window, s.windowStart)
		}
		if s.buffered == 0 {
			// Nothing pending: jump the window clock over the rest of the
			// arrival gap in one step rather than one (empty) flush per
			// window — windows can be arbitrarily small relative to the
			// gap, and the gap can follow a flushed window.
			if steps := math.Floor((t - s.windowStart) / s.window); steps > 1 {
				s.windowStart += (steps - 1) * s.window
				continue
			}
		}
		if err := s.flushWindow(); err != nil {
			return err
		}
	}
	return nil
}

// push buffers one validated, in-window arrival.
func (s *Session) push(nodeID int, a arrival) error {
	if s.buffered >= s.maxBuffered {
		// The buffer is the streaming path's entire working set; a window
		// dense enough to blow past this cap (arrival density × window
		// size is caller-controlled) must fail rather than grow without
		// bound — shrink WindowSeconds or thin the trace. Typed as
		// backpressure so servers can shed the tenant with a 429.
		return fmt.Errorf("runtime: window [%g,%g) exceeds %d buffered arrivals: %w",
			s.windowStart, s.windowStart+s.window, s.maxBuffered, ErrBackpressure)
	}
	s.buf[nodeID] = append(s.buf[nodeID], a)
	s.buffered++
	if s.buffered > s.peakBuffered {
		s.peakBuffered = s.buffered
	}
	return nil
}

// flushWindow steps the window clock and runs the window that just
// completed through the window loop.
func (s *Session) flushWindow() error {
	// The window's span is WindowSeconds except for a final partial
	// window (Duration not a multiple of the window): its messages
	// occupy only the remaining simulated time, and pricing them over a
	// full window would understate the offered load.
	span := s.window
	if rest := s.cfg.Duration - s.windowStart; rest < span {
		span = rest
	}
	s.windowStart += s.window
	if s.buffered == 0 {
		// Nothing arrived this window: no node work, no new reduce
		// rounds, nothing to deliver — just advance the window clock
		// (arrival gaps must not spin up the worker pool per window).
		return nil
	}
	s.lastSpan = span
	return s.flushBuffered(span)
}

// price turns one window's total offered air into its delivery ratio —
// the run's only global coupling — and keeps the books the final Result
// reports. messages counts what the window delivers; a window with
// nothing to deliver (every element folded into pending reduce rounds)
// is observed but not priced, and callers skip delivery.
func (s *Session) price(air int, span float64, messages int) float64 {
	obs := WindowObservation{Start: s.windowStart - s.window, Span: span}
	if messages > 0 {
		s.totalAir += air
		ratio := s.ch.DeliveryRatio(float64(air) / span)
		ratio = s.scen.priceRatio(ratio, s.windowIndex())
		if !s.sawWindow {
			s.ratioFirst, s.sawWindow = ratio, true
		} else if ratio != s.ratioFirst {
			s.ratioUniform = false
		}
		s.ratioAir += ratio * float64(air)
		obs.AirBytes, obs.Ratio, obs.Messages = air, ratio, messages
	}
	if s.replan != nil {
		s.replan.loop.Observe(obs)
	}
	return obs.Ratio
}

// windowIndex is the zero-based index of the window being priced (its
// start is windowStart - window: flushWindow has already advanced the
// clock past it). It keys the burst model's per-window loss chain, and
// is identical across placements because the window clock is.
func (s *Session) windowIndex() int {
	return int(math.Round(s.windowStart/s.window)) - 1
}

// PeakBuffered reports the most arrivals ever buffered at once — the
// streaming path's working-set bound, a function of the window and the
// arrival rate but not of the trace duration.
func (s *Session) PeakBuffered() int { return s.peakBuffered }

// finish derives the Result's run-level figures once every node's busy
// seconds are summed into res.NodeCPU.
func (s *Session) finish() {
	s.res.NodeCPU /= s.cfg.Duration * float64(s.cfg.Nodes)
	s.res.OfferedAirBytesPerSec = float64(s.totalAir) / s.cfg.Duration
	switch {
	case !s.sawWindow:
		s.res.DeliveryRatio = s.ch.DeliveryRatio(0)
	case s.ratioUniform:
		// Every window priced identically — report that exact ratio (the
		// steady-rate case, byte-identical to the batch path's).
		s.res.DeliveryRatio = s.ratioFirst
	default:
		s.res.DeliveryRatio = s.ratioAir / float64(s.totalAir)
	}
}

// capture fills snap's coordinator-owned sections: the run identity, the
// clock and ratio bookkeeping, the partial Result counters, each node's
// buffered arrivals, and the pending reduce rounds. The node sides and
// the delivery state come from the hosts (Snapshot).
func (s *Session) capture(snap *sessionSnap) error {
	cfg := &s.cfg
	snap.hash = cfg.Graph.StructuralHash()
	snap.onNode = onNodeIDs(cfg.Graph, cfg.OnNode)
	snap.platform = cfg.Platform.Name
	snap.nodes = cfg.Nodes
	snap.duration = cfg.Duration
	snap.seed = cfg.Seed
	snap.window = s.window

	snap.windowClock = s.windowClock
	snap.res = s.res

	snap.perNode = make([]nodeSnap, cfg.Nodes)
	for n, buf := range s.buf {
		arrivals := make([]arrivalSnap, len(buf))
		for i, a := range buf {
			enc, err := wire.Marshal(a.v)
			if err != nil {
				return fmt.Errorf("runtime: buffered arrival at node %d does not marshal: %w", n, err)
			}
			arrivals[i] = arrivalSnap{t: a.t, src: a.src.ID(), blob: enc}
		}
		snap.perNode[n].arrivals = arrivals
	}
	agg, err := captureAggregator(s.agg, edgeIndexes(cfg))
	snap.agg = agg
	return err
}

// apply loads a decoded snapshot's coordinator-owned sections into a
// freshly bound session, after checking it is a snapshot of this run:
// everything capture took, plus AggregateOrigin's delivery row when the
// coordinator's own plan delivers the aggregates. The
// delivery counters the snapshot carries fold into the partial Result
// here — the coordinator is their one owner; deliveryPlan.restoreState
// never folds them.
func (s *Session) apply(snap *sessionSnap) error {
	cfg := &s.cfg
	if err := snap.check(cfg, s.window); err != nil {
		return err
	}
	s.windowClock = snap.windowClock
	s.res = snap.res
	s.res.MsgsReceived += snap.shard.MsgsReceived
	s.res.DeliveredBytes += snap.shard.DeliveredBytes
	s.res.ServerEmits += snap.shard.ServerEmits

	for n := range snap.perNode {
		for _, a := range snap.perNode[n].arrivals {
			src := cfg.Graph.ByID(a.src)
			if src == nil || !s.sources[src] {
				return fmt.Errorf("runtime: snapshot buffered arrival at non-source operator %d", a.src)
			}
			v, _, err := wire.Unmarshal(a.blob)
			if err != nil {
				return err
			}
			s.buf[n] = append(s.buf[n], arrival{t: a.t, src: src, v: v})
			s.buffered++
		}
	}
	if s.buffered > s.peakBuffered {
		s.peakBuffered = s.buffered
	}
	if err := restoreAggFromSnap(cfg, s.agg, snap.agg); err != nil || s.aggPlan == nil {
		return err
	}
	sub := &ShardState{}
	for _, o := range snap.shard.Origins {
		if o.Origin == AggregateOrigin {
			sub.Origins = append(sub.Origins, o)
		}
	}
	return s.aggPlan.restoreState(cfg, sub)
}

// onNodeIDs lists a cut's node-side operator IDs in ascending order — the
// form the snapshot header and the shard protocol name a cut in.
func onNodeIDs(g *dataflow.Graph, onNode map[int]bool) []int {
	var ids []int
	for _, op := range g.Operators() {
		if onNode[op.ID()] {
			ids = append(ids, op.ID())
		}
	}
	sort.Ints(ids)
	return ids
}
