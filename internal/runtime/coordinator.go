package runtime

import (
	"fmt"
	"math"
	"sort"

	"wishbone/internal/dataflow"
	"wishbone/internal/netsim"
	"wishbone/internal/wire"
)

// windowCore is the window coordinator every streaming run has exactly
// one of, wherever its node phase and delivery execute: the window clock,
// arrival admission and buffering, the failure scenario's gates, the
// in-network reduce rounds, and the one global coupling — pricing each
// window's delivery ratio from the total offered air — with the ratio
// bookkeeping the final Result reports. Session (in-process stages) and
// DistSession (stages on shard hosts) embed it by value, so the
// per-arrival path stays direct calls; each supplies only runWindow, how
// one window's buffered arrivals execute.
type windowCore struct {
	cfg     Config
	ch      netsim.Channel
	agg     *reduceAggregator
	sources map[*dataflow.Operator]bool
	scen    *scenarioState
	window  float64
	buf     [][]arrival

	// runWindow executes one non-empty window of span simulated seconds:
	// feed c.buf through the node phase, fold reduce rounds, price,
	// deliver. Set once by the embedding session.
	runWindow func(span float64) error

	// OnWindow, when set, observes every priced window as it flushes —
	// the live load signal the control loop (control.go) folds into its
	// online profile. It always runs on the Offer caller's goroutine
	// (window pricing is a coordinator-side step even when delivery runs
	// behind the caller or remotely), so implementations need no locking
	// against the session.
	OnWindow func(WindowObservation)

	windowClock
	maxBuffered int
	buffered    int
	res         Result
	closed      bool
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
// embedding session hands out &c.cfg, so the core must not move after
// this).
func (c *windowCore) init(cfg Config) error {
	if err := validateConfig(&cfg); err != nil {
		return err
	}
	if math.IsNaN(cfg.WindowSeconds) || math.IsInf(cfg.WindowSeconds, 0) || cfg.WindowSeconds < 0 {
		return fmt.Errorf("runtime: bad WindowSeconds %g", cfg.WindowSeconds)
	}
	*c = windowCore{
		cfg:         cfg,
		ch:          netsim.ChannelFor(cfg.Platform),
		agg:         newReduceAggregator(cfg.Nodes),
		sources:     make(map[*dataflow.Operator]bool),
		window:      cfg.WindowSeconds,
		buf:         make([][]arrival, cfg.Nodes),
		maxBuffered: cfg.MaxBufferedArrivals,
		windowClock: windowClock{ratioUniform: true},
	}
	if c.maxBuffered <= 0 || c.maxBuffered > maxWindowArrivals {
		c.maxBuffered = maxWindowArrivals
	}
	if c.window <= 0 {
		c.window = 10
	}
	if c.window > cfg.Duration {
		c.window = cfg.Duration
	}
	c.lastSpan = c.window
	for _, src := range cfg.Graph.Sources() {
		c.sources[src] = true
	}
	c.scen = newScenarioState(&c.cfg)
	return nil
}

// core hands the control loop (control.go) the coordinator state of
// whichever session embeds it.
func (c *windowCore) core() *windowCore { return c }

// Offer feeds one arrival. Arrivals must be globally nondecreasing in
// time across nodes (per-node interleaving is free); crossing a window
// boundary flushes the completed window through the node phase and the
// server-side delivery. Arrivals at or beyond cfg.Duration are ignored,
// like the batch path's arrival builder.
func (c *windowCore) Offer(nodeID int, a Arrival) error {
	if err := c.admit(nodeID, a.Source, a.Time); err != nil {
		return err
	}
	if a.Time >= c.cfg.Duration {
		return nil
	}
	if err := c.advance(a.Time); err != nil {
		return err
	}
	if c.scen.drops(nodeID, a.Time) {
		// The node is crashed under the failure scenario: the arrival
		// vanishes, but its time already advanced the window clock so
		// windows keep flushing (and the control loop keeps observing)
		// while nodes are down.
		return nil
	}
	return c.push(nodeID, arrival{t: a.Time, src: a.Source, v: a.Value})
}

// admit applies the per-arrival validity checks shared by Offer and
// OfferRaw and advances the time-order watermark.
func (c *windowCore) admit(nodeID int, src *dataflow.Operator, t float64) error {
	if c.closed {
		return fmt.Errorf("runtime: Offer on a closed session")
	}
	if nodeID < 0 || nodeID >= c.cfg.Nodes {
		return fmt.Errorf("runtime: arrival for node %d outside [0,%d): %w", nodeID, c.cfg.Nodes, ErrBadArrival)
	}
	if !c.sources[src] {
		// Arrivals inject only at the graph's sources (all of which
		// validateConfig pins to the node partition, §4.2.1) — an
		// injection at a mid-graph or server-side operator would bypass
		// upstream processing and silently skew the Result.
		return fmt.Errorf("runtime: arrival source %v is not a source of the graph: %w", src, ErrBadArrival)
	}
	if t < c.lastTime {
		return fmt.Errorf("runtime: arrivals out of order (%.6f after %.6f): %w", t, c.lastTime, ErrBadArrival)
	}
	c.lastTime = t
	return nil
}

// advance flushes every window boundary the arrival time crosses.
func (c *windowCore) advance(t float64) error {
	for t >= c.windowStart+c.window {
		if c.windowStart+c.window <= c.windowStart {
			return fmt.Errorf("runtime: WindowSeconds %g cannot advance the window clock at t=%g",
				c.window, c.windowStart)
		}
		if c.buffered == 0 {
			// Nothing pending: jump the window clock over the rest of the
			// arrival gap in one step rather than one (empty) flush per
			// window — windows can be arbitrarily small relative to the
			// gap, and the gap can follow a flushed window.
			if steps := math.Floor((t - c.windowStart) / c.window); steps > 1 {
				c.windowStart += (steps - 1) * c.window
				continue
			}
		}
		if err := c.flushWindow(); err != nil {
			return err
		}
	}
	return nil
}

// push buffers one validated, in-window arrival.
func (c *windowCore) push(nodeID int, a arrival) error {
	if c.buffered >= c.maxBuffered {
		// The buffer is the streaming path's entire working set; a window
		// dense enough to blow past this cap (arrival density × window
		// size is caller-controlled) must fail rather than grow without
		// bound — shrink WindowSeconds or thin the trace. Typed as
		// backpressure so servers can shed the tenant with a 429.
		return fmt.Errorf("runtime: window [%g,%g) exceeds %d buffered arrivals: %w",
			c.windowStart, c.windowStart+c.window, c.maxBuffered, ErrBackpressure)
	}
	c.buf[nodeID] = append(c.buf[nodeID], a)
	c.buffered++
	if c.buffered > c.peakBuffered {
		c.peakBuffered = c.buffered
	}
	return nil
}

// flushWindow steps the window clock and runs the window that just
// completed through runWindow.
func (c *windowCore) flushWindow() error {
	// The window's span is WindowSeconds except for a final partial
	// window (Duration not a multiple of the window): its messages
	// occupy only the remaining simulated time, and pricing them over a
	// full window would understate the offered load.
	span := c.window
	if rest := c.cfg.Duration - c.windowStart; rest < span {
		span = rest
	}
	c.windowStart += c.window
	if c.buffered == 0 {
		// Nothing arrived this window: no node work, no new reduce
		// rounds, nothing to deliver — just advance the window clock
		// (arrival gaps must not spin up the worker pool per window).
		return nil
	}
	c.lastSpan = span
	return c.runWindow(span)
}

// price turns one window's total offered air into its delivery ratio —
// the run's only global coupling — and keeps the books the final Result
// reports. messages counts what the window delivers; a window with
// nothing to deliver (every element folded into pending reduce rounds)
// is observed but not priced, and callers skip delivery.
func (c *windowCore) price(air int, span float64, messages int) float64 {
	obs := WindowObservation{Start: c.windowStart - c.window, Span: span}
	if messages > 0 {
		c.totalAir += air
		ratio := c.ch.DeliveryRatio(float64(air) / span)
		ratio = c.scen.priceRatio(ratio, c.windowIndex())
		if !c.sawWindow {
			c.ratioFirst, c.sawWindow = ratio, true
		} else if ratio != c.ratioFirst {
			c.ratioUniform = false
		}
		c.ratioAir += ratio * float64(air)
		obs.AirBytes, obs.Ratio, obs.Messages = air, ratio, messages
	}
	if c.OnWindow != nil {
		c.OnWindow(obs)
	}
	return obs.Ratio
}

// windowIndex is the zero-based index of the window being priced (its
// start is windowStart - window: flushWindow has already advanced the
// clock past it). It keys the burst model's per-window loss chain, and
// is identical across placements because the window clock is.
func (c *windowCore) windowIndex() int {
	return int(math.Round(c.windowStart/c.window)) - 1
}

// PeakBuffered reports the most arrivals ever buffered at once — the
// streaming path's working-set bound, a function of the window and the
// arrival rate but not of the trace duration.
func (c *windowCore) PeakBuffered() int { return c.peakBuffered }

// finish derives the Result's run-level figures once every node's busy
// seconds are summed into res.NodeCPU.
func (c *windowCore) finish() {
	c.res.NodeCPU /= c.cfg.Duration * float64(c.cfg.Nodes)
	c.res.OfferedAirBytesPerSec = float64(c.totalAir) / c.cfg.Duration
	switch {
	case !c.sawWindow:
		c.res.DeliveryRatio = c.ch.DeliveryRatio(0)
	case c.ratioUniform:
		// Every window priced identically — report that exact ratio (the
		// steady-rate case, byte-identical to the batch path's).
		c.res.DeliveryRatio = c.ratioFirst
	default:
		c.res.DeliveryRatio = c.ratioAir / float64(c.totalAir)
	}
}

// capture fills snap's coordinator-owned sections: the run identity, the
// clock and ratio bookkeeping, the partial Result counters, each node's
// buffered arrivals, and the pending reduce rounds. The node sides and
// the delivery state are the embedding session's to add.
func (c *windowCore) capture(snap *sessionSnap) error {
	cfg := &c.cfg
	snap.hash = cfg.Graph.StructuralHash()
	snap.onNode = onNodeIDs(cfg.Graph, cfg.OnNode)
	snap.platform = cfg.Platform.Name
	snap.nodes = cfg.Nodes
	snap.duration = cfg.Duration
	snap.seed = cfg.Seed
	snap.window = c.window

	snap.windowClock = c.windowClock
	snap.res = c.res

	snap.perNode = make([]nodeSnap, cfg.Nodes)
	for n, buf := range c.buf {
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
	agg, err := captureAggregator(c.agg, edgeIndexes(cfg))
	snap.agg = agg
	return err
}

// apply loads a decoded snapshot's coordinator-owned sections into a
// freshly built core, after checking it is a snapshot of this run. The
// delivery counters the snapshot carries fold into the partial Result
// here — the coordinator is their one owner; deliveryPlan.restoreState
// never folds them.
func (c *windowCore) apply(snap *sessionSnap) error {
	cfg := &c.cfg
	if err := snap.check(cfg, c.window); err != nil {
		return err
	}
	c.windowClock = snap.windowClock
	c.res = snap.res
	c.res.MsgsReceived += snap.shard.MsgsReceived
	c.res.DeliveredBytes += snap.shard.DeliveredBytes
	c.res.ServerEmits += snap.shard.ServerEmits

	for n := range snap.perNode {
		for _, a := range snap.perNode[n].arrivals {
			src := cfg.Graph.ByID(a.src)
			if src == nil || !c.sources[src] {
				return fmt.Errorf("runtime: snapshot buffered arrival at non-source operator %d", a.src)
			}
			v, _, err := wire.Unmarshal(a.blob)
			if err != nil {
				return err
			}
			c.buf[n] = append(c.buf[n], arrival{t: a.t, src: src, v: v})
			c.buffered++
		}
	}
	if c.buffered > c.peakBuffered {
		c.peakBuffered = c.buffered
	}
	return restoreAggFromSnap(cfg, c.agg, snap.agg)
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
