package runtime

import (
	"fmt"
	"math"
	"sort"

	"wishbone/internal/dataflow"
)

// Online control plane: instead of planning a partition once from an
// offline profile and never revisiting it, a control loop folds the
// per-window load observations the streaming path already produces into a
// decaying online profile, detects drift against the load the current cut
// was planned for, and — after the drift has persisted for a hysteresis
// interval — asks a caller-supplied planner for a new cut. Relocated
// operators hand their state off at the window boundary through
// Snapshot → MigrateSnapshot → ResumeSession, so the continuation is
// byte-identical (by construction) to a run that started on the new cut
// at that boundary; the replan parity tests pin this against an external
// migrate+resume at any Shards/Workers placement and across hosts.
//
// The planner is a callback rather than a solver call because the runtime
// deliberately does not import the planning layers (core/solver); the
// partition service wires its solver racing in, tests wire canned cuts.

// WindowObservation is one priced ingestion window's load signal, as seen
// by Session.OnWindow. A window whose buffered
// arrivals all folded into pending reduce rounds still observes (with
// AirBytes zero); windows with no arrivals at all are skipped along with
// the window clock.
type WindowObservation struct {
	Start    float64 // window start, simulated seconds
	Span     float64 // priced span (shorter than WindowSeconds only at the tail)
	AirBytes int     // offered air bytes, post-aggregation
	Ratio    float64 // the delivery ratio this window was priced at
	Messages int     // messages delivered (held + aggregates)
}

// Rate is the window's offered air load in bytes per second — the
// quantity §4.3's linear load-rate scaling lets the planner re-plan from.
func (w WindowObservation) Rate() float64 {
	if w.Span <= 0 {
		return 0
	}
	return float64(w.AirBytes) / w.Span
}

// ReplanPolicy tunes the drift detector. The zero value picks usable
// defaults (20% drift, 3-window hysteresis, cooldown = hysteresis).
type ReplanPolicy struct {
	// Threshold is the relative error |observed−planned|/planned beyond
	// which a window counts as drifted. <=0 means 0.2.
	Threshold float64
	// Hysteresis is how many consecutive drifted windows must accumulate
	// before a replan triggers — one hot window must not thrash the
	// planner. <=0 means 3.
	Hysteresis int
	// Cooldown suppresses the detector for this many windows after each
	// replan, letting the new cut's profile settle. 0 means Hysteresis;
	// negative means no cooldown.
	Cooldown int
	// Decay is the EWMA weight of the newest window in the online
	// profile, in (0,1]. <=0 or >1 means 0.25.
	Decay float64
	// MaxReplans caps how many replans a session may perform; 0 means
	// unlimited.
	MaxReplans int
}

func (p ReplanPolicy) withDefaults() ReplanPolicy {
	if p.Threshold <= 0 {
		p.Threshold = 0.2
	}
	if p.Hysteresis <= 0 {
		p.Hysteresis = 3
	}
	if p.Cooldown == 0 {
		p.Cooldown = p.Hysteresis
	} else if p.Cooldown < 0 {
		p.Cooldown = 0
	}
	if p.Decay <= 0 || p.Decay > 1 {
		p.Decay = 0.25
	}
	return p
}

// ControlLoop is the drift detector: a decaying online profile of the
// offered load, compared window by window against the load the current
// cut was planned from. It is plain single-goroutine state — observations
// arrive on the Offer caller's goroutine (see Session.OnWindow).
type ControlLoop struct {
	policy   ReplanPolicy
	baseline float64 // planned offered load, bytes/sec (0 until first window adopts it)
	haveBase bool
	ewma     float64
	seen     int
	drifted  int // consecutive windows beyond Threshold
	cooldown int
	replans  int
}

// NewControlLoop builds a detector. plannedLoad is the offered-load rate
// (air bytes/sec) the current cut was planned for; pass 0 to adopt the
// first observed window as the baseline (a session started without an
// offline profile).
func NewControlLoop(policy ReplanPolicy, plannedLoad float64) *ControlLoop {
	c := &ControlLoop{policy: policy.withDefaults()}
	if plannedLoad > 0 {
		c.baseline, c.haveBase = plannedLoad, true
	}
	return c
}

// Observe folds one window into the online profile and updates the drift
// counters.
func (c *ControlLoop) Observe(w WindowObservation) {
	rate := w.Rate()
	if c.seen == 0 {
		c.ewma = rate
	} else {
		c.ewma = c.policy.Decay*rate + (1-c.policy.Decay)*c.ewma
	}
	c.seen++
	if !c.haveBase {
		c.baseline, c.haveBase = c.ewma, true
		return
	}
	if c.cooldown > 0 {
		c.cooldown--
		c.drifted = 0
		return
	}
	if c.relErr() > c.policy.Threshold {
		c.drifted++
	} else {
		c.drifted = 0
	}
}

func (c *ControlLoop) relErr() float64 {
	base := c.baseline
	if base <= 0 {
		// A cut planned for zero load drifts as soon as any load shows up.
		if c.ewma > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return math.Abs(c.ewma-base) / base
}

// Drift reports whether the hysteresis interval has filled, and if so the
// observed/planned load multiple a replan should solve for (§4.3: load
// scales linearly in rate, so the planner re-solves on Spec.Scaled of
// this multiple).
func (c *ControlLoop) Drift() (multiple float64, triggered bool) {
	if c.drifted < c.policy.Hysteresis {
		return 0, false
	}
	if c.policy.MaxReplans > 0 && c.replans >= c.policy.MaxReplans {
		return 0, false
	}
	if c.baseline <= 0 {
		return 1, true
	}
	return c.ewma / c.baseline, true
}

// Replanned re-anchors the baseline at the observed profile (whether or
// not the planner actually moved an operator — either way the current cut
// is now "planned for" this load) and starts the cooldown.
func (c *ControlLoop) Replanned() {
	c.baseline, c.haveBase = c.ewma, true
	c.drifted = 0
	c.cooldown = c.policy.Cooldown
	c.replans++
}

// Plan is a planner's answer: the new cut and, optionally, its
// precompiled partition programs (nil programs compile on resume).
// Solver is informational — the backend whose answer the plan adopted —
// and is copied into the ReplanEvent.
type Plan struct {
	OnNode        map[int]bool
	NodeProgram   *dataflow.Program
	ServerProgram *dataflow.Program
	Solver        string
}

// Planner produces a new cut for the observed/planned load multiple.
// Returning a nil Plan (or the incumbent cut) keeps the current
// partition — the event is still recorded and the baseline re-anchored.
type Planner func(rateMultiple float64) (*Plan, error)

// ReplanEvent records one control-loop trigger.
type ReplanEvent struct {
	Time         float64 // handoff window boundary, simulated seconds
	PlannedLoad  float64 // bytes/sec the outgoing cut was planned for
	ObservedLoad float64 // EWMA bytes/sec at trigger
	RateMultiple float64 // observed/planned — what the planner solved for
	Moved        []int   // operator IDs that changed sides (sorted); empty = cut kept
	Solver       string  // backend whose answer the replan adopted (Plan.Solver)
}

// movedOps lists the operator IDs whose side differs between two cuts.
func movedOps(g *dataflow.Graph, oldCut, newCut map[int]bool) []int {
	var moved []int
	for _, op := range g.Operators() {
		if oldCut[op.ID()] != newCut[op.ID()] {
			moved = append(moved, op.ID())
		}
	}
	sort.Ints(moved)
	return moved
}

// ControlledSession wraps a streaming run with the control loop: it
// exposes the session surface (Offer/OfferRaw/Close/Snapshot), and when
// drift persists past the hysteresis interval it re-plans mid-stream,
// handing relocated operators' state off at the last flushed window
// boundary through Snapshot → MigrateSnapshot → resume. The wrapper owns
// the inner session and replaces it across a handoff (Snapshot is
// terminal); placements differ only in how the hosts reopen on the new
// cut (rebind).
type ControlledSession struct {
	s       *Session
	loop    *ControlLoop
	planner Planner
	// rebind reopens the hosts on the new cut's Config from the migrated
	// snapshot; nil means one in-process host (ResumeSession).
	rebind func(cfg Config, snapshot []byte) ([]HostBinding, error)
	events []ReplanEvent
	dead   error // a failed handoff poisons the session
}

// NewControlledSession builds an in-process session and attaches the
// loop. plannedLoad is the offered-load rate the initial cut was planned
// for (0: adopt the first window). planner may be nil, which degrades the
// wrapper to drift *detection* only — events record triggers, nothing
// relocates.
func NewControlledSession(cfg Config, policy ReplanPolicy, plannedLoad float64, planner Planner) (*ControlledSession, error) {
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	return ControlSession(s, policy, plannedLoad, planner, nil), nil
}

// ControlSession attaches the control loop to an open session — a resumed
// stream's, or a distributed coordinator's (the loop state itself starts
// afresh, adopting the first observed load as its baseline when
// plannedLoad is 0). The wrapper takes ownership of s, including its
// OnWindow hook. rebind is invoked during a handoff with the new cut's
// Config and the migrated snapshot; it must return opened host bindings
// that have restored their origins from that snapshot (the caller owns
// driver construction: local hosts in tests, /v1/shard peers in the dist
// coordinator). A nil rebind resumes on one in-process host owning every
// origin.
func ControlSession(s *Session, policy ReplanPolicy, plannedLoad float64, planner Planner,
	rebind func(cfg Config, snapshot []byte) ([]HostBinding, error)) *ControlledSession {
	cs := &ControlledSession{
		s:       s,
		loop:    NewControlLoop(policy, plannedLoad),
		planner: planner,
		rebind:  rebind,
	}
	s.OnWindow = cs.loop.Observe
	return cs
}

// Offer feeds one arrival and runs the control step behind it.
func (cs *ControlledSession) Offer(nodeID int, a Arrival) error {
	if cs.dead != nil {
		return cs.dead
	}
	if err := cs.s.Offer(nodeID, a); err != nil {
		return err
	}
	return cs.maybeReplan()
}

// OfferRaw mirrors Session.OfferRaw.
func (cs *ControlledSession) OfferRaw(nodeID int, t float64, src *dataflow.Operator, typ string, raw []byte) error {
	if cs.dead != nil {
		return cs.dead
	}
	if err := cs.s.OfferRaw(nodeID, t, src, typ, raw); err != nil {
		return err
	}
	return cs.maybeReplan()
}

// maybeReplan runs between Offers: if the loop has triggered, consult the
// planner and — when the cut changes — hand off through
// Snapshot → MigrateSnapshot → resume at the current window boundary.
func (cs *ControlledSession) maybeReplan() error {
	multiple, ok := cs.loop.Drift()
	if !ok {
		return nil
	}
	ev := ReplanEvent{
		Time:         cs.s.windowStart,
		PlannedLoad:  cs.loop.baseline,
		ObservedLoad: cs.loop.ewma,
		RateMultiple: multiple,
	}
	if cs.planner == nil {
		cs.loop.Replanned()
		cs.events = append(cs.events, ev)
		return nil
	}
	plan, err := cs.planner(multiple)
	if err != nil {
		return fmt.Errorf("runtime: replan at t=%g: %w", ev.Time, err)
	}
	cs.loop.Replanned()
	if plan != nil {
		ev.Moved = movedOps(cs.s.cfg.Graph, cs.s.cfg.OnNode, plan.OnNode)
		ev.Solver = plan.Solver
	}
	if plan == nil || len(ev.Moved) == 0 {
		cs.events = append(cs.events, ev)
		return nil
	}
	if err := cs.relocate(plan); err != nil {
		cs.dead = fmt.Errorf("runtime: replan handoff at t=%g failed: %w", ev.Time, err)
		return cs.dead
	}
	cs.events = append(cs.events, ev)
	return nil
}

// relocate performs the state handoff onto plan's cut. On success cs.s is
// a fresh session resumed on the new cut at the last flushed window
// boundary; on failure the old session is already torn down and the
// wrapper is dead.
func (cs *ControlledSession) relocate(plan *Plan) error {
	old := cs.s
	ncfg := old.cfg
	ncfg.OnNode = plan.OnNode
	ncfg.NodeProgram = plan.NodeProgram
	ncfg.ServerProgram = plan.ServerProgram
	data, err := old.Snapshot()
	if err != nil {
		// Snapshot fails before teardown only on a hook-less graph; treat
		// any failure as fatal to the stream rather than risk a half-frozen
		// session.
		old.Abort()
		return err
	}
	migrated, err := MigrateSnapshot(ncfg.Graph, data, plan.OnNode)
	if err != nil {
		return err
	}
	ns, err := cs.resume(ncfg, migrated)
	if err != nil {
		return err
	}
	// Recovery carries across the handoff: the replacement session starts
	// with no checkpoints (its hosts resumed from the migrated snapshot,
	// which the Reopen callback falls back to) and the recovery history so
	// far; the rebind has already repointed the callback's host table.
	if old.rec != nil {
		ns.EnableRecovery(old.rec)
		ns.recoveries = old.recoveries
	}
	ns.OnWindow = cs.loop.Observe
	cs.s = ns
	return nil
}

// resume brings the run back up on the new cut's Config from the migrated
// snapshot, on the hosts rebind reopens.
func (cs *ControlledSession) resume(cfg Config, migrated []byte) (*Session, error) {
	if cs.rebind == nil {
		return ResumeSession(cfg, migrated)
	}
	hosts, err := cs.rebind(cfg, migrated)
	if err != nil {
		return nil, err
	}
	ns, err := ResumeDistSession(cfg, hosts, migrated)
	if err != nil {
		for _, b := range hosts {
			b.Driver.Abort()
		}
		return nil, err
	}
	return ns, nil
}

// Close flushes the tail through the current session and returns the
// Result.
func (cs *ControlledSession) Close() (*Result, error) {
	if cs.dead != nil {
		return nil, cs.dead
	}
	return cs.s.Close()
}

// Abort tears the current session down without a result. After a failed
// handoff there is nothing left to tear down (the old session is already
// frozen and the replacement never came up), so Abort is a no-op then.
func (cs *ControlledSession) Abort() {
	if cs.dead == nil {
		cs.s.Abort()
	}
}

// Snapshot freezes the current session (terminal, like Session.Snapshot).
// The bytes are on the *current* cut: the one the last relocating replan
// adopted.
func (cs *ControlledSession) Snapshot() ([]byte, error) {
	if cs.dead != nil {
		return nil, cs.dead
	}
	return cs.s.Snapshot()
}

// Events returns the replan events recorded so far. The slice is live;
// callers must not mutate it.
func (cs *ControlledSession) Events() []ReplanEvent { return cs.events }
