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
// Snapshot → MigrateSnapshot → resume, in place on the same Session, so
// the continuation is byte-identical (by construction) to a run that
// started on the new cut at that boundary; the replan parity tests pin
// this against an external migrate+resume at any Shards/Workers placement
// and across hosts. Replanning is a Session capability (EnableReplan),
// like host-failure recovery: the loop is fed from the window pricing
// step, and the two carry across each other's handoffs.
//
// The planner is a callback rather than a solver call because the runtime
// deliberately does not import the planning layers (core/solver); the
// partition service wires its §4.3 rate search in, tests wire canned cuts.

// WindowObservation is one priced ingestion window's load signal, as the
// control loop observes it. A window whose buffered arrivals all folded
// into pending reduce rounds still observes (with AirBytes zero); windows
// with no arrivals at all are skipped along with the window clock.
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
// arrive on the Offer caller's goroutine (Session.price).
type ControlLoop struct {
	policy   ReplanPolicy
	baseline float64 // planned offered load, bytes/sec
	ewma     float64
	seen     bool // the first window adopted the baseline
	drifted  int  // consecutive windows beyond Threshold
	cooldown int
	replans  int
}

// NewControlLoop builds a detector. Its first observed window becomes the
// baseline: the load the current cut counts as planned for.
func NewControlLoop(policy ReplanPolicy) *ControlLoop {
	return &ControlLoop{policy: policy.withDefaults()}
}

// Observe folds one window into the online profile and updates the drift
// counters.
func (c *ControlLoop) Observe(w WindowObservation) {
	rate := w.Rate()
	if !c.seen {
		c.ewma, c.baseline, c.seen = rate, rate, true
		return
	}
	c.ewma = c.policy.Decay*rate + (1-c.policy.Decay)*c.ewma
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
	c.baseline = c.ewma
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

// replanner is a Session's armed control plane (EnableReplan).
type replanner struct {
	loop    *ControlLoop
	planner Planner
	rebind  func(cfg Config, snapshot []byte) ([]HostBinding, error)
	events  []ReplanEvent
}

// EnableReplan attaches the control loop: every priced window feeds its
// online profile, and when drift persists past the hysteresis interval
// the session asks planner for a new cut and — when operators move —
// hands their state off in place at the current window boundary through
// Snapshot → MigrateSnapshot → resume. Call before the first Offer; a
// resumed session restarts detection with its first window as baseline.
//
// rebind reopens the hosts on the new cut's Config from the migrated
// snapshot and returns bindings whose hosts have each restored their
// share of it (HostShares → RestoreShardHost; in-process hosts in tests,
// /v1/shard peers in the dist coordinator); nil means one in-process host
// owning every origin. An armed recovery policy and its history carry
// across the handoff.
func (s *Session) EnableReplan(policy ReplanPolicy, planner Planner,
	rebind func(cfg Config, snapshot []byte) ([]HostBinding, error)) {
	s.replan = &replanner{loop: NewControlLoop(policy), planner: planner, rebind: rebind}
}

// Replans returns the replan events recorded so far, in order. The slice
// is live; callers must not mutate it.
func (s *Session) Replans() []ReplanEvent {
	if s.replan == nil {
		return nil
	}
	return s.replan.events
}

// maybeReplan runs after each Offer: if the loop has triggered, consult
// the planner and — when the cut changes — relocate. A failed handoff
// leaves the session closed on its error.
func (s *Session) maybeReplan() error {
	r := s.replan
	multiple, ok := r.loop.Drift()
	if !ok {
		return nil
	}
	ev := ReplanEvent{
		Time:         s.windowStart,
		PlannedLoad:  r.loop.baseline,
		ObservedLoad: r.loop.ewma,
		RateMultiple: multiple,
	}
	plan, err := r.planner(multiple)
	if err != nil {
		return fmt.Errorf("runtime: replan at t=%g: %w", ev.Time, err)
	}
	r.loop.Replanned()
	if plan != nil {
		ev.Moved = movedOps(s.cfg.Graph, s.cfg.OnNode, plan.OnNode)
		ev.Solver = plan.Solver
	}
	if len(ev.Moved) > 0 {
		if err := s.relocate(plan); err != nil {
			s.err = fmt.Errorf("runtime: replan handoff at t=%g failed: %w", ev.Time, err)
			return s.err
		}
	}
	r.events = append(r.events, ev)
	return nil
}

// relocate hands the run off onto plan's cut in place: freeze every host
// (Snapshot), migrate the snapshot, reopen the hosts from it, and rebuild
// the coordinator over them. s must not move — the scenario gates hold
// &s.cfg. The control plane, the recovery policy and its history carry
// over; the old cut's checkpoints and replay tail do not (a host lost
// before the first new checkpoint reopens from its share of the migrated
// snapshot, which resume seeds as its checkpoint).
// On failure the session stays closed.
func (s *Session) relocate(plan *Plan) error {
	cfg := s.cfg
	cfg.OnNode = plan.OnNode
	cfg.NodeProgram = plan.NodeProgram
	cfg.ServerProgram = plan.ServerProgram
	data, err := s.Snapshot()
	if err != nil {
		s.Abort()
		return err
	}
	migrated, err := MigrateSnapshot(cfg.Graph, data, plan.OnNode)
	if err != nil {
		return err
	}
	snap, err := decodeSessionSnap(cfg.Graph, migrated)
	if err != nil {
		return err
	}
	var hosts []HostBinding
	if s.replan.rebind != nil {
		hosts, err = s.replan.rebind(cfg, migrated)
	} else if h, herr := localHost(cfg, snap); herr == nil {
		hosts = []HostBinding{{Driver: h, Origins: h.origins}}
	} else {
		err = herr
	}
	if err != nil {
		return err
	}
	// Snapshot joined the last delivery and tore the old hosts down, so the
	// reset discards no live state.
	*s = Session{started: s.started, replan: s.replan, rec: s.rec, recoveries: s.recoveries}
	if err := s.resume(cfg, hosts, snap); err != nil {
		for _, b := range hosts {
			b.Driver.Abort()
		}
		s.closed = true
		return err
	}
	return nil
}
