package netsim

import (
	"fmt"
	"math"
	"math/rand"
)

// Failure scenarios: pluggable models of the ways a real deployment
// deviates from the paper's static, i.i.d.-loss evaluation network. A
// Scenario composes node churn (nodes crashing and rejoining mid-stream)
// with Gilbert–Elliott bursty loss (the channel alternating between a
// good and a bad state with geometric sojourn times). Both models are
// pure deterministic functions of (seed, node/window index): the runtime
// can evaluate them at any placement — single-host, sharded, distributed,
// before or after a snapshot/resume — and always observe the identical
// schedule, which is what keeps scenario runs byte-identical across
// placements. Nothing here carries mutable state that would need to ride
// in a session snapshot.

// Scenario composes the failure models applied to one run. A nil model
// disables that axis; a zero-valued Scenario is invalid (request at least
// one model).
type Scenario struct {
	// Churn crashes (and optionally revives) nodes mid-stream: a crashed
	// node's sensor arrivals are dropped at the source until it rejoins.
	Churn *Churn
	// Burst switches the shared channel between a good and a bad loss
	// state per ingestion window (Gilbert–Elliott).
	Burst *Burst
}

// Validate checks the scenario's parameters.
func (sc *Scenario) Validate() error {
	if sc == nil {
		return nil
	}
	if sc.Churn == nil && sc.Burst == nil {
		return fmt.Errorf("netsim: scenario needs at least one failure model")
	}
	if c := sc.Churn; c != nil {
		if c.MeanUp <= 0 || math.IsNaN(c.MeanUp) || math.IsInf(c.MeanUp, 0) {
			return fmt.Errorf("netsim: churn MeanUp %g must be a positive duration", c.MeanUp)
		}
		if c.MeanDown < 0 || math.IsNaN(c.MeanDown) || math.IsInf(c.MeanDown, 0) {
			return fmt.Errorf("netsim: churn MeanDown %g must be >= 0", c.MeanDown)
		}
	}
	if b := sc.Burst; b != nil {
		if b.PGoodBad < 0 || b.PGoodBad > 1 || math.IsNaN(b.PGoodBad) {
			return fmt.Errorf("netsim: burst PGoodBad %g outside [0,1]", b.PGoodBad)
		}
		if b.PBadGood < 0 || b.PBadGood > 1 || math.IsNaN(b.PBadGood) {
			return fmt.Errorf("netsim: burst PBadGood %g outside [0,1]", b.PBadGood)
		}
		if b.BadFactor < 0 || b.BadFactor > 1 || math.IsNaN(b.BadFactor) {
			return fmt.Errorf("netsim: burst BadFactor %g outside [0,1]", b.BadFactor)
		}
	}
	return nil
}

// Churn models node membership over time: each node alternates between
// alive and down phases with exponentially distributed sojourn times,
// independently of every other node (its phase schedule derives from a
// per-node splitmix64 stream, like the loss RNG). Every node starts
// alive at t=0 — the planner planned for the full deployment; churn is
// the deviation.
type Churn struct {
	// Seed drives the per-node phase schedules.
	Seed int64
	// MeanUp is the mean seconds a node stays alive before crashing
	// (MTTF). Must be positive.
	MeanUp float64
	// MeanDown is the mean seconds a crashed node stays down before
	// rejoining (MTTR). Zero means crashes are permanent.
	MeanDown float64
}

// WalkerFor returns an incremental evaluator of one node's phase
// schedule. Queries at nondecreasing times advance in O(intervals
// crossed); a backward query restarts the replay from t=0, so any query
// order is correct, just not equally fast.
func (c *Churn) WalkerFor(node int) *ChurnWalker {
	w := &ChurnWalker{c: c, node: node}
	w.restart()
	return w
}

// ChurnWalker walks one node's alternating up/down phases.
type ChurnWalker struct {
	c     *Churn
	node  int
	rng   *rand.Rand
	alive bool
	t     float64 // last queried time
	next  float64 // time of the next phase flip (+Inf = terminal phase)
}

func (w *ChurnWalker) restart() {
	w.rng = rand.New(rand.NewSource(NodeSeed(w.c.Seed, w.node)))
	w.alive = true
	w.t = 0
	w.next = expDraw(w.rng, w.c.MeanUp)
}

// Alive reports the node's phase at time t.
func (w *ChurnWalker) Alive(t float64) bool {
	if t < w.t {
		w.restart()
	}
	w.t = t
	for t >= w.next {
		if w.alive {
			w.alive = false
			if w.c.MeanDown <= 0 {
				w.next = math.Inf(1) // permanent crash
				break
			}
			w.next += expDraw(w.rng, w.c.MeanDown)
		} else {
			w.alive = true
			w.next += expDraw(w.rng, w.c.MeanUp)
		}
	}
	return w.alive
}

// expDraw samples an exponential with the given mean by inverse
// transform — one uniform per draw, so the phase schedule is a fixed
// function of the draw sequence.
func expDraw(rng *rand.Rand, mean float64) float64 {
	u := rng.Float64()
	return -mean * math.Log(1-u)
}

// Burst is a Gilbert–Elliott channel: a two-state Markov chain stepped
// once per ingestion window. In the good state the channel behaves as
// the base model; in the bad state the delivery ratio is additionally
// multiplied by BadFactor (bursty loss on top of load-dependent loss).
// The chain is a pure function of the window index, so every placement
// of the same run prices every window identically.
type Burst struct {
	// Seed drives the chain's transition draws.
	Seed int64
	// PGoodBad is the per-window probability of entering the bad state.
	PGoodBad float64
	// PBadGood is the per-window probability of leaving it.
	PBadGood float64
	// BadFactor multiplies the delivery ratio while the chain is bad
	// (e.g. 0.5 halves reception during a burst). 1 disables the model;
	// 0 blacks the channel out entirely during bursts.
	BadFactor float64
}

// Walker returns an incremental evaluator of the chain. Nondecreasing
// window queries advance in O(windows crossed); a backward query
// restarts the replay.
func (b *Burst) Walker() *BurstWalker {
	w := &BurstWalker{b: b}
	w.restart()
	return w
}

// BurstWalker steps the Gilbert–Elliott chain window by window.
type BurstWalker struct {
	b   *Burst
	rng *rand.Rand
	idx int
	bad bool
}

func (w *BurstWalker) restart() {
	w.rng = rand.New(rand.NewSource(NodeSeed(w.b.Seed, -7)))
	w.idx = 0
	w.bad = false
}

// Bad reports the chain state at window index idx.
func (w *BurstWalker) Bad(idx int) bool {
	if idx < w.idx {
		w.restart()
	}
	// One uniform per window step regardless of state, so the chain is a
	// fixed function of the draw sequence.
	for w.idx < idx {
		u := w.rng.Float64()
		if w.bad {
			w.bad = u >= w.b.PBadGood
		} else {
			w.bad = u < w.b.PGoodBad
		}
		w.idx++
	}
	return w.bad
}

// Factor returns the delivery-ratio multiplier at window idx: 1 in the
// good state, BadFactor in the bad state.
func (w *BurstWalker) Factor(idx int) float64 {
	if w.Bad(idx) {
		return w.b.BadFactor
	}
	return 1
}
