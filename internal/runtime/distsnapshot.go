package runtime

import (
	"fmt"
	"slices"
	"time"

	"wishbone/internal/wire"
)

// Whole-run snapshot/handoff: every run freezes one way — the coordinator
// assembles its global pieces (clock, ratio bookkeeping, buffered
// arrivals, reduce-aggregation rounds, AggregateOrigin delivery state)
// with each host's frozen contribution (node sides and per-origin delivery
// state) into the versioned session-snapshot encoding, and the result
// resumes anywhere: one in-process host, the same placement, a different
// placement, or — after MigrateSnapshot — a different cut. Cross-host
// operator relocation is exactly this round trip.

// hostSnap is one shard host's frozen contribution: its send-side
// counters, its per-origin node sides, and its delivery plan's state
// (whose counters are the delivery-side accrual the host carries).
type hostSnap struct {
	msgsSent     int
	payloadBytes int
	origins      []int
	sides        []nodeSnap // parallel to origins
	shard        *ShardState
}

// Checkpoint freezes the host's contribution blob at the current window
// boundary without disturbing the run (the capture path is read-only):
// send-side counters, per-origin node sides, and the delivery plan's
// state with any checkpoint-carried delivery counters folded in (so a
// chain of restores keeps reporting the full accrual). The coordinator
// retains the blob so a replacement host can restore it after a failure
// (RestoreShardHost), and Session.Snapshot folds every host's
// into the run snapshot. It fails, leaving the host running, when the
// host is closed or mid-window.
func (h *ShardHost) Checkpoint() ([]byte, error) {
	if err := h.usable("Checkpoint"); err != nil {
		return nil, err
	}
	if len(h.out) > 0 {
		return nil, fmt.Errorf("runtime: Checkpoint with a window awaiting DeliverWindow")
	}
	if err := checkSnapshotable(&h.cfg); err != nil {
		return nil, err
	}
	hs := &hostSnap{
		msgsSent:     h.res.MsgsSent,
		payloadBytes: h.res.PayloadBytes,
		origins:      h.origins,
		sides:        make([]nodeSnap, len(h.origins)),
	}
	if err := h.captureSides(hs.sides); err != nil {
		return nil, err
	}
	st, err := h.plan.snapshotState(&h.cfg)
	if err != nil {
		return nil, err
	}
	st.MsgsReceived += h.res.MsgsReceived
	st.DeliveredBytes += h.res.DeliveredBytes
	st.ServerEmits += h.res.ServerEmits
	hs.shard = st
	return encodeHostSnap(&h.cfg, hs)
}

// walk is the layout of a host blob: the send-side counters, every owned
// origin's ID (checked against cfg.Nodes) and node side, then the
// delivery state.
func (hs *hostSnap) walk(c *wire.Codec, cfg *Config) {
	c.Int(&hs.msgsSent)
	c.Int(&hs.payloadBytes)
	// One origin is at least its id, two float64s and four one-byte
	// varints (counters and the two empty-section counts).
	n := c.Len(len(hs.origins), 21)
	if c.Decoding() {
		hs.origins, hs.sides = make([]int, n), make([]nodeSnap, n)
	}
	nEdges := len(cfg.Graph.Edges())
	for i := 0; i < n && c.Err() == nil; i++ {
		c.Int(&hs.origins[i])
		if c.Err() == nil && (hs.origins[i] < 0 || hs.origins[i] >= cfg.Nodes) {
			c.Fail(fmt.Errorf("runtime: host snapshot origin %d outside [0,%d)", hs.origins[i], cfg.Nodes))
		}
		hs.sides[i].walk(c, nEdges)
	}
	if hs.shard == nil {
		hs.shard = &ShardState{}
	}
	hs.shard.walk(c)
}

func encodeHostSnap(cfg *Config, hs *hostSnap) ([]byte, error) {
	return wire.Encode(func(c *wire.Codec) { hs.walk(c, cfg) })
}

func decodeHostSnap(cfg *Config, data []byte) (*hostSnap, error) {
	hs := &hostSnap{}
	if err := wire.Decode(data, func(c *wire.Codec) { hs.walk(c, cfg) }); err != nil {
		return nil, err
	}
	return hs, nil
}

// RestoreShardHost builds a shard host resuming from a host blob — the
// only state a host ever reads: a host's checkpoint (ShardHost.Checkpoint,
// the recovery path) or its share of a session snapshot (HostShares, the
// resume and handoff path). The restored host takes over the blob's
// counters (send-side into res, delivery-side as carried values folded in
// at Close and into future checkpoints; a share's are zero, because the
// coordinator restores those). origins must be exactly the blob's origin
// set — a host's counters are not splittable per origin, so a lost host's
// origins move to their new home together.
func RestoreShardHost(cfg Config, origins []int, data []byte) (*ShardHost, error) {
	hs, err := decodeHostSnap(&cfg, data)
	if err != nil {
		return nil, err
	}
	return restoreHost(cfg, origins, hs)
}

// restoreHost builds a host for origins and loads hs into it: node sides
// for the owned origins, their delivery state (AggregateOrigin's row and
// the Server states too on a global host; the coordinator's otherwise),
// and the counters hs carries — deliveryPlan.restoreState never folds
// counters, so they become the host's own here or nobody's.
func restoreHost(cfg Config, origins []int, hs *hostSnap) (*ShardHost, error) {
	if err := checkSnapshotable(&cfg); err != nil {
		return nil, err
	}
	h, err := NewShardHost(cfg, origins)
	if err != nil {
		return nil, err
	}
	abort := func(err error) (*ShardHost, error) {
		h.Abort()
		return nil, err
	}
	// NewShardHost sorted the origins; a blob lists its own ascending.
	if !slices.Equal(hs.origins, h.origins) {
		return abort(fmt.Errorf("runtime: host blob origin set %v does not match host origins %v", hs.origins, h.origins))
	}
	h.res.MsgsSent = hs.msgsSent
	h.res.PayloadBytes = hs.payloadBytes
	if err := h.applySides(hs.sides); err != nil {
		return abort(err)
	}
	h.res.MsgsReceived = hs.shard.MsgsReceived
	h.res.DeliveredBytes = hs.shard.DeliveredBytes
	h.res.ServerEmits = hs.shard.ServerEmits
	sub := &ShardState{}
	for _, o := range hs.shard.Origins {
		if h.owns(o.Origin) || (h.global && o.Origin == AggregateOrigin) {
			sub.Origins = append(sub.Origins, o)
		}
	}
	if h.global {
		sub.Server = hs.shard.Server
	}
	if err := h.plan.restoreState(&h.cfg, sub); err != nil {
		return abort(err)
	}
	return h, nil
}

// hostShare is Snapshot's merge run backwards: the blob of a host owning
// origins (ascending) — their node sides and delivery rows, plus
// AggregateOrigin's row and the Server states, which only a global host
// keeps (restoreHost). Its counters are zero: the coordinator restores
// the snapshot's.
func hostShare(snap *sessionSnap, origins []int) *hostSnap {
	hs := &hostSnap{origins: origins, shard: &ShardState{Server: snap.shard.Server}}
	owned := make(map[int]bool, len(origins))
	for _, n := range origins {
		hs.sides = append(hs.sides, snap.perNode[n])
		owned[n] = true
	}
	for _, o := range snap.shard.Origins {
		if owned[o.Origin] || o.Origin == AggregateOrigin {
			hs.shard.Origins = append(hs.shard.Origins, o)
		}
	}
	return hs
}

// HostShares splits a session snapshot of cfg's run into one host blob per
// placement part, each what RestoreShardHost restores that part's host
// from: a host reads its own origins' share, never the whole run.
func HostShares(cfg Config, snapshot []byte, parts [][]int) ([][]byte, error) {
	snap, err := decodeFor(&cfg, snapshot)
	if err != nil {
		return nil, err
	}
	shares := make([][]byte, len(parts))
	for i, origins := range parts {
		origins = slices.Sorted(slices.Values(origins))
		if len(origins) > 0 && (origins[0] < 0 || origins[len(origins)-1] >= snap.nodes) {
			return nil, fmt.Errorf("runtime: origins %v outside [0,%d)", origins, snap.nodes)
		}
		if shares[i], err = encodeHostSnap(&cfg, hostShare(snap, origins)); err != nil {
			return nil, err
		}
	}
	return shares, nil
}

// decodeFor decodes a session snapshot and checks it is of cfg's run. The
// window self-compares: it is the coordinator's to check (Session.apply).
func decodeFor(cfg *Config, data []byte) (*sessionSnap, error) {
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	snap, err := decodeSessionSnap(cfg.Graph, data)
	if err != nil {
		return nil, err
	}
	if err := snap.check(cfg, snap.window); err != nil {
		return nil, err
	}
	return snap, nil
}

// Snapshot freezes the session at its current window boundary and
// returns the versioned byte encoding: every host's checkpoint blob plus
// the coordinator's capture. The call is terminal for the session and
// every host (each is aborted once the blobs are in) — continuing the run
// means ResumeSession (one in-process host), HostShares for any placement
// (a replan handoff's rebind) or, after MigrateSnapshot, a new cut, in
// this or any other process. Arrivals buffered for the window in progress
// are part of the snapshot, so callers may snapshot at any point between
// Offers; the persistent state is always window-aligned. The resumed run's Results
// are byte-identical to the uninterrupted one at any placement on either
// side.
func (s *Session) Snapshot() ([]byte, error) {
	if s.closed {
		return nil, fmt.Errorf("runtime: Snapshot on a closed Session")
	}
	// Fail before committing to teardown: a hook-less graph leaves the
	// session usable (the caller can still Close normally).
	if err := checkSnapshotable(&s.cfg); err != nil {
		return nil, err
	}
	s.closed = true
	cfg := &s.cfg
	// The coordinator's plan is only read until teardown.
	defer s.teardown()
	if err := s.join(); err != nil {
		return nil, err
	}
	// The freeze is the non-terminal checkpoint, so a retried freeze whose
	// first reply was lost just freezes again.
	blobs, err := hostBarrier(s, "snapshot", HostDriver.Checkpoint)
	if err != nil {
		return nil, err
	}
	hostSnaps := make([]*hostSnap, len(s.hosts))
	for hi := range s.hosts {
		if hostSnaps[hi], err = decodeHostSnap(cfg, blobs[hi]); err != nil {
			return nil, err
		}
	}

	snap := &sessionSnap{}
	if err := s.capture(snap); err != nil {
		return nil, err
	}
	// The coordinator's partial Result holds only what it delivered itself;
	// the send-side counters fold in from the hosts, and every delivery-side
	// counter moves to the shard section.
	st := &ShardState{
		MsgsReceived:   snap.res.MsgsReceived,
		DeliveredBytes: snap.res.DeliveredBytes,
		ServerEmits:    snap.res.ServerEmits,
	}
	if s.aggPlan != nil {
		aggSt, err := s.aggPlan.snapshotState(cfg)
		if err != nil {
			return nil, err
		}
		st.MsgsReceived += aggSt.MsgsReceived
		st.DeliveredBytes += aggSt.DeliveredBytes
		st.ServerEmits += aggSt.ServerEmits
		st.Origins = aggSt.Origins
	}
	snap.res.MsgsReceived, snap.res.DeliveredBytes, snap.res.ServerEmits = 0, 0, 0
	for _, hs := range hostSnaps {
		snap.res.MsgsSent += hs.msgsSent
		snap.res.PayloadBytes += hs.payloadBytes
		st.MsgsReceived += hs.shard.MsgsReceived
		st.DeliveredBytes += hs.shard.DeliveredBytes
		st.ServerEmits += hs.shard.ServerEmits
		st.Server = append(st.Server, hs.shard.Server...)
		for _, o := range hs.shard.Origins {
			// The aggregate origin belongs to the coordinator's plan when it
			// has one; a host plan can then hold only a defensive empty entry.
			if o.Origin != AggregateOrigin || s.aggPlan == nil {
				st.Origins = append(st.Origins, o)
			}
		}
	}
	st.canonicalize()
	snap.shard = st
	sides := make([]*nodeSnap, len(snap.perNode))
	for hi, hs := range hostSnaps {
		for i, n := range hs.origins {
			if s.ownerOf[n] == hi {
				sides[n] = &hs.sides[i]
			}
		}
	}
	for n, side := range sides {
		if side == nil {
			return nil, fmt.Errorf("runtime: host %d's snapshot is missing origin %d", s.ownerOf[n], n)
		}
		side.arrivals = snap.perNode[n].arrivals
		snap.perNode[n] = *side
	}
	return encodeSessionSnap(cfg.Graph, snap)
}

// ResumeSession rebuilds a Session on one in-process host from a
// Snapshot: the host restores its share (every origin), then the
// coordinator its own pieces. cfg must describe the same run (graph
// structure, cut, platform, nodes, duration, seed, window); the placement
// knobs — Shards, Workers — are free, because the snapshot's layout is
// placement-independent.
func ResumeSession(cfg Config, data []byte) (*Session, error) {
	snap, err := decodeFor(&cfg, data)
	if err != nil {
		return nil, err
	}
	h, err := localHost(cfg, snap)
	return bindLocal(h, err, func(hosts []HostBinding) (*Session, error) {
		s := &Session{started: time.Now()}
		if err := s.resume(cfg, hosts, snap); err != nil {
			return nil, err
		}
		return s, nil
	})
}

// localHost restores the one in-process host owning every origin from its
// share of snap, as a remote host restores from its HostShares entry.
func localHost(cfg Config, snap *sessionSnap) (*ShardHost, error) {
	all := PartitionOrigins(cfg.Nodes, 1)[0]
	return restoreHost(cfg, all, hostShare(snap, all))
}

// resume binds hosts that already restored their shares of snap, then
// restores the coordinator's pieces — clock, ratio bookkeeping, carried
// counters, buffered arrivals, reduce rounds and the AggregateOrigin
// delivery state. A replan handoff runs it on the live session
// (Session.relocate). With recovery armed, each host's share seeds its
// checkpoint, so a host lost before its first checkpoint reopens from it.
func (s *Session) resume(cfg Config, hosts []HostBinding, snap *sessionSnap) error {
	if err := s.bind(cfg, hosts); err != nil {
		return err
	}
	if err := s.apply(snap); err != nil {
		s.release()
		return err
	}
	if s.rec != nil {
		s.ckpts = make([][]byte, len(hosts))
		for hi, b := range hosts {
			ckpt, err := encodeHostSnap(&s.cfg, hostShare(snap, slices.Sorted(slices.Values(b.Origins))))
			if err != nil {
				s.release()
				return err
			}
			s.ckpts[hi] = ckpt
		}
	}
	return nil
}
