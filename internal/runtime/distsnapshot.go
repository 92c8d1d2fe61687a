package runtime

import (
	"fmt"
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
	msgsSent     int64
	payloadBytes int64
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
// (RestoreShardHostCheckpoint), and Session.Snapshot folds every host's
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
		msgsSent:     int64(h.res.MsgsSent),
		payloadBytes: int64(h.res.PayloadBytes),
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
	return encodeHostSnap(hs), nil
}

func encodeHostSnap(hs *hostSnap) []byte {
	w := wire.NewSnapshotWriter()
	w.Int(hs.msgsSent)
	w.Int(hs.payloadBytes)
	w.Uvarint(uint64(len(hs.origins)))
	for i, n := range hs.origins {
		w.Int(int64(n))
		encodeNodeSide(w, &hs.sides[i])
	}
	hs.shard.save(w)
	return w.Bytes()
}

func decodeHostSnap(cfg *Config, data []byte) (*hostSnap, error) {
	r, err := wire.NewSnapshotReader(data)
	if err != nil {
		return nil, err
	}
	hs := &hostSnap{}
	hs.msgsSent = r.Int()
	hs.payloadBytes = r.Int()
	// One origin is at least its id, two float64s and four one-byte
	// varints (counters and the two empty-section counts).
	nOrigins := r.Count(21)
	nEdges := len(cfg.Graph.Edges())
	for i := 0; i < nOrigins; i++ {
		n := int(r.Int())
		if err := r.Err(); err != nil {
			return nil, err
		}
		if n < 0 || n >= cfg.Nodes {
			return nil, fmt.Errorf("runtime: host snapshot origin %d outside [0,%d)", n, cfg.Nodes)
		}
		side, err := decodeNodeSide(r, nEdges)
		if err != nil {
			return nil, err
		}
		hs.origins = append(hs.origins, n)
		hs.sides = append(hs.sides, side)
	}
	hs.shard = loadShardState(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if !r.Done() {
		return nil, fmt.Errorf("runtime: trailing bytes after host snapshot")
	}
	return hs, nil
}

// RestoreShardHost builds a shard host whose owned origins resume from a
// full session snapshot (the coordinator ships every host the same
// bytes; each host restores only its origins' node sides and delivery
// state). The coordinator keeps the snapshot's clock, buffered arrivals
// and carried counters — seen from one host, a session snapshot is a
// host contribution whose counters are all zero.
func RestoreShardHost(cfg Config, origins []int, data []byte) (*ShardHost, error) {
	return restoreHost(cfg, origins, func(h *ShardHost) (*hostSnap, error) {
		snap, err := decodeSessionSnap(cfg.Graph, data)
		if err != nil {
			return nil, err
		}
		// The window is the coordinator's to validate; hosts only pin the
		// cut/platform/run identity (snap.window self-compares).
		if err := snap.check(&h.cfg, snap.window); err != nil {
			return nil, err
		}
		hs := &hostSnap{shard: &ShardState{Origins: snap.shard.Origins, Server: snap.shard.Server}}
		for _, n := range h.origins {
			hs.sides = append(hs.sides, snap.perNode[n])
		}
		return hs, nil
	})
}

// RestoreShardHostCheckpoint builds a shard host resuming from a host
// checkpoint blob (ShardHost.Checkpoint) — the recovery path: the blob is
// one host's whole contribution, so unlike RestoreShardHost the restored
// host takes over the dead host's counters too (send-side into res,
// delivery-side as carried values folded in at Close and into future
// checkpoints). origins must be exactly the checkpoint's origin set — a
// host's counters are not splittable per origin, so a lost host's origins
// move to their new home together.
func RestoreShardHostCheckpoint(cfg Config, origins []int, data []byte) (*ShardHost, error) {
	return restoreHost(cfg, origins, func(h *ShardHost) (*hostSnap, error) {
		hs, err := decodeHostSnap(&h.cfg, data)
		if err != nil {
			return nil, err
		}
		origins := h.origins
		if len(hs.origins) != len(origins) {
			return nil, fmt.Errorf("runtime: checkpoint holds %d origins, host owns %d", len(hs.origins), len(origins))
		}
		for i, n := range hs.origins {
			if n != origins[i] {
				return nil, fmt.Errorf("runtime: checkpoint origin set %v does not match host origins %v", hs.origins, origins)
			}
		}
		return hs, nil
	})
}

// restoreHost builds a host for origins and loads the contribution load
// decodes for it: node sides for the owned origins, their delivery state
// (AggregateOrigin's row and the Server states too on a global host; the
// coordinator's otherwise), and whatever counters the contribution carries
// — deliveryPlan.restoreState never folds counters, so they become the
// host's own here or nobody's.
func restoreHost(cfg Config, origins []int, load func(h *ShardHost) (*hostSnap, error)) (*ShardHost, error) {
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
	hs, err := load(h)
	if err != nil {
		return abort(err)
	}
	h.res.MsgsSent = int(hs.msgsSent)
	h.res.PayloadBytes = int(hs.payloadBytes)
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

// Snapshot freezes the session at its current window boundary and
// returns the versioned byte encoding: every host's checkpoint blob plus
// the coordinator's capture. The call is terminal for the session and
// every host (each is aborted once the blobs are in) — continuing the run
// means ResumeSession (one in-process host), ResumeDistSession (any
// placement) or, after MigrateSnapshot, a new cut, in this or any other
// process. Arrivals buffered for the window in progress are part of the
// snapshot, so callers may snapshot at any point between Offers; the
// persistent state is always window-aligned. The resumed run's Results
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
		snap.res.MsgsSent += int(hs.msgsSent)
		snap.res.PayloadBytes += int(hs.payloadBytes)
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
	return encodeSessionSnap(snap), nil
}

// ResumeSession rebuilds a Session on one in-process host from a
// Snapshot: RestoreShardHost over every origin, then the coordinator's
// resume. cfg must describe the same run (graph structure, cut, platform,
// nodes, duration, seed, window); the placement knobs — Shards, Workers —
// are free, because the snapshot's layout is placement-independent.
func ResumeSession(cfg Config, data []byte) (*Session, error) {
	h, err := RestoreShardHost(cfg, PartitionOrigins(cfg.Nodes, 1)[0], data)
	return bindLocal(h, err, func(hosts []HostBinding) (*Session, error) {
		return ResumeDistSession(cfg, hosts, data)
	})
}

// ResumeDistSession rebuilds a coordinator from a session snapshot. The
// host bindings must already hold drivers whose sessions restored their
// origins from the same snapshot (RestoreShardHost locally, /v1/shard/open
// with Resume remotely) — this call restores only the coordinator's
// pieces: clock, ratio bookkeeping, carried counters, buffered arrivals,
// reduce rounds and the AggregateOrigin delivery state.
func ResumeDistSession(cfg Config, hosts []HostBinding, data []byte) (*Session, error) {
	s := &Session{started: time.Now()}
	if err := s.resume(cfg, hosts, data); err != nil {
		return nil, err
	}
	return s, nil
}

// resume is ResumeDistSession in place: bind the hosts, then restore the
// coordinator's pieces from the snapshot. A replan handoff runs it on the
// live session (Session.relocate).
func (s *Session) resume(cfg Config, hosts []HostBinding, data []byte) error {
	if err := checkSnapshotable(&cfg); err != nil {
		return err
	}
	if err := s.bind(cfg, hosts); err != nil {
		return err
	}
	if err := s.restore(data); err != nil {
		s.release()
		return err
	}
	return nil
}

// restore loads a session snapshot's coordinator-owned sections into a
// freshly bound session.
func (s *Session) restore(data []byte) error {
	snap, err := decodeSessionSnap(s.cfg.Graph, data)
	if err != nil {
		return err
	}
	if err := s.apply(snap); err != nil {
		return err
	}
	if s.aggPlan == nil {
		return nil
	}
	sub := &ShardState{}
	for _, o := range snap.shard.Origins {
		if o.Origin == AggregateOrigin {
			sub.Origins = append(sub.Origins, o)
		}
	}
	return s.aggPlan.restoreState(&s.cfg, sub)
}
