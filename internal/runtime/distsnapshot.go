package runtime

import (
	"fmt"

	"wishbone/internal/wire"
)

// Distributed snapshot/handoff: a distributed run freezes into the SAME
// versioned session-snapshot encoding a single-host Session produces —
// the coordinator assembles its global pieces (clock, ratio bookkeeping,
// buffered arrivals, reduce-aggregation rounds, AggregateOrigin delivery
// state) with each host's per-origin contribution (node sides and
// per-origin delivery state), and the result resumes anywhere: a local
// Session, the same placement, a different placement, or — after
// MigrateSnapshot — a different cut. Cross-host operator relocation is
// exactly this round trip.

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

// Snapshot freezes the host at the current window boundary and returns
// its contribution blob. Terminal, like Session.Snapshot: the host's
// instances release and further calls fail. The coordinator folds the
// blob into the full run snapshot (DistSession.Snapshot).
func (h *ShardHost) Snapshot() ([]byte, error) {
	data, err := h.freeze("Snapshot")
	if err != nil {
		return nil, err
	}
	h.Abort()
	return data, nil
}

// Checkpoint freezes the host's state blob at the current window
// boundary without disturbing the run: the encoding is Snapshot's (the
// whole capture path is read-only), but the host keeps executing. The
// coordinator retains the blob so a replacement host can restore it
// after a failure (RestoreShardHostCheckpoint).
func (h *ShardHost) Checkpoint() ([]byte, error) { return h.freeze("Checkpoint") }

// freeze captures the host contribution Snapshot and Checkpoint share:
// send-side counters, per-origin node sides, and the delivery plan's
// state with any checkpoint-carried delivery counters folded in (so a
// chain of restores keeps reporting the full accrual). It fails, leaving
// the host running, when the host is closed or mid-window.
func (h *ShardHost) freeze(what string) ([]byte, error) {
	if h.closed {
		return nil, fmt.Errorf("runtime: %s on a closed ShardHost", what)
	}
	if len(h.win.out) > 0 {
		return nil, fmt.Errorf("runtime: %s with a window awaiting DeliverWindow", what)
	}
	if err := checkSnapshotable(&h.cfg); err != nil {
		return nil, err
	}
	hs := &hostSnap{
		msgsSent:     int64(h.res.MsgsSent),
		payloadBytes: int64(h.res.PayloadBytes),
		origins:      h.host.origins,
		sides:        make([]nodeSnap, len(h.host.origins)),
	}
	if err := h.host.captureSides(hs.sides); err != nil {
		return nil, err
	}
	st, err := h.host.plan.snapshotState(&h.cfg)
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
		hs := &hostSnap{shard: &ShardState{Origins: snap.shard.Origins}}
		for _, n := range h.host.origins {
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
		origins := h.host.origins
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
// (AggregateOrigin stays with the coordinator), and whatever counters the
// contribution carries — deliveryPlan.restoreState never folds counters,
// so they become the host's own here or nobody's.
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
	if err := h.host.applySides(hs.sides); err != nil {
		return abort(err)
	}
	h.res.MsgsReceived = hs.shard.MsgsReceived
	h.res.DeliveredBytes = hs.shard.DeliveredBytes
	h.res.ServerEmits = hs.shard.ServerEmits
	sub := &ShardState{}
	for _, o := range hs.shard.Origins {
		if h.owns(o.Origin) {
			sub.Origins = append(sub.Origins, o)
		}
	}
	if err := h.host.plan.restoreState(&h.cfg, sub); err != nil {
		return abort(err)
	}
	return h, nil
}

// Snapshot freezes a distributed run at the current window boundary into
// the standard session-snapshot encoding. Terminal for the coordinator
// and every host. The bytes resume through ResumeSession (single-host),
// ResumeDistSession (any placement) or MigrateSnapshot (a new cut).
func (s *DistSession) Snapshot() ([]byte, error) {
	if s.closed {
		return nil, fmt.Errorf("runtime: Snapshot on a closed DistSession")
	}
	if err := checkSnapshotable(&s.cfg); err != nil {
		return nil, err
	}
	s.closed = true
	cfg := &s.cfg
	// The coordinator's plan is only read from here on.
	defer s.aggPlan.close()
	blobs, err := hostBarrier(s, "snapshot", HostDriver.Snapshot)
	if err != nil {
		// Snapshot is terminal on every driver that succeeded; Abort the
		// rest.
		for hi := range s.hosts {
			if blobs[hi] == nil {
				s.hosts[hi].Driver.Abort()
			}
		}
		return nil, err
	}
	hostSnaps := make([]*hostSnap, len(s.hosts))
	for hi := range s.hosts {
		if hostSnaps[hi], err = decodeHostSnap(cfg, blobs[hi]); err != nil {
			return nil, err
		}
	}
	aggSt, err := s.aggPlan.snapshotState(cfg)
	if err != nil {
		return nil, err
	}

	snap := &sessionSnap{}
	if err := s.capture(snap); err != nil {
		return nil, err
	}
	// The coordinator's partial Result holds only what it delivered itself;
	// the send-side counters fold in from the hosts, and every delivery-side
	// counter moves to the shard section, where a Session's would be.
	st := &ShardState{
		MsgsReceived:   snap.res.MsgsReceived + aggSt.MsgsReceived,
		DeliveredBytes: snap.res.DeliveredBytes + aggSt.DeliveredBytes,
		ServerEmits:    snap.res.ServerEmits + aggSt.ServerEmits,
		Server:         aggSt.Server,
	}
	snap.res.MsgsReceived, snap.res.DeliveredBytes, snap.res.ServerEmits = 0, 0, 0
	for _, hs := range hostSnaps {
		snap.res.MsgsSent += int(hs.msgsSent)
		snap.res.PayloadBytes += int(hs.payloadBytes)
		st.MsgsReceived += hs.shard.MsgsReceived
		st.DeliveredBytes += hs.shard.DeliveredBytes
		st.ServerEmits += hs.shard.ServerEmits
		for _, o := range hs.shard.Origins {
			// The aggregate origin belongs to the coordinator's plan; a
			// host plan can hold only a defensive empty entry.
			if o.Origin != AggregateOrigin {
				st.Origins = append(st.Origins, o)
			}
		}
	}
	st.Origins = append(st.Origins, aggSt.Origins...)
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

// ResumeDistSession rebuilds a distributed coordinator from a session
// snapshot. The host bindings must already hold drivers whose sessions
// restored their origins from the same snapshot (RestoreShardHost
// locally, /v1/shard/open with Resume remotely) — this call restores
// only the coordinator's pieces: clock, ratio bookkeeping, carried
// counters, buffered arrivals, reduce rounds and the AggregateOrigin
// delivery state.
func ResumeDistSession(cfg Config, hosts []HostBinding, data []byte) (*DistSession, error) {
	if err := checkSnapshotable(&cfg); err != nil {
		return nil, err
	}
	s, err := NewDistSession(cfg, hosts)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*DistSession, error) {
		s.aggPlan.close()
		return nil, err
	}
	snap, err := decodeSessionSnap(cfg.Graph, data)
	if err != nil {
		return fail(err)
	}
	if err := s.apply(snap); err != nil {
		return fail(err)
	}
	sub := &ShardState{Server: snap.shard.Server}
	for _, o := range snap.shard.Origins {
		if o.Origin == AggregateOrigin {
			sub.Origins = append(sub.Origins, o)
		}
	}
	if err := s.aggPlan.restoreState(&s.cfg, sub); err != nil {
		return fail(err)
	}
	return s, nil
}
