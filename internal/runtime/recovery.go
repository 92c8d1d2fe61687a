package runtime

import (
	"errors"
	"fmt"
)

// Host-failure recovery for distributed runs. The coordinator keeps, per
// host, the last window-boundary checkpoint (ShardHost.Checkpoint — the
// host's whole state, the blob Session.Snapshot also folds in) plus the
// tail of windows flushed since: each tail record holds the
// window's per-host arrival batches, whether its reduce contributions
// were folded into the coordinator's aggregation rounds, and — once
// priced — the delivery ratio the hosts were told. When a driver call
// fails with ErrHostDown, the coordinator re-opens the lost origins on a
// replacement driver (DistRecovery.Reopen — in practice a surviving HTTP
// peer restoring the checkpoint blob) and replays the tail into it:
// ComputeWindow per record, discarding the reduce contributions of
// already-folded windows (they joined the global rounds exactly once,
// before the crash), and DeliverWindow at each record's recorded ratio.
// The replayed host lands in the precise state the dead one held, so the
// recovered run's Result is byte-identical to the uninterrupted one —
// the invariant every placement of the engine pins.

// ErrHostDown marks a shard-host driver failure the coordinator should
// treat as the host being lost (crash, unreachable, forgotten session) —
// recoverable when the session has a DistRecovery, fatal otherwise.
// Drivers wrap their terminal transport errors so errors.Is(err,
// ErrHostDown) holds.
var ErrHostDown = errors.New("shard host down")

// DistRecovery configures host-failure recovery for a Session.
type DistRecovery struct {
	// Every is the checkpoint cadence in flushed windows; <= 0 means 1
	// (every window boundary). A larger cadence trades checkpoint RPCs
	// for a longer replay tail on failure.
	Every int
	// Reopen builds a replacement driver for failed host index host of a
	// run currently configured as cfg (a replan handoff changes the cut),
	// owning the same origins, restored from the given host blob: the
	// host's last checkpoint, or its share of the snapshot the session
	// resumed from with recovery armed (a replan handoff). It is nil only
	// when the host failed before its first checkpoint of a run that
	// started fresh — the replacement starts fresh too. The old driver has
	// already been aborted.
	Reopen func(cfg Config, host int, origins []int, checkpoint []byte) (HostDriver, error)
	// OnRecover, when set, observes each completed recovery on the
	// coordinator's goroutine.
	OnRecover func(RecoveryEvent)
}

// RecoveryEvent describes one completed host recovery.
type RecoveryEvent struct {
	Time    float64 // window clock when the failure surfaced
	Host    int     // index into the session's host bindings
	Origins []int   // the origins that moved to the replacement driver
	Windows int     // tail windows replayed into the replacement
	Op      string  // call that failed: compute, deliver, checkpoint, close; snapshot for a Snapshot's checkpoint
	Cause   string  // the failure, for the trajectory artifact
}

// distWindowRec is one flushed window retained for replay: the per-host
// arrival batches and how far the window got before the next boundary.
type distWindowRec struct {
	arr    [][]HostArrival // indexed by host; nil for hosts with no arrivals
	folded bool            // reduce contributions joined the global rounds
	priced bool            // the window was priced and delivered
	ratio  float64         // the delivered ratio (valid when priced)
}

// EnableRecovery arms host-failure recovery. Call before the first Offer
// (the tail is only retained from this point). A nil rec — or one with no
// Reopen — disarms it.
func (s *Session) EnableRecovery(rec *DistRecovery) {
	if rec == nil || rec.Reopen == nil {
		s.rec = nil
		return
	}
	r := *rec
	if r.Every <= 0 {
		r.Every = 1
	}
	s.rec = &r
	if s.ckpts == nil {
		s.ckpts = make([][]byte, len(s.hosts))
	}
}

// recordWindow retains the window being flushed for replay (recovery
// sessions only). hostArr is per-window scratch, so the batches copy.
func (s *Session) recordWindow() {
	if s.rec == nil {
		return
	}
	rec := distWindowRec{arr: make([][]HostArrival, len(s.hosts))}
	for hi := range s.hostArr {
		if len(s.hostArr[hi]) > 0 {
			rec.arr[hi] = append([]HostArrival(nil), s.hostArr[hi]...)
		}
	}
	s.tail = append(s.tail, rec)
}

// maybeCheckpoint runs the per-boundary checkpoint when the cadence is
// due: the window's deliveries are joined, every host freezes its state
// blob (non-terminal), the coordinator retains the blobs and drops the
// replay tail — and with it the last hold on the ingest blocks the tail's
// windows were carved from.
func (s *Session) maybeCheckpoint() error {
	if s.rec == nil {
		return nil
	}
	s.sinceCkpt++
	if s.sinceCkpt < s.rec.Every {
		return nil
	}
	if err := s.join(); err != nil {
		return err
	}
	blobs, err := hostBarrier(s, "checkpoint", HostDriver.Checkpoint)
	if err != nil {
		return s.fail(err)
	}
	s.ckpts = blobs
	s.tail = s.tail[:0]
	s.sinceCkpt = 0
	s.settleIngest()
	return nil
}

// hostBarrier runs one whole-run driver call (Checkpoint, Close) on every
// host concurrently; op names it in a recovery event. A host lost during the call is recovered —
// the replacement replays the tail — and asked again in its place. On
// error the answers gathered so far return too: a zero entry marks a host
// the call never completed on.
func hostBarrier[T any](s *Session, op string, call func(HostDriver) (T, error)) ([]T, error) {
	out := make([]T, len(s.hosts))
	all := make([]int, len(s.hosts))
	for hi := range all {
		all[hi] = hi
	}
	s.eachHost(all, func(hi int) (err error) {
		out[hi], err = call(s.hosts[hi].Driver)
		return err
	})
	for _, hi := range all {
		if err := s.errs[hi]; err != nil {
			if _, rerr := s.recoverHost(hi, err, op); rerr != nil {
				return out, rerr
			}
			if out[hi], err = call(s.hosts[hi].Driver); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// recoverHost handles one failed driver call. Unrecoverable failures (no
// recovery armed, or not a host-down error) return cause unchanged with
// no side effects. Otherwise the dead driver is aborted (best effort — a
// partitioned host may still hold the session), a replacement opens from
// the host's last checkpoint, and the tail replays into it. When the
// failure hit ComputeWindow of the current (not yet folded) window, the
// replayed report for that window returns so flushBuffered can fold it
// exactly as the original would have been.
func (s *Session) recoverHost(hi int, cause error, op string) (*WindowReport, error) {
	if s.rec == nil || !errors.Is(cause, ErrHostDown) {
		return nil, cause
	}
	b := &s.hosts[hi]
	b.Driver.Abort()
	d, err := s.rec.Reopen(s.cfg, hi, b.Origins, s.ckpts[hi])
	if err != nil {
		return nil, fmt.Errorf("runtime: reopen host %d after %v: %w", hi, cause, err)
	}
	b.Driver = d
	var cur *WindowReport
	replayed := 0
	for i := range s.tail {
		rec := &s.tail[i]
		if len(rec.arr[hi]) == 0 {
			continue
		}
		rep, err := d.ComputeWindow(rec.arr[hi])
		if err != nil {
			return nil, fmt.Errorf("runtime: replay window %d on host %d: %w", i, hi, err)
		}
		replayed++
		if !rec.folded {
			// Only the in-flight window can be unfolded; its fresh report
			// joins the normal merge in flushBuffered (reduce contributions
			// included — they never reached the rounds).
			cur = rep
			continue
		}
		// A folded window's reduce contributions already joined the global
		// aggregation rounds before the crash; dropping rep.Reduce here is
		// what keeps them folded exactly once.
		if rep.Held > 0 {
			if !rec.priced {
				return nil, fmt.Errorf("runtime: replayed window %d held %d messages but was never priced", i, rep.Held)
			}
			if err := d.DeliverWindow(rec.ratio); err != nil {
				return nil, fmt.Errorf("runtime: replay deliver window %d on host %d: %w", i, hi, err)
			}
		}
	}
	ev := RecoveryEvent{
		Time:    s.windowStart,
		Host:    hi,
		Origins: append([]int(nil), b.Origins...),
		Windows: replayed,
		Op:      op,
		Cause:   cause.Error(),
	}
	if s.rec.OnRecover != nil {
		s.rec.OnRecover(ev)
	}
	return cur, nil
}
