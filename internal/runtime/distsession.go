package runtime

import (
	"fmt"
	"sync"

	"wishbone/internal/dataflow"
	"wishbone/internal/wire"
)

// HostDriver is the coordinator's view of one shard host — a local
// ShardHost or an HTTP peer speaking the /v1/shard protocol. Calls arrive
// strictly phased per host: ComputeWindow, then (if the window held
// messages) DeliverWindow, repeating; finally Close or Abort.
type HostDriver interface {
	ComputeWindow(span float64, arrivals []HostArrival) (*WindowReport, error)
	DeliverWindow(ratio float64) error
	// Checkpoint freezes the host's state blob at the current window
	// boundary without disturbing the run (non-terminal) — the
	// coordinator retains it for host-failure recovery (recovery.go).
	Checkpoint() ([]byte, error)
	// Snapshot freezes the host at the current window boundary and
	// returns its contribution blob (terminal — the coordinator folds it
	// into the full run snapshot; see DistSession.Snapshot).
	Snapshot() ([]byte, error)
	Close() (*HostResult, error)
	Abort()
}

// HostBinding assigns one driver its origin subset.
type HostBinding struct {
	Driver  HostDriver
	Origins []int
}

// DistSession is the coordinator of a distributed run. It exposes the
// same Offer/Close surface as Session, but the node phase and per-origin
// delivery run on the bound shard hosts; the coordinator keeps exactly
// the global pieces: the window clock, the in-network reduce aggregation
// (rounds combine across all nodes), the delivery-ratio pricing (a
// function of every host's offered air), and the aggregate-origin
// delivery (AggregateOrigin's RNG, reassembly and relocated state live
// in the coordinator's own one-shard plan).
//
// Results are byte-identical to the single-host Session at every host
// count and origin placement: integer counters sum order-free across
// hosts, reduce contributions re-merge in global node order, the ratio
// bookkeeping stays on one goroutine in window order, and per-node CPU
// seconds are summed in global node order at Close.
type DistSession struct {
	windowCore
	aggPlan *deliveryPlan
	hosts   []HostBinding
	ownerOf []int // node -> index into hosts
	edges   []*dataflow.Edge

	// Per-window scratch: arrivals grouped per host, and the per-host
	// window reports.
	hostArr [][]HostArrival
	reports []*WindowReport
	errs    []error

	// Host-failure recovery (recovery.go): the armed policy, each host's
	// last boundary checkpoint, and the window tail flushed since it.
	rec        *DistRecovery
	ckpts      [][]byte
	tail       []distWindowRec
	sinceCkpt  int
	recoveries []RecoveryEvent
}

// Distributable reports whether cfg's simulation can be split across
// shard hosts: valid and free of global server state. Callers with peers
// configured fall back to a local Session when this is false.
func Distributable(cfg Config) bool {
	return validateConfig(&cfg) == nil && shardable(&cfg)
}

// NewDistSession validates the placement and binds the hosts. Every node
// in [0, cfg.Nodes) must be owned by exactly one host. The caller builds
// the drivers (and their remote sessions) first; on error the caller
// aborts them.
func NewDistSession(cfg Config, hosts []HostBinding) (*DistSession, error) {
	s := &DistSession{}
	if err := s.init(cfg); err != nil {
		return nil, err
	}
	s.runWindow = s.flushBuffered
	if !shardable(&s.cfg) {
		return nil, fmt.Errorf("runtime: partition has global server state; it cannot be distributed by origin")
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("runtime: distributed run needs at least one host")
	}
	s.hosts = hosts
	s.ownerOf = make([]int, cfg.Nodes)
	s.edges = cfg.Graph.Edges()
	s.hostArr = make([][]HostArrival, len(hosts))
	s.reports = make([]*WindowReport, len(hosts))
	s.errs = make([]error, len(hosts))
	for i := range s.ownerOf {
		s.ownerOf[i] = -1
	}
	for hi, b := range hosts {
		if b.Driver == nil || len(b.Origins) == 0 {
			return nil, fmt.Errorf("runtime: host %d has no driver or no origins", hi)
		}
		for _, n := range b.Origins {
			if n < 0 || n >= cfg.Nodes {
				return nil, fmt.Errorf("runtime: origin %d outside [0,%d)", n, cfg.Nodes)
			}
			if s.ownerOf[n] != -1 {
				return nil, fmt.Errorf("runtime: origin %d assigned to hosts %d and %d", n, s.ownerOf[n], hi)
			}
			s.ownerOf[n] = hi
		}
	}
	for n, hi := range s.ownerOf {
		if hi == -1 {
			return nil, fmt.Errorf("runtime: origin %d owned by no host", n)
		}
	}
	// The coordinator's own plan delivers only AggregateOrigin's messages;
	// one shard suffices and keeps the relocated-state table, reassembly
	// streams and RNG of the aggregate origin in one place.
	aggCfg := s.cfg
	aggCfg.Shards = 1
	plan, err := newDeliveryPlan(&aggCfg)
	if err != nil {
		return nil, err
	}
	s.aggPlan = plan
	return s, nil
}

// flushBuffered is the DistSession's runWindow — one distributed window
// barrier:
//
//  1. ship each host its origins' buffered arrivals; hosts simulate the
//     node phase and answer with offered air + reduce contributions,
//  2. fold the contributions into the global aggregation rounds in node
//     order (byte-identical to the single-host merge),
//  3. price the delivery ratio from the global offered air,
//  4. broadcast the ratio — hosts deliver their held messages — and
//     deliver the flushed aggregates through the coordinator's plan.
func (s *DistSession) flushBuffered(span float64) error {
	cfg := &s.cfg
	for hi := range s.hostArr {
		s.hostArr[hi] = s.hostArr[hi][:0]
	}
	// Nodes ascending: each host receives its origins' arrivals in the
	// same per-node order the single-host path feeds them.
	for n := 0; n < cfg.Nodes; n++ {
		buf := s.buf[n]
		if len(buf) == 0 {
			continue
		}
		hi := s.ownerOf[n]
		for _, a := range buf {
			s.hostArr[hi] = append(s.hostArr[hi], HostArrival{
				Node: n, Time: a.t, Source: a.src.ID(), Value: a.v,
			})
		}
		s.buf[n] = s.buf[n][:0]
	}
	s.buffered = 0
	s.recordWindow(span)

	active := s.activeHosts(func(hi int) bool { return len(s.hostArr[hi]) > 0 })
	s.eachHost(active, func(hi int) error {
		rep, err := s.hosts[hi].Driver.ComputeWindow(span, s.hostArr[hi])
		s.reports[hi] = rep
		return err
	})
	for _, hi := range active {
		if err := s.errs[hi]; err != nil {
			// A lost host recovers here: its replacement replays the tail
			// and answers for the in-flight window as the original would
			// have (recovery.go).
			rep, rerr := s.recoverHost(hi, err, "compute")
			if rerr != nil {
				return rerr
			}
			s.reports[hi] = rep
		}
	}

	// Merge the reduce contributions in global node order (stable within
	// a node), rebuild runtime messages, and run them through the same
	// aggregator the single-host session uses.
	var reduce []ReduceMsg
	for _, hi := range active {
		for _, rm := range s.reports[hi].Reduce {
			// The node indexes the aggregator's round counters: one off the
			// deployment would panic there, another host's would advance
			// the wrong round.
			if rm.Node < 0 || rm.Node >= cfg.Nodes || s.ownerOf[rm.Node] != hi {
				return fmt.Errorf("runtime: host %d reports a reduce contribution for node %d, which it does not own", hi, rm.Node)
			}
		}
		reduce = append(reduce, s.reports[hi].Reduce...)
	}
	sortRuns(reduce, nil, func(a, b *ReduceMsg) bool { return a.Node < b.Node })
	msgs := make([]message, 0, len(reduce))
	for _, rm := range reduce {
		if rm.Edge < 0 || rm.Edge >= len(s.edges) {
			return fmt.Errorf("runtime: reduce contribution on edge %d of %d", rm.Edge, len(s.edges))
		}
		v, _, err := wire.Unmarshal(rm.Data)
		if err != nil {
			return fmt.Errorf("runtime: reduce contribution does not decode: %w", err)
		}
		msgs = append(msgs, message{
			time: rm.Time, nodeID: rm.Node, edge: s.edges[rm.Edge],
			value: v, packets: rm.Packets,
		})
	}
	out := s.agg.fold(cfg, msgs, &s.res, nil)
	for i := range out {
		if out[i].nodeID != AggregateOrigin {
			// A non-reduce message can only reach the coordinator's out
			// queue if a host misclassified it; fail loudly rather than
			// deliver it against the wrong plan.
			return fmt.Errorf("runtime: non-aggregate message from origin %d in the coordinator's window", out[i].nodeID)
		}
	}
	if n := len(s.tail); n > 0 {
		// The window's reduce contributions are in the global rounds now;
		// a replay of this record must not fold them again.
		s.tail[n-1].folded = true
	}
	if err := s.deliverWindow(out, span, active); err != nil {
		return err
	}
	return s.maybeCheckpoint()
}

// deliverWindow prices one window's global offered load and fans the
// ratio out: the hosts deliver their held messages, the coordinator its
// aggregates.
func (s *DistSession) deliverWindow(out []message, span float64, active []int) error {
	air, held := 0, 0
	for _, hi := range active {
		air += s.reports[hi].Air
		held += s.reports[hi].Held
	}
	// Aggregates only: a handful per window, so no buffer is kept for them.
	outAir, _ := sortByTime(out, nil)
	air += outAir
	ratio := s.price(air, span, held+len(out))
	if held+len(out) == 0 {
		return nil
	}
	if len(active) > 0 && len(s.tail) > 0 {
		// flushWindow-driven deliveries record the priced ratio on the
		// window's replay record; the Close-tail delivery (active == nil)
		// has no record — it belongs to the coordinator's aggregates only.
		rec := &s.tail[len(s.tail)-1]
		rec.priced, rec.ratio = true, ratio
	}

	deliverers := make([]int, 0, len(active))
	for _, hi := range active {
		if s.reports[hi].Held > 0 {
			deliverers = append(deliverers, hi)
		}
	}
	s.eachHost(deliverers, func(hi int) error {
		return s.hosts[hi].Driver.DeliverWindow(ratio)
	})
	for _, hi := range deliverers {
		if err := s.errs[hi]; err != nil {
			// The window is folded and priced by now, so the replacement's
			// tail replay performs this delivery too.
			if _, rerr := s.recoverHost(hi, err, "deliver"); rerr != nil {
				return rerr
			}
		}
	}
	if len(out) > 0 {
		return s.aggPlan.deliver(out, ratio)
	}
	return nil
}

// activeHosts filters host indices by keep.
func (s *DistSession) activeHosts(keep func(int) bool) []int {
	active := make([]int, 0, len(s.hosts))
	for hi := range s.hosts {
		if keep(hi) {
			active = append(active, hi)
		}
	}
	return active
}

// eachHost runs f concurrently across the given hosts (the whole point of
// distribution: the per-window barrier costs one round-trip, not one per
// host), parking each error in s.errs.
func (s *DistSession) eachHost(hosts []int, f func(hi int) error) {
	for _, hi := range hosts {
		s.errs[hi] = nil
	}
	if len(hosts) == 1 {
		s.errs[hosts[0]] = f(hosts[0])
		return
	}
	var wg sync.WaitGroup
	for _, hi := range hosts {
		wg.Add(1)
		go func(hi int) {
			defer wg.Done()
			s.errs[hi] = f(hi)
		}(hi)
	}
	wg.Wait()
}

// Close flushes the tail window and the still-pending reduce rounds,
// closes every host, and assembles the global Result.
func (s *DistSession) Close() (*Result, error) {
	if s.closed {
		return nil, fmt.Errorf("runtime: Close on a closed DistSession")
	}
	s.closed = true
	abort := func(err error) (*Result, error) {
		s.teardown()
		return nil, err
	}
	cfg := &s.cfg
	if s.buffered > 0 {
		if err := s.flushWindow(); err != nil {
			return abort(err)
		}
	}
	tail := s.agg.flushAll(cfg, &s.res, nil)
	if err := s.deliverWindow(tail, s.lastSpan, nil); err != nil {
		return abort(err)
	}

	results, err := hostBarrier(s, "close", HostDriver.Close)
	if err != nil {
		// Close already tore the answering hosts down; only the
		// coordinator's plan is left.
		s.aggPlan.close()
		return nil, err
	}
	busy := make([]float64, cfg.Nodes)
	for hi, hr := range results {
		s.res.InputEvents += hr.InputEvents
		s.res.ProcessedEvents += hr.ProcessedEvents
		s.res.MsgsSent += hr.MsgsSent
		s.res.MsgsReceived += hr.MsgsReceived
		s.res.PayloadBytes += hr.PayloadBytes
		s.res.DeliveredBytes += hr.DeliveredBytes
		s.res.ServerEmits += hr.ServerEmits
		for _, nb := range hr.NodeBusy {
			if nb.Node < 0 || nb.Node >= cfg.Nodes || s.ownerOf[nb.Node] != hi {
				// The hosts are closed; as above, only the plan is left.
				s.aggPlan.close()
				return nil, fmt.Errorf("runtime: host %d reports busy for node %d, which it does not own", hi, nb.Node)
			}
			busy[nb.Node] = nb.Busy
		}
	}
	// Global node order — float64 addition order is part of byte-identity.
	for _, b := range busy {
		s.res.NodeCPU += b
	}
	s.finish()
	s.aggPlan.collect(&s.res)
	res := s.res
	return &res, nil
}

// Abort tears the coordinator and every host down (error paths).
func (s *DistSession) Abort() {
	if s.closed {
		return
	}
	s.closed = true
	s.teardown()
}

// teardown aborts every host and releases the coordinator's plan.
func (s *DistSession) teardown() {
	for _, b := range s.hosts {
		b.Driver.Abort()
	}
	s.aggPlan.close()
}

// PartitionOrigins splits nodes 0..n-1 across h hosts round-robin —
// placement does not affect Results (per-origin independence), only
// balance, and round-robin balances any node-indexed rate skew.
func PartitionOrigins(n, h int) [][]int {
	if h > n {
		h = n
	}
	parts := make([][]int, h)
	for i := 0; i < n; i++ {
		parts[i%h] = append(parts[i%h], i)
	}
	return parts
}
