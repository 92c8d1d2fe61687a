package runtime

import (
	"fmt"
	"sync"
	"time"

	"wishbone/internal/wire"
)

// The window loop: a Session's hosts and how one window runs across them.
// Every streaming run, in process or across hosts, flushes through here.

// HostDriver is the coordinator's view of one shard host — a local
// ShardHost or an HTTP peer speaking the /v1/shard protocol. Calls arrive
// strictly phased per host: ComputeWindow, then (if the window held
// messages) DeliverWindow, repeating; finally Close or Abort.
type HostDriver interface {
	ComputeWindow(arrivals []HostArrival) (*WindowReport, error)
	DeliverWindow(ratio float64) error
	// Checkpoint freezes the host's state blob at the current window
	// boundary without disturbing the run — the one freeze: the
	// coordinator retains it for host-failure recovery (recovery.go), and
	// Session.Snapshot folds every host's into the run snapshot before
	// aborting them.
	Checkpoint() ([]byte, error)
	Close() (*HostResult, error)
	Abort()
}

// HostBinding assigns one driver its origin subset.
type HostBinding struct {
	Driver  HostDriver
	Origins []int
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
// aborts them. An unshardable partition binds only one in-process
// ShardHost owning every origin (NewSession's placement).
func NewDistSession(cfg Config, hosts []HostBinding) (*Session, error) {
	s := &Session{started: time.Now()}
	if err := s.bind(cfg, hosts); err != nil {
		return nil, err
	}
	return s, nil
}

// bind builds the coordinator state for cfg in place over the hosts:
// NewDistSession's body, and the first step of every resume.
func (s *Session) bind(cfg Config, hosts []HostBinding) error {
	if err := s.init(cfg); err != nil {
		return err
	}
	if len(hosts) == 0 {
		return fmt.Errorf("runtime: distributed run needs at least one host")
	}
	if _, local := hosts[0].Driver.(*ShardHost); !shardable(&s.cfg) && (len(hosts) != 1 || !local) {
		// The aggregates and the held messages of an unshardable partition
		// share one stable time sort and one server instance: the one
		// in-process host's plan (deliverWindow).
		return fmt.Errorf("runtime: partition has global server state; it cannot be distributed by origin")
	}
	s.hosts = hosts
	s.ownerOf = make([]int, cfg.Nodes)
	s.hostArr = make([][]HostArrival, len(hosts))
	s.reports = make([]*WindowReport, len(hosts))
	s.errs = make([]error, len(hosts))
	for i := range s.ownerOf {
		s.ownerOf[i] = -1
	}
	for hi, b := range hosts {
		if b.Driver == nil || len(b.Origins) == 0 {
			return fmt.Errorf("runtime: host %d has no driver or no origins", hi)
		}
		for _, n := range b.Origins {
			if n < 0 || n >= cfg.Nodes {
				return fmt.Errorf("runtime: origin %d outside [0,%d)", n, cfg.Nodes)
			}
			if s.ownerOf[n] != -1 {
				return fmt.Errorf("runtime: origin %d assigned to hosts %d and %d", n, s.ownerOf[n], hi)
			}
			s.ownerOf[n] = hi
		}
	}
	for n, hi := range s.ownerOf {
		if hi == -1 {
			return fmt.Errorf("runtime: origin %d owned by no host", n)
		}
	}
	if shardable(&s.cfg) {
		// The coordinator's own plan delivers only AggregateOrigin's
		// messages; one shard suffices and keeps the relocated-state table,
		// reassembly streams and RNG of the aggregate origin in one place.
		aggCfg := s.cfg
		aggCfg.Shards = 1
		plan, err := newDeliveryPlan(&aggCfg)
		if err != nil {
			return err
		}
		s.aggPlan = plan
	}
	return nil
}

// flushBuffered is one window of span simulated seconds:
//
//  0. join the previous window's deliveries,
//  1. ship each host its origins' buffered arrivals; hosts simulate the
//     node phase and answer with offered air + reduce contributions,
//  2. fold the contributions into the global aggregation rounds in node
//     order (byte-identical to a single host's merge),
//  3. price the delivery ratio from the global offered air,
//  4. start the deliveries behind the caller: the hosts replay their held
//     messages at the ratio, then the aggregates deliver.
func (s *Session) flushBuffered(span float64) error {
	// The wait for the previous window is not node-stage time, so the
	// stage clock starts after it.
	if err := s.join(); err != nil {
		return err
	}
	var start time.Time
	if s.cfg.Timings != nil {
		start = time.Now()
	}
	for hi := range s.hostArr {
		s.hostArr[hi] = s.hostArr[hi][:0]
	}
	// Nodes ascending: each host receives its origins' arrivals in the
	// same per-node order a single host is fed them.
	for n, buf := range s.buf {
		hi := s.ownerOf[n]
		for _, a := range buf {
			s.hostArr[hi] = append(s.hostArr[hi], HostArrival{
				Node: n, Time: a.t, Source: a.src.ID(), Value: a.v,
			})
		}
		s.buf[n] = buf[:0]
	}
	s.buffered = 0
	s.recordWindow()

	var active []int
	for hi, arr := range s.hostArr {
		if len(arr) > 0 {
			active = append(active, hi)
		}
	}
	s.eachHost(active, func(hi int) error {
		rep, err := s.hosts[hi].Driver.ComputeWindow(s.hostArr[hi])
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
				return s.fail(rerr)
			}
			s.reports[hi] = rep
		}
	}
	out, err := s.fold(active)
	if err != nil {
		return s.fail(err)
	}
	if n := len(s.tail); n > 0 {
		// The window's reduce contributions are in the global rounds now;
		// a replay of this record must not fold them again.
		s.tail[n-1].folded = true
	}
	s.deliverWindow(out, span, active, start)
	// Safe to rotate while the window delivers: rotation only drops block
	// references; the GC keeps each block alive while any in-flight value
	// still points into it.
	s.ingest.rotate()
	return s.maybeCheckpoint()
}

// fold merges the active hosts' reduce contributions in global node order
// (stable within a node), rebuilds runtime messages, and runs them through
// the aggregation rounds, returning the window's aggregates.
func (s *Session) fold(active []int) ([]message, error) {
	cfg := &s.cfg
	var reduce []ReduceMsg
	for _, hi := range active {
		for _, rm := range s.reports[hi].Reduce {
			// The node indexes the aggregator's round counters: one off the
			// deployment would panic there, another host's would advance
			// the wrong round.
			if rm.Node < 0 || rm.Node >= cfg.Nodes || s.ownerOf[rm.Node] != hi {
				return nil, fmt.Errorf("runtime: host %d reports a reduce contribution for node %d, which it does not own", hi, rm.Node)
			}
		}
		reduce = append(reduce, s.reports[hi].Reduce...)
	}
	sortRuns(reduce, nil, func(a, b *ReduceMsg) bool { return a.Node < b.Node })
	edges := cfg.Graph.Edges()
	msgs := make([]message, 0, len(reduce))
	for _, rm := range reduce {
		if rm.Edge < 0 || rm.Edge >= len(edges) {
			return nil, fmt.Errorf("runtime: reduce contribution on edge %d of %d", rm.Edge, len(edges))
		}
		v, _, err := wire.Unmarshal(rm.Data)
		if err != nil {
			return nil, fmt.Errorf("runtime: reduce contribution does not decode: %w", err)
		}
		msgs = append(msgs, message{
			time: rm.Time, nodeID: rm.Node, edge: edges[rm.Edge],
			value: v, packets: rm.Packets,
		})
	}
	s.out = s.agg.fold(cfg, msgs, &s.res, s.out[:0])
	for i := range s.out {
		if s.out[i].nodeID != AggregateOrigin {
			// A non-reduce message can only reach the coordinator's out
			// queue if a host misclassified it; fail loudly rather than
			// deliver it against the wrong plan.
			return nil, fmt.Errorf("runtime: non-aggregate message from origin %d in the coordinator's window", s.out[i].nodeID)
		}
	}
	return s.out, nil
}

// deliverWindow prices one window's global offered load — on the caller,
// in window order — and starts its deliveries behind the caller; join
// waits for them. start is when the window's node stage began (zero when
// the run is untimed): the stage ends with pricing.
func (s *Session) deliverWindow(out []message, span float64, active []int, start time.Time) {
	air, held := 0, 0
	for _, hi := range active {
		air += s.reports[hi].Air
		held += s.reports[hi].Held
	}
	var outAir int
	outAir, s.scratch = sortByTime(out, s.scratch)
	air += outAir
	ratio := s.price(air, span, held+len(out))
	if t := s.cfg.Timings; t != nil {
		t.addNode(time.Since(start))
	}
	if held+len(out) == 0 {
		return
	}
	if len(active) > 0 && len(s.tail) > 0 {
		// flushBuffered-driven deliveries record the priced ratio on the
		// window's replay record; the Close-tail delivery (active == nil)
		// has no record — it belongs to the aggregates only.
		rec := &s.tail[len(s.tail)-1]
		rec.priced, rec.ratio = true, ratio
	}
	if s.aggPlan != nil {
		for _, hi := range active {
			if s.reports[hi].Held > 0 {
				s.delivering = append(s.delivering, hi)
			}
		}
	}
	s.delivery.Add(1)
	go func() {
		defer s.delivery.Done()
		began := time.Now()
		// The hosts holding messages deliver concurrently, then the
		// aggregates: never beside an in-process host's delivery, so the two
		// never share the worker budget. An unshardable partition's one host
		// delivers the aggregates sorted in with its held messages.
		if s.aggPlan == nil {
			s.aggErr = s.hosts[0].Driver.(*ShardHost).deliver(ratio, out)
		} else {
			s.eachHost(s.delivering, func(hi int) error {
				return s.hosts[hi].Driver.DeliverWindow(ratio)
			})
			if len(out) > 0 {
				s.aggErr = s.aggPlan.deliver(out, ratio)
			}
		}
		if t := s.cfg.Timings; t != nil {
			t.addDelivery(time.Since(began))
		}
	}()
}

// join waits for the window delivering behind the caller, if any, and
// settles it: a host whose delivery failed recovers here (the
// replacement's tail replay performs the delivery), and any other failure
// sticks to the session. Afterwards all state is at the last flushed
// window boundary.
func (s *Session) join() error {
	s.delivery.Wait()
	if s.err != nil {
		return s.err
	}
	delivering := s.delivering
	s.delivering = s.delivering[:0]
	for _, hi := range delivering {
		if err := s.errs[hi]; err != nil {
			if _, rerr := s.recoverHost(hi, err, "deliver"); rerr != nil {
				return s.fail(rerr)
			}
		}
	}
	if s.aggErr != nil {
		return s.fail(s.aggErr)
	}
	return nil
}

// fail records a window failure and returns the first one recorded.
func (s *Session) fail(err error) error {
	if s.err == nil {
		s.err = err
	}
	return s.err
}

// eachHost runs f concurrently across the given hosts (the whole point of
// distribution: the per-window barrier costs one round-trip, not one per
// host), parking each error in s.errs.
func (s *Session) eachHost(hosts []int, f func(hi int) error) {
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

// Close flushes the final window and the reduce rounds still pending,
// joins their delivery, closes every host, and assembles the global
// Result.
func (s *Session) Close() (*Result, error) {
	if s.closed {
		return nil, fmt.Errorf("runtime: Close on a closed Session")
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
	if err := s.join(); err != nil {
		return abort(err)
	}
	// Rounds still pending (some node never emitted past them) flush as
	// one last batch, priced over the final window's actual span — no
	// additional simulated time exists to spread them over.
	var start time.Time
	if cfg.Timings != nil {
		start = time.Now()
	}
	s.out = s.agg.flushAll(cfg, &s.res, s.out[:0])
	s.deliverWindow(s.out, s.lastSpan, nil, start)
	// The last delivery must end before the hosts' counters are read.
	if err := s.join(); err != nil {
		return abort(err)
	}

	// Close tears the answering hosts down; from here on only the
	// coordinator's own pieces are left.
	defer s.release()
	results, err := hostBarrier(s, "close", HostDriver.Close)
	if err != nil {
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
	if s.aggPlan != nil {
		s.aggPlan.collect(&s.res)
	}
	if t := cfg.Timings; t != nil {
		t.addWall(time.Since(s.started))
	}
	res := s.res
	return &res, nil
}

// Abort tears the session and every host down without a result (error
// paths).
func (s *Session) Abort() {
	if s.closed {
		return
	}
	s.closed = true
	s.teardown()
}

// teardown waits out the window delivering behind the caller, aborts
// every host and releases the coordinator.
func (s *Session) teardown() {
	s.delivery.Wait()
	for _, b := range s.hosts {
		b.Driver.Abort()
	}
	s.release()
}

// release returns the coordinator's plan (idempotent; a collected plan
// closes as a no-op).
func (s *Session) release() {
	if s.aggPlan != nil {
		s.aggPlan.close()
	}
}

// PartitionOrigins splits nodes 0..n-1 across h hosts round-robin —
// placement does not affect Results (per-origin independence), only
// balance, and round-robin balances any node-indexed rate skew. There is
// always at least one part, empty when n is not positive.
func PartitionOrigins(n, h int) [][]int {
	h = max(min(h, n), 1)
	parts := make([][]int, h)
	for i := 0; i < n; i++ {
		parts[i%h] = append(parts[i%h], i)
	}
	return parts
}
