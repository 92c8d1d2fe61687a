package runtime

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"wishbone/internal/dataflow"
	"wishbone/internal/profile"
)

// Streaming ingestion: instead of materializing every node's arrival
// sequence and the full in-flight message slice (O(duration) memory), a
// Session feeds arrivals through persistent per-node Instances and into
// the sharded server delivery in bounded windows of simulated time. An
// hour-long deployment simulates in the memory of one window.
//
// Each window's messages see the delivery ratio of that window's offered
// load (the batch path prices the whole run's mean load); for a
// steady-rate trace whose period divides the window the two are exactly
// equal, which the streaming/batch parity test exploits.

// ErrBadArrival marks Offer failures caused by the offered arrival itself
// — wrong node, a non-source operator, time disorder. The partition
// service maps these to 400s; any other Session error is an engine
// failure.
var ErrBadArrival = errors.New("bad arrival")

// ErrBackpressure marks Offer failures where the session's window buffer
// hit its bound (Config.MaxBufferedArrivals): the stream is arriving
// faster — or with less simulated-time progress — than the session is
// willing to buffer. The partition service maps these to 429 so one
// tenant's firehose sheds load instead of occupying a job slot with an
// ever-growing buffer; callers that own the stream should shrink
// WindowSeconds or thin the trace.
var ErrBackpressure = errors.New("stream backpressure")

// workPanicError converts a recovered work-function panic into an error.
// Work functions run against client-supplied stream data, so a panic is
// classified as a bad arrival rather than an engine failure. Panic values
// that are themselves errors — wscript runtime aborts, wvm metering trips —
// additionally stay in the chain so callers can classify the abort with
// errors.Is (the partition service maps fuel and memory trips to 422, ahead
// of the generic 400).
func workPanicError(r any, what string) error {
	if e, ok := r.(error); ok {
		return fmt.Errorf("runtime: %s work function aborted: %w (%w)", what, e, ErrBadArrival)
	}
	return fmt.Errorf("runtime: %s work function panicked (likely a mistyped arrival value): %v: %w",
		what, r, ErrBadArrival)
}

// Arrival is one sensor event offered to a node at an absolute simulated
// time.
type Arrival struct {
	Time   float64
	Source *dataflow.Operator
	Value  dataflow.Value
}

// Stream yields one node's arrivals in nondecreasing Time order.
type Stream interface {
	Next() (Arrival, bool)
}

// InputStream adapts periodic trace inputs (the same shape Config.Inputs
// supplies) into a Stream producing exactly the arrival sequence the
// batch path would materialize — lazily, one element at a time.
func InputStream(inputs []profile.Input, scale, duration float64) (Stream, error) {
	if scale <= 0 {
		scale = 1
	}
	s := &inputStream{inputs: inputs, duration: duration}
	for _, in := range inputs {
		rate := in.Rate * scale
		if rate <= 0 {
			return nil, fmt.Errorf("runtime: input with non-positive rate")
		}
		if len(in.Events) == 0 {
			return nil, fmt.Errorf("runtime: input source %s has an empty trace", in.Source)
		}
		s.periods = append(s.periods, 1/rate)
	}
	s.next = make([]int, len(inputs))
	return s, nil
}

type inputStream struct {
	inputs   []profile.Input
	periods  []float64
	next     []int
	duration float64
}

func (s *inputStream) Next() (Arrival, bool) {
	best, bt := -1, 0.0
	for i := range s.inputs {
		t := float64(s.next[i]) * s.periods[i]
		if t >= s.duration {
			continue
		}
		// Strict < keeps the earliest input on ties, matching
		// buildArrivals' stable sort.
		if best < 0 || t < bt {
			best, bt = i, t
		}
	}
	if best < 0 {
		return Arrival{}, false
	}
	in := &s.inputs[best]
	ev := in.Events[s.next[best]%len(in.Events)]
	s.next[best]++
	return Arrival{Time: bt, Source: in.Source, Value: ev}, true
}

// Session is the incremental simulation API behind streaming ingestion:
// Offer arrivals in nondecreasing time order (any node interleaving),
// Close to flush the tail and read the Result. The partition service's
// /v1/simulate/stream endpoint drives a Session straight from the
// request body; Run drives one from Config.ArrivalSource.
//
// A Session is a windowCore (the window clock) over an originHost holding
// every origin. Each window takes one windowBufs through the same steps —
// feed, drain, fold, time-sort, price, partition, deliver — on the Offer
// caller, the feed and the shard deliveries each fanned out over the
// Config.Workers pool. The last step alone runs behind the caller: window
// w delivers on one goroutine while the caller ingests window w+1, and
// joinDelivery waits for it before w+1's feed, so the two stages never run
// at once and simulation work stays within Config.Workers. Every shard's
// state is touched by one delivery at a time, in window order, and pricing
// stays on the caller, so the Result does not depend on the overlap.
//
// A Session accepts the same Config.Shards/Workers knobs as the batch
// path.
type Session struct {
	windowCore
	host *originHost

	// free recycles window storage: the window delivering and, in Close,
	// the reduce tail built behind it are the two that can be live.
	free chan *windowBufs

	// delivery counts the window delivering behind the caller (at most
	// one); err is the first window failure — written by that goroutine
	// or the caller, read only after joinDelivery — and no window runs on
	// top of it.
	delivery sync.WaitGroup
	err      error

	// ingest backs OfferRaw's zero-copy decode: raw JSON arrival values
	// land in generational typed slabs instead of one allocation per
	// arrival. Rotated once per flushed window.
	ingest ingestArena

	started    time.Time
	stageStart time.Time
}

// NewSession validates cfg and builds the persistent node and server
// state. cfg.Inputs, Duration-derived arrival building and the replay
// fast path do not apply; arrivals come from Offer.
func NewSession(cfg Config) (*Session, error) {
	s := &Session{started: time.Now(), free: make(chan *windowBufs, 2)}
	if err := s.init(cfg); err != nil {
		return nil, err
	}
	s.runWindow = s.flushBuffered
	// A Session is the one-host placement: every origin on the same host.
	host, err := newOriginHost(&s.cfg, PartitionOrigins(cfg.Nodes, 1)[0])
	if err != nil {
		return nil, err
	}
	s.host = host
	return s, nil
}

// OfferRaw feeds one arrival whose value is still raw JSON, decoding it
// into the session's ingest arena — this is the zero-copy path behind
// /v1/simulate/stream, which would otherwise allocate a fresh value per
// arrival. The decode runs after any window flush the arrival triggers,
// so the carved value belongs to the window that will consume it. raw is
// not retained; callers may reuse the buffer immediately.
func (s *Session) OfferRaw(nodeID int, t float64, src *dataflow.Operator, typ string, raw []byte) error {
	if err := s.admit(nodeID, src, t); err != nil {
		return err
	}
	late := t >= s.cfg.Duration
	if !late {
		if err := s.advance(t); err != nil {
			return err
		}
	}
	if late || s.scen.drops(nodeID, t) {
		// Dropped — past Duration like the batch path's arrival builder, or
		// by the churn model — exactly like Offer, but the value must still
		// validate, matching the decode-then-Offer behavior.
		if _, err := s.ingest.decode(typ, raw, true); err != nil {
			return fmt.Errorf("runtime: %v: %w", err, ErrBadArrival)
		}
		return nil
	}
	v, err := s.ingest.decode(typ, raw, false)
	if err != nil {
		return fmt.Errorf("runtime: %v: %w", err, ErrBadArrival)
	}
	return s.push(nodeID, arrival{t: t, src: src, v: v})
}

// flushBuffered is the Session's runWindow: it runs the buffered arrivals
// through the node instances, folds reduce rounds that completed, prices
// the window's offered load, and delivers through the server shards.
func (s *Session) flushBuffered(span float64) error {
	// The previous window's delivery ends before this window's feed starts:
	// the wait is not node-stage time, so the stage clock starts after it.
	if err := s.joinDelivery(); err != nil {
		return err
	}
	if s.cfg.Timings != nil {
		s.stageStart = time.Now()
	}
	win := s.getWin()
	if err := s.host.feedPooled(win, s.buf); err != nil {
		s.recycle(win)
		return s.fail(err)
	}
	win.msgs = s.host.nodes.drain(&s.res, win.msgs[:0])
	for n := range s.buf {
		s.buf[n] = s.buf[n][:0]
	}
	s.buffered = 0
	s.agg.arena = win.arenas[s.cfg.Nodes]
	win.out = s.agg.fold(&s.cfg, win.msgs, &s.res, win.out[:0])
	if err := s.deliverWindow(win, span); err != nil {
		return err
	}
	// Safe to rotate while the window's delivery is still running:
	// rotation only drops block references; the GC keeps each block alive
	// while any in-flight value still points into it.
	s.ingest.rotate()
	return nil
}

// deliverWindow prices win.out (always on the caller, in window order —
// the ratio is a global function of every shard's offered load),
// partitions it by delivery shard and starts its delivery on the worker
// pool, behind the caller; a failure there surfaces from the next
// joinDelivery.
func (s *Session) deliverWindow(win *windowBufs, span float64) error {
	// The node stage ends here even when the window has nothing to
	// deliver (all messages folded into pending reduce rounds) — accrue
	// its wall before any early return so StageTimings never drops it.
	if t := s.cfg.Timings; t != nil && !s.stageStart.IsZero() {
		t.addNode(time.Since(s.stageStart))
		s.stageStart = time.Time{}
	}
	out := win.out
	if len(out) == 0 {
		s.recycle(win)
		s.price(0, span, 0)
		return nil
	}
	var air int
	air, win.msgs = sortByTime(out, win.msgs) // fold consumed win.msgs
	ratio := s.price(air, span, len(out))
	s.host.plan.partition(out, win.parts)
	// Close's reduce tail gets here with the last window still delivering.
	if err := s.joinDelivery(); err != nil {
		s.recycle(win)
		return err
	}
	s.delivery.Add(1)
	go func() {
		defer s.delivery.Done()
		start := time.Now()
		err := s.host.plan.deliverParts(win.parts, ratio)
		if t := s.cfg.Timings; t != nil {
			t.addDelivery(time.Since(start))
		}
		s.recycle(win)
		if err != nil {
			s.fail(err)
		}
	}()
	return nil
}

// Close flushes the final window and any reduce rounds still pending,
// joins their delivery, releases the pooled instances and arenas, and
// returns the accumulated Result.
func (s *Session) Close() (*Result, error) {
	if s.closed {
		return nil, fmt.Errorf("runtime: Close on a closed Session")
	}
	s.closed = true
	defer s.release()
	cfg := &s.cfg
	if s.buffered > 0 {
		if err := s.flushWindow(); err != nil {
			return nil, err
		}
	}
	// Rounds still pending (some node never emitted past them) flush as
	// one last batch, priced over the final window's actual span — no
	// additional simulated time exists to spread them over.
	if cfg.Timings != nil {
		s.stageStart = time.Now()
	}
	win := s.getWin()
	s.agg.arena = win.arenas[cfg.Nodes]
	win.out = s.agg.flushAll(cfg, &s.res, win.out[:0])
	if err := s.deliverWindow(win, s.lastSpan); err != nil {
		return nil, err
	}
	// The last delivery must end before the shard counters are read.
	if err := s.joinDelivery(); err != nil {
		return nil, err
	}
	for _, nb := range s.host.nodes.tally(&s.res) {
		s.res.NodeCPU += nb.Busy
	}
	s.finish()
	s.host.plan.collect(&s.res)
	if t := cfg.Timings; t != nil {
		t.addWall(time.Since(s.started))
	}
	res := s.res
	return &res, nil
}

// Abort tears the session down without a result (error paths).
func (s *Session) Abort() { s.Close() }

// joinDelivery waits for the window delivering behind the caller, if any;
// afterwards all state is at the last flushed window boundary. It reports
// the first window failure.
func (s *Session) joinDelivery() error {
	s.delivery.Wait()
	return s.err
}

// release joins a delivery still running (error paths), hands the
// recycled windows' arenas back to the process-wide pool so the next run
// starts warm, and releases the host: the teardown Close and Snapshot
// share.
func (s *Session) release() {
	s.joinDelivery()
	for len(s.free) > 0 {
		(<-s.free).releaseArenas()
	}
	s.host.release()
}

// fail records a window failure and returns the first one recorded.
func (s *Session) fail(err error) error {
	if s.err == nil {
		s.err = err
	}
	return s.err
}

// getWin returns recycled window storage, or builds a fresh set when
// every buffer is still live.
func (s *Session) getWin() *windowBufs {
	select {
	case w := <-s.free:
		return w
	default:
		return newWindowBufs(s.cfg.Nodes, len(s.host.plan.shards))
	}
}

// recycle returns a window whose messages are dead to the free list.
func (s *Session) recycle(w *windowBufs) {
	w.reset()
	select {
	case s.free <- w:
	default:
		w.releaseArenas() // free list full (deep error paths only)
	}
}

// runStream is Run's streaming path: Feed the merged arrivals through a
// Session.
func runStream(cfg Config) (*Result, error) {
	sess, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	if err := Feed(sess, &cfg); err != nil {
		// The session still closes, returning the pooled node and shard
		// instances to their Program.
		sess.Abort()
		return nil, err
	}
	return sess.Close()
}

// ArrivalSink is what Feed offers the merged arrival sequence to: plain
// and controlled sessions, local and distributed, all take it through
// the same Offer.
type ArrivalSink interface {
	Offer(nodeID int, a Arrival) error
}

// Feed pulls every node's arrival stream — cfg.ArrivalSource, or
// cfg.Inputs adapted per node at cfg.RateScale — merges them by time and
// offers the merged sequence to sink: the strictly-earliest head wins,
// the lowest node index on ties. Every placement of a run feeds through
// this one merge, which is what makes their Results byte-identical.
func Feed(sink ArrivalSink, cfg *Config) error {
	source := cfg.ArrivalSource
	if source == nil {
		if cfg.Inputs == nil {
			return fmt.Errorf("runtime: need Inputs (or ArrivalSource for streaming)")
		}
		source = func(nodeID int) (Stream, error) {
			in := cfg.Inputs(nodeID)
			if len(in) == 0 {
				return nil, fmt.Errorf("runtime: node %d has no inputs", nodeID)
			}
			return InputStream(in, cfg.RateScale, cfg.Duration)
		}
	}
	streams := make([]Stream, cfg.Nodes)
	heads := make([]Arrival, cfg.Nodes)
	live := make([]bool, cfg.Nodes)
	for n := range streams {
		st, err := source(n)
		if err != nil {
			return err
		}
		if st == nil {
			return fmt.Errorf("runtime: node %d has no arrival stream", n)
		}
		streams[n] = st
		heads[n], live[n] = st.Next()
	}
	for {
		best := -1
		for n := range heads {
			// A head at or past Duration ends its stream: times are
			// nondecreasing, so nothing useful follows — without this an
			// endless generator-style Stream would hang the run.
			if live[n] && heads[n].Time >= cfg.Duration {
				live[n] = false
			}
			if !live[n] {
				continue
			}
			if best < 0 || heads[n].Time < heads[best].Time {
				best = n
			}
		}
		if best < 0 {
			return nil
		}
		if err := sink.Offer(best, heads[best]); err != nil {
			return err
		}
		heads[best], live[best] = streams[best].Next()
	}
}
