package runtime

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"wishbone/internal/cost"
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
// A Session accepts the same Config.Shards/Workers knobs as the batch
// path.
type Session struct {
	windowCore
	plan  *deliveryPlan
	prog  *dataflow.Program
	insts []*dataflow.Instance
	nodes []*nodeSim

	// pipe is non-nil when the session pipelines its stages (delivery of
	// window w overlapping simulation of window w+1 — see pipeline.go);
	// nil sessions run the stages in phase on the caller's goroutine.
	pipe *pipe

	// Phased-mode window storage, reused across windows: per-node sender
	// arenas plus one aggregator arena (reset after each window's
	// synchronous delivery), the merged and post-aggregation message
	// slices, and the per-node feed error slots.
	arenas   []*fragArena
	winMsgs  []message
	winOut   []message
	feedErrs []error

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
	s := &Session{started: time.Now()}
	if err := s.init(cfg); err != nil {
		return nil, err
	}
	s.runWindow = s.flushBuffered
	prog, err := resolveProgram(&s.cfg, true)
	if err != nil {
		return nil, err
	}
	s.prog = prog
	plan, err := newDeliveryPlan(&s.cfg)
	if err != nil {
		return nil, err
	}
	s.plan = plan
	passthrough := passthroughPartition(&s.cfg, prog)
	for n := 0; n < cfg.Nodes; n++ {
		inst := prog.AcquireInstance(n)
		counter := &cost.Counter{}
		inst.SetCounter(counter)
		snd := &sender{cfg: &s.cfg, nodeID: n}
		inst.Boundary = snd.capture
		s.insts = append(s.insts, inst)
		ns := &nodeSim{counter: counter, s: snd, inject: inst.Inject}
		if passthrough {
			ns.injectBatch = inst.InjectBatch
		}
		s.nodes = append(s.nodes, ns)
	}
	if !cfg.NoPipeline && poolWorkers(&s.cfg, 2) > 1 {
		// Pipelined by default whenever the worker budget allows true
		// concurrency (an explicit Workers=1, or a single-core host with
		// Workers unset, runs phased). Byte-identity between the two
		// modes is pinned by the Pipelined parity tests, so the choice is
		// purely about overlap.
		s.pipe = newPipe(s)
	} else {
		s.arenas = make([]*fragArena, cfg.Nodes+1)
		for i := range s.arenas {
			s.arenas[i] = acquireArena()
		}
		for n, ns := range s.nodes {
			ns.s.arena = s.arenas[n]
		}
		s.agg.arena = s.arenas[cfg.Nodes]
		s.feedErrs = make([]error, cfg.Nodes)
	}
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
// the window's offered load, and delivers through the server shards —
// pipelined (delivery of this window overlapping the next window's
// simulation) when the session has a pipe, phased otherwise.
func (s *Session) flushBuffered(span float64) error {
	cfg := &s.cfg
	if cfg.Timings != nil {
		s.stageStart = time.Now()
	}
	if s.pipe != nil {
		if err := s.pipe.flush(span); err != nil {
			return err
		}
		// Safe to rotate here even though delivery may still be running:
		// rotation only drops block references; the GC keeps each block
		// alive while any in-flight value still points into it.
		s.ingest.rotate()
		return nil
	}
	// A work-function panic on client-supplied input (a value of the
	// wrong element type, typically) surfaces as an error instead of
	// crashing the worker goroutine — Sessions feed on external data, so
	// it is classified as a bad arrival, not an engine failure.
	feedErrs := s.feedErrs
	for n := range feedErrs {
		feedErrs[n] = nil
	}
	runPool(poolWorkers(cfg, cfg.Nodes), cfg.Nodes, func(n int) {
		defer func() {
			if r := recover(); r != nil {
				feedErrs[n] = workPanicError(r, fmt.Sprintf("node %d", n))
			}
		}()
		if len(s.buf[n]) == 0 {
			return
		}
		s.nodes[n].feed(cfg, s.buf[n])
	})
	for _, err := range feedErrs {
		if err != nil {
			return err
		}
	}
	msgs := s.winMsgs[:0]
	for n, ns := range s.nodes {
		msgs = append(msgs, ns.s.msgs...)
		s.res.MsgsSent += ns.s.msgsSent
		s.res.PayloadBytes += ns.s.payloadBytes
		ns.s.msgs = ns.s.msgs[:0]
		ns.s.msgsSent, ns.s.payloadBytes = 0, 0
		s.buf[n] = s.buf[n][:0]
	}
	s.winMsgs = msgs
	s.buffered = 0
	out := s.agg.add(cfg, msgs, &s.res, s.winOut[:0])
	out = s.agg.flushComplete(cfg, &s.res, out)
	out = s.agg.flushExcess(cfg, &s.res, out)
	s.winOut = out
	if err := s.deliverWindow(out, span, nil); err != nil {
		return err
	}
	s.resetWindowStorage()
	s.ingest.rotate()
	return nil
}

// resetWindowStorage rewinds the phased path's per-window storage once
// the window's synchronous delivery is done: the delivered messages are
// dead, so the arenas and slices can be reused without ever re-entering
// the allocator.
func (s *Session) resetWindowStorage() {
	for _, a := range s.arenas {
		a.reset()
	}
	clearMessages(s.winMsgs)
	s.winMsgs = s.winMsgs[:0]
	clearMessages(s.winOut)
	s.winOut = s.winOut[:0]
}

// deliverWindow prices one window's message batch (always on the
// coordinator, in window order — the ratio is a global function of every
// shard's offered load) and delivers it: dispatched to the pipeline's
// shard workers when win is non-nil, synchronously otherwise.
func (s *Session) deliverWindow(out []message, span float64, win *windowBufs) error {
	// The node stage ends here even when the window has nothing to
	// deliver (all messages folded into pending reduce rounds) — accrue
	// its wall before any early return so StageTimings never drops it.
	if t := s.cfg.Timings; t != nil && !s.stageStart.IsZero() {
		t.addNode(time.Since(s.stageStart))
		s.stageStart = time.Time{}
	}
	if len(out) == 0 {
		if win != nil {
			s.pipe.recycle(win)
		}
		s.price(0, span, 0)
		return nil
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].time < out[j].time })
	air := 0
	for i := range out {
		air += out[i].air
	}
	ratio := s.price(air, span, len(out))
	if win != nil {
		return s.pipe.dispatch(out, ratio, win)
	}
	start := time.Now()
	err := s.plan.deliver(out, ratio)
	if t := s.cfg.Timings; t != nil {
		t.addDelivery(time.Since(start))
	}
	return err
}

// Close flushes the final window and any reduce rounds still pending,
// joins the pipeline, releases the pooled instances and arenas, and
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
	if s.pipe != nil {
		win := s.pipe.getWin()
		s.agg.arena = win.arenas[len(win.arenas)-1]
		tail := s.agg.flushAll(cfg, &s.res, win.out[:0])
		win.out = tail
		if err := s.deliverWindow(tail, s.lastSpan, win); err != nil {
			return nil, err
		}
	} else {
		tail := s.agg.flushAll(cfg, &s.res, s.winOut[:0])
		s.winOut = tail
		if err := s.deliverWindow(tail, s.lastSpan, nil); err != nil {
			return nil, err
		}
	}
	// The pipeline must drain before the shard counters are read.
	if err := s.joinPipe(); err != nil {
		return nil, err
	}
	for _, ns := range s.nodes {
		s.res.InputEvents += ns.inputEvents
		s.res.ProcessedEvents += ns.processedEvents
		s.res.NodeCPU += ns.busy
	}
	s.finish()
	s.plan.collect(&s.res)
	if t := cfg.Timings; t != nil {
		t.addWall(time.Since(s.started))
	}
	res := s.res
	return &res, nil
}

// Abort tears the session down without a result (error paths).
func (s *Session) Abort() { s.Close() }

// joinPipe drains every in-flight delivery and joins the pipeline's
// workers, once; afterwards all state is at the last flushed window
// boundary and the session runs no further windows.
func (s *Session) joinPipe() error {
	p := s.pipe
	if p == nil {
		return nil
	}
	s.pipe = nil
	return p.shutdown()
}

// release joins the pipeline if it is still up (error paths — a failure
// there already surfaced from the flush that hit it), returns the pooled
// instances and arenas to their owners and closes the delivery plan: the
// teardown Close and Snapshot share.
func (s *Session) release() {
	s.joinPipe()
	for _, inst := range s.insts {
		s.prog.ReleaseInstance(inst)
	}
	s.insts, s.nodes = nil, nil
	for _, a := range s.arenas {
		releaseArena(a)
	}
	s.arenas = nil
	s.plan.close()
}

// runStream is Run's streaming path: pull every node's arrival stream,
// merge by time, and push through a Session.
func runStream(cfg Config) (*Result, error) {
	sess, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	// On any error the session still closes, returning the pooled node
	// and shard instances to their Program.
	abort := func(err error) (*Result, error) {
		sess.Abort()
		return nil, err
	}
	streams := make([]Stream, cfg.Nodes)
	heads := make([]Arrival, cfg.Nodes)
	live := make([]bool, cfg.Nodes)
	for n := range streams {
		st, err := cfg.ArrivalSource(n)
		if err != nil {
			return abort(err)
		}
		if st == nil {
			return abort(fmt.Errorf("runtime: node %d has no arrival stream", n))
		}
		streams[n] = st
		heads[n], live[n] = st.Next()
	}
	for {
		best := -1
		for n := range heads {
			// A head at or past Duration ends its stream: times are
			// nondecreasing, so nothing useful follows — without this an
			// endless generator-style Stream would hang Run.
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
			break
		}
		if err := sess.Offer(best, heads[best]); err != nil {
			return abort(err)
		}
		heads[best], live[best] = streams[best].Next()
	}
	return sess.Close()
}
