package runtime

import (
	"errors"
	"fmt"

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
// supplies) into a Stream: the one merge of a node's inputs, which the
// batch path drains up front (buildArrivals) and streaming callers lazily,
// one element at a time.
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
		// Strict < keeps the earliest input on ties, so synchronized
		// sensors interleave in input order.
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

// NewSession validates cfg and binds a Session to one in-process
// ShardHost owning every origin — the single-host placement of the one
// window loop. cfg.Inputs, Duration-derived arrival building and the
// replay fast path do not apply; arrivals come from Offer.
func NewSession(cfg Config) (*Session, error) {
	h, err := NewShardHost(cfg, PartitionOrigins(cfg.Nodes, 1)[0])
	return bindLocal(h, err, func(hosts []HostBinding) (*Session, error) {
		return NewDistSession(cfg, hosts)
	})
}

// bindLocal binds a coordinator to h, the one in-process host owning
// every origin, if opening it succeeded; h aborts when the bind fails.
func bindLocal(h *ShardHost, err error, bind func([]HostBinding) (*Session, error)) (*Session, error) {
	if err != nil {
		return nil, err
	}
	s, err := bind([]HostBinding{{Driver: h, Origins: h.origins}})
	if err != nil {
		h.Abort()
		return nil, err
	}
	return s, nil
}

// OfferRaw feeds one arrival whose value is still raw JSON, decoding it
// into the session's ingest arena — this is the zero-copy path behind
// /v1/simulate/stream, which would otherwise allocate a fresh value per
// arrival. The decode runs after any window flush the arrival triggers,
// so the carved value belongs to the window that will consume it; a
// dropped arrival's value must still validate, matching the
// decode-then-Offer behavior. raw is not retained; callers may reuse the
// buffer immediately.
func (s *Session) OfferRaw(nodeID int, t float64, src *dataflow.Operator, typ string, raw []byte) error {
	return s.offer(nodeID, t, src, func(drop bool) (dataflow.Value, error) {
		v, err := s.ingest.decode(typ, raw, drop)
		if err != nil {
			return nil, fmt.Errorf("runtime: %v: %w", err, ErrBadArrival)
		}
		return v, nil
	})
}

// runStream is Run's streaming path: Feed the merged arrivals through a
// Session.
func runStream(cfg Config) (*Result, error) {
	sess, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	if err := Feed(sess, &cfg); err != nil {
		// Abort returns the node and shard instances to their Program.
		sess.Abort()
		return nil, err
	}
	return sess.Close()
}

// ArrivalSink is what Feed offers the merged arrival sequence to: every
// Session, local or distributed, controlled or not, takes it through the
// same Offer.
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
