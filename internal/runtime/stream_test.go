package runtime

import (
	"testing"

	"wishbone/internal/dataflow"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/wire"
)

// losslessPlatform is a WiFi-class platform with zero baseline loss and a
// huge channel, so delivery is exact and assertions can count elements.
func losslessPlatform() *platform.Platform {
	p := platform.Gumstix()
	p.Name = "TestLossless"
	p.Radio.BaselineLoss = 0
	p.Radio.BytesPerSec = 1e9
	p.Radio.CollapseBytesPerSec = 2e9
	return p
}

// streamApp builds src → feat → counts(server, with snapshot hooks) plus
// src → sum(reduce) → report(server): one plain cut edge into a relocated
// stateful operator and one in-network aggregation edge. Work functions
// charge no CPU cost, so every offered event is processed and the message
// stream is exactly periodic — the steady-rate case where streaming
// windows price exactly the batch path's mean load.
func streamApp() (*dataflow.Graph, *dataflow.Operator, map[int]bool) {
	g := dataflow.New()
	src := g.Add(&dataflow.Operator{Name: "src", NS: dataflow.NSNode, SideEffect: true})
	feat := g.Add(&dataflow.Operator{Name: "feat", NS: dataflow.NSNode,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			w := v.([]float64)
			emit([]float64{w[0], w[0] * 2, 3, 4})
		}})
	counts := g.Add(&dataflow.Operator{
		Name: "counts", NS: dataflow.NSNode, Stateful: true,
		NewState: func() any { return new(int) },
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			n := ctx.State.(*int)
			*n++
			emit(*n)
		},
		SaveState: func(st any) ([]byte, error) {
			w := wire.NewSnapshotWriter()
			w.Int(int64(*st.(*int)))
			return w.Bytes(), nil
		},
		LoadState: func(data []byte) (any, error) {
			r, err := wire.NewSnapshotReader(data)
			if err != nil {
				return nil, err
			}
			n := new(int)
			*n = int(r.Int())
			return n, r.Err()
		},
	})
	sum := g.Add(&dataflow.Operator{
		Name: "sum", NS: dataflow.NSNode, Reduce: true,
		Combine: func(a, b dataflow.Value) dataflow.Value {
			return []float64{a.([]float64)[0] + b.([]float64)[0]}
		},
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			emit([]float64{v.([]float64)[0]})
		},
	})
	sink := g.Add(&dataflow.Operator{Name: "sink", NS: dataflow.NSServer, SideEffect: true,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {}})
	report := g.Add(&dataflow.Operator{Name: "report", NS: dataflow.NSServer, SideEffect: true,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {}})
	g.Connect(src, feat, 0)
	g.Connect(feat, counts, 0)
	g.Connect(counts, sink, 0)
	g.Connect(src, sum, 0)
	g.Connect(sum, report, 0)
	onNode := map[int]bool{src.ID(): true, feat.ID(): true, sum.ID(): true}
	return g, src, onNode
}

func streamInputs(src *dataflow.Operator, rate float64) []profile.Input {
	return []profile.Input{{Source: src, Events: []dataflow.Value{[]float64{5, 7}}, Rate: rate}}
}

// TestStreamingMatchesBatchUniform pins streaming ingestion against the
// batch path: with a steady-rate trace whose period (1/4 s) divides the
// window (16 s) and the duration (64 s) — all powers of two, so the
// per-window and whole-run mean loads are the same float64 — the Results
// must be byte-identical, at any shard count on either path.
func TestStreamingMatchesBatchUniform(t *testing.T) {
	g, src, onNode := streamApp()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	inputs := streamInputs(src, 4)
	// Duration 64 exercises whole windows only; 24 ends on a partial
	// window ([16,24), span 8) whose messages must be priced over the
	// remaining span — per-second load stays uniform, so parity holds.
	for _, duration := range []float64{64, 24} {
		base := Config{
			Graph: g, OnNode: onNode, Platform: platform.TMoteSky(),
			Nodes: 4, Duration: duration, Seed: 11,
			Inputs: func(nodeID int) []profile.Input { return inputs },
		}
		batch, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		if batch.MsgsSent == 0 || batch.MsgsReceived == 0 {
			t.Fatalf("degenerate batch run: %+v", *batch)
		}

		stream := base
		stream.Inputs = nil
		stream.WindowSeconds = 16
		stream.ArrivalSource = func(nodeID int) (Stream, error) {
			return InputStream(inputs, 1, duration)
		}
		for _, shards := range []int{0, 3} {
			stream.Shards = shards
			got, err := Run(stream)
			if err != nil {
				t.Fatal(err)
			}
			if *got != *batch {
				t.Fatalf("streaming (duration=%g, shards=%d) diverges from batch:\nbatch:  %+v\nstream: %+v",
					duration, shards, *batch, *got)
			}
		}
	}
}

// TestStreamingBoundedMemory asserts the streaming working set is a
// function of the window, not the trace duration: quadrupling the
// simulated span leaves the peak number of buffered arrivals unchanged.
func TestStreamingBoundedMemory(t *testing.T) {
	g, src, onNode := streamApp()
	run := func(duration float64) (int, *Result) {
		cfg := Config{
			Graph: g, OnNode: onNode, Platform: losslessPlatform(),
			Nodes: 1, Duration: duration, Seed: 5, WindowSeconds: 16,
		}
		sess, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := InputStream(streamInputs(src, 4), 1, duration)
		if err != nil {
			t.Fatal(err)
		}
		for a, ok := st.Next(); ok; a, ok = st.Next() {
			if err := sess.Offer(0, a); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		return sess.PeakBuffered(), res
	}
	peakShort, short := run(1024)
	peakLong, long := run(4096)
	if long.InputEvents != 4*short.InputEvents {
		t.Fatalf("long trace offered %d events, want %d", long.InputEvents, 4*short.InputEvents)
	}
	if peakShort != peakLong {
		t.Fatalf("peak buffered arrivals grew with duration: %d (1024s) vs %d (4096s)", peakShort, peakLong)
	}
	if peakLong > 4*16+1 {
		t.Fatalf("peak buffered arrivals %d exceeds one window of arrivals", peakLong)
	}
}

// TestStreamingSparseGap pins the window-clock jump: an arrival gap of
// millions of (tiny) windows must advance in one step, not one empty
// flush per window — window size is client-controlled on the HTTP
// endpoint, so a per-window loop would be a spin vector.
func TestStreamingSparseGap(t *testing.T) {
	g, src, onNode := streamApp()
	sess, err := NewSession(Config{
		Graph: g, OnNode: onNode, Platform: losslessPlatform(),
		Nodes: 1, Duration: 7200, Seed: 2, WindowSeconds: 1e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []float64{0, 3600, 7199} { // gaps of 3.6M windows
		if err := sess.Offer(0, Arrival{Time: at, Source: src, Value: []float64{1, 2}}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.InputEvents != 3 || res.ProcessedEvents != 3 {
		t.Fatalf("offered/processed %d/%d, want 3/3", res.InputEvents, res.ProcessedEvents)
	}
}

// TestStreamingPendingRoundsBounded pins the reduce-round cap: a node
// that never emits on a reduce edge must not hold every other node's
// rounds open for the whole stream. Past maxPendingRounds the oldest
// rounds force-flush without the missing contribution.
func TestStreamingPendingRoundsBounded(t *testing.T) {
	g, src, sum := reduceApp()
	onNode := map[int]bool{src.ID(): true, sum.ID(): true}
	const duration = 2000.0
	sess, err := NewSession(Config{
		Graph: g, OnNode: onNode, Platform: losslessPlatform(),
		Nodes: 2, Duration: duration, Seed: 4, WindowSeconds: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := InputStream(reduceInputs(src)(0), 1, duration)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 stays silent: without the cap, node 0's 4000 rounds would
	// all pend until Close.
	for a, ok := st.Next(); ok; a, ok = st.Next() {
		if err := sess.Offer(0, a); err != nil {
			t.Fatal(err)
		}
	}
	for _, pend := range sess.agg.pending {
		if len(pend) > maxPendingRounds {
			t.Fatalf("pending rounds grew to %d (> %d): silent node holds state open", len(pend), maxPendingRounds)
		}
	}
	res, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := int(duration * 2) // rate 2/s
	if res.InputEvents != want || res.DeliveredBytes == 0 {
		t.Fatalf("offered %d (want %d), delivered %dB", res.InputEvents, want, res.DeliveredBytes)
	}
}

// TestLongTraceSeqWrap drives a single cut edge through several uint16
// sender-sequence wraps (131072 elements) on a lossless channel: every
// element must still be delivered and decoded exactly — the wrap is
// benign while at most one element per stream is in flight, which this
// pins. Hour-plus traces at tens of events per second (exactly what
// streaming ingestion enables) cross the wrap in normal operation.
func TestLongTraceSeqWrap(t *testing.T) {
	g := dataflow.New()
	src := g.Add(&dataflow.Operator{Name: "src", NS: dataflow.NSNode, SideEffect: true})
	feat := g.Add(&dataflow.Operator{Name: "feat", NS: dataflow.NSNode,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) { emit(v) }})
	var got int
	sink := g.Add(&dataflow.Operator{Name: "sink", NS: dataflow.NSServer, SideEffect: true,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) { got++ }})
	g.Chain(src, feat, sink)
	onNode := map[int]bool{src.ID(): true, feat.ID(): true}

	const duration = 4096.0
	const rate = 32.0
	inputs := []profile.Input{{Source: src, Events: []dataflow.Value{[]float64{1, 2, 3}}, Rate: rate}}
	res, err := Run(Config{
		Graph: g, OnNode: onNode, Platform: losslessPlatform(),
		Nodes: 1, Duration: duration, Seed: 9, WindowSeconds: 64,
		ArrivalSource: func(nodeID int) (Stream, error) {
			return InputStream(inputs, 1, duration)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int(duration * rate) // 131072: two full uint16 wraps
	if res.InputEvents != want || res.ProcessedEvents != want {
		t.Fatalf("offered/processed %d/%d, want %d", res.InputEvents, res.ProcessedEvents, want)
	}
	if res.MsgsReceived != res.MsgsSent {
		t.Fatalf("lost %d of %d packets on a lossless channel (seq-wrap aliasing?)",
			res.MsgsSent-res.MsgsReceived, res.MsgsSent)
	}
	if got != want {
		t.Fatalf("server decoded %d elements, want %d", got, want)
	}
	if res.DeliveredBytes != res.PayloadBytes {
		t.Fatalf("delivered %dB of %dB payload on a lossless channel", res.DeliveredBytes, res.PayloadBytes)
	}
}
