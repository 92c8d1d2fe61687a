package runtime_test

import (
	"bytes"
	"errors"
	"testing"

	"wishbone/internal/apps/speech"
	"wishbone/internal/dataflow"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
)

// rawStreamCase is the shared fixture: a speech pipeline cut after the
// source, several windows, sharded delivery — the configuration the
// streaming endpoint runs.
func rawStreamCase(t *testing.T, app *speech.App) *schedCase {
	c := speechRun(app, platform.TMoteSky(), 1, 3, 30, 11, 4000, 2)
	c.cfg.Shards, c.cfg.Workers, c.cfg.WindowSeconds = 2, 2, 10
	c.feed = mergedFeed(t, c.cfg.Nodes, c.cfg.Duration, c.inputs)
	return c
}

// recordingSink is the ArrivalSink that keeps what Feed offers it.
type recordingSink struct {
	nodes []int
	arrs  []runtime.Arrival
}

func (r *recordingSink) Offer(nodeID int, a runtime.Arrival) error {
	r.nodes = append(r.nodes, nodeID)
	r.arrs = append(r.arrs, a)
	return nil
}

// TestOfferRawParity pins the zero-copy ingestion path end to end: a
// session fed raw JSON through OfferRaw must produce a Result
// byte-identical to one fed the same arrivals as materialized values
// through Offer (both held to the reference engine).
func TestOfferRawParity(t *testing.T) {
	at := place{shards: 2, workers: 2}
	rawStreamCase(t, speech.New()).expect(t, sends, schedule{start: at}, schedule{start: at, raw: true})
}

// reuseCase is a raw-fed run over src → op → sink with op relocated to
// the server: two nodes, 1 s windows, ten arrivals a second whose
// 20-sample values are distinct per window — sample 0 is the window
// index, 1 the node, 2 the arrival's index — so a value carved again from
// another window's storage never matches by coincidence.
func reuseCase(t *testing.T, name string, op *dataflow.Operator) *schedCase {
	g := dataflow.New()
	src := g.Add(&dataflow.Operator{Name: "src", NS: dataflow.NSNode, SideEffect: true})
	sink := g.Add(&dataflow.Operator{Name: "sink", NS: dataflow.NSServer, SideEffect: true,
		Work: func(*dataflow.Ctx, int, dataflow.Value, dataflow.Emit) {}})
	g.Chain(src, g.Add(op), sink)
	const nodes, duration, rate = 2, 12, 10
	cfg := runtime.Config{
		Graph: g, OnNode: map[int]bool{src.ID(): true}, Platform: platform.Gumstix(),
		Nodes: nodes, Duration: duration, WindowSeconds: 1, Seed: 5,
	}
	return inputCase(t, name, cfg, func(n int) []profile.Input {
		events := make([]dataflow.Value, duration*rate)
		for k := range events {
			v := make([]int16, 20)
			v[0], v[1], v[2] = int16(k/rate), int16(n), int16(k)
			for j := 3; j < len(v); j++ {
				v[j] = int16(k*j + n)
			}
			events[k] = v
		}
		return []profile.Input{{Source: src, Events: events, Rate: rate}}
	})
}

// TestOfferRawReuseGuards holds the two conditions under which a session
// carves an arrival's storage again to value-for-value rows: a raw-fed
// run must equal the reference engine fed the same values.
//
//   - keeping-operator: a stateful server-side operator that does not
//     Borrows emits each arrival a window after receiving it; the proof
//     fails, so nothing is reused (the sink digest would show it).
//   - pinning-tail: a host is lost with recovery every 3 windows, and the
//     replacement replays the tail; a borrowing operator emits 1 + window
//     mod 7 elements per arrival, so ServerEmits shows a replayed window
//     whose storage was carved again before the checkpoint dropped it.
//
// CI runs both against testdata/mutants/arena.go, which reuses
// unconditionally, and requires both to fail there.
func TestOfferRawReuseGuards(t *testing.T) {
	t.Parallel()
	t.Run("keeping-operator", func(t *testing.T) {
		const lag = 10 // arrivals per node and window
		c := reuseCase(t, "keeping-operator", &dataflow.Operator{
			Name: "late", NS: dataflow.NSNode, Stateful: true,
			NewState: func() any { return new([]dataflow.Value) },
			Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
				held := ctx.State.(*[]dataflow.Value)
				*held = append(*held, v)
				if len(*held) > lag {
					emit((*held)[0])
					*held = (*held)[1:]
				}
			},
		})
		c.expect(t, delivers, schedule{raw: true},
			schedule{start: place{parts: runtime.PartitionOrigins(c.cfg.Nodes, 2), shards: 2, workers: 2}, raw: true})
	})
	t.Run("pinning-tail", func(t *testing.T) {
		c := reuseCase(t, "pinning-tail", &dataflow.Operator{
			Name: "count", NS: dataflow.NSNode, Borrows: true,
			Work: func(_ *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
				for i := range 1 + v.([]int16)[0]%7 {
					emit(int64(i))
				}
			},
		})
		fired := 0
		for _, op := range []string{"compute", "deliver"} {
			for _, after := range []int{4, 5, 7, 8} {
				sc := lossAt(c, 3, 0, op, after)
				sc.raw = true
				fired += len(c.verify(t, nil, sc)[0].fired)
			}
		}
		if fired == 0 {
			t.Fatal("no fuse ever fired; the row tested nothing")
		}
	})
}

// TestOfferRawPartialOutlivesWindow: a partial element is the one value
// delivery keeps past its window. Node 0 sends only in the first half of
// window 0 over TMote's lossy two-fragment channel, and its last element
// (seed 5) arrives partial; the partial waits while node 1's window 2
// carves window 0's block again over it. The snapshot taken in window 3
// must still hold that partial's bytes — the same snapshot a session fed
// values instead of raw JSON takes.
func TestOfferRawPartialOutlivesWindow(t *testing.T) {
	c := reuseCase(t, "partial", &dataflow.Operator{
		Name: "count", NS: dataflow.NSNode, Borrows: true,
		Work: func(_ *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) { emit(int64(len(v.([]int16)))) },
	})
	c.cfg.Platform = platform.TMoteSky()
	snapshot := func(raw bool) []byte {
		sess, err := runtime.NewSession(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := &runner{sess: sess, sc: schedule{raw: raw}}
		for _, f := range c.feed {
			if f.a.Time >= 3.5 {
				break
			}
			if f.node == 0 && f.a.Time >= 0.5 {
				continue
			}
			if err := r.offer(f); err != nil {
				t.Fatal(err)
			}
		}
		data, err := sess.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(snapshot(true), snapshot(false)) {
		t.Fatal("the raw-fed session's snapshot differs from the value-fed one's")
	}
}

// TestOfferRawErrors pins OfferRaw's error classification: arrival faults
// (bad node, non-source operator, malformed value — even one beyond the
// simulated duration) are ErrBadArrival; in-range well-formed arrivals
// beyond the duration are silently dropped.
func TestOfferRawErrors(t *testing.T) {
	app := speech.New()
	cfg := rawStreamCase(t, app).cfg
	sess, err := runtime.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	src := app.Pipeline[0]
	good := []byte("[1,2,3]")

	if err := sess.OfferRaw(99, 0, src, "i16s", good); !errors.Is(err, runtime.ErrBadArrival) {
		t.Errorf("bad node: got %v, want ErrBadArrival", err)
	}
	if err := sess.OfferRaw(0, 0, app.Pipeline[2], "i16s", good); !errors.Is(err, runtime.ErrBadArrival) {
		t.Errorf("non-source operator: got %v, want ErrBadArrival", err)
	}
	if err := sess.OfferRaw(0, 1, src, "i16s", []byte("[1.5]")); !errors.Is(err, runtime.ErrBadArrival) {
		t.Errorf("malformed value: got %v, want ErrBadArrival", err)
	}
	if err := sess.OfferRaw(0, 1, src, "huh", good); !errors.Is(err, runtime.ErrBadArrival) {
		t.Errorf("unknown type hint: got %v, want ErrBadArrival", err)
	}
	if err := sess.OfferRaw(0, cfg.Duration+1, src, "i16s", []byte("[bad")); !errors.Is(err, runtime.ErrBadArrival) {
		t.Errorf("beyond-duration malformed value: got %v, want ErrBadArrival", err)
	}
	if err := sess.OfferRaw(0, cfg.Duration+2, src, "i16s", good); err != nil {
		t.Errorf("beyond-duration good value: got %v, want drop", err)
	}
	if err := sess.OfferRaw(0, 1, src, "i16s", good); !errors.Is(err, runtime.ErrBadArrival) {
		t.Errorf("out-of-order after watermark advance: got %v, want ErrBadArrival", err)
	}
}

// tickStream is an endless generator-style Stream: one arrival every
// period seconds, forever.
type tickStream struct {
	period float64
	k      int
}

func (s *tickStream) Next() (runtime.Arrival, bool) {
	a := runtime.Arrival{Time: float64(s.k) * s.period}
	s.k++
	return a, true
}

// TestFeedOrderAndDurationCut pins the one merge every placement feeds
// through: the strictly-earliest head is offered first, the lowest node
// index wins ties, and a head at or past Duration ends its stream — so
// endless generators terminate instead of hanging the run.
func TestFeedOrderAndDurationCut(t *testing.T) {
	periods := []float64{1, 0.5, 1}
	cfg := runtime.Config{
		Nodes:    len(periods),
		Duration: 3,
		ArrivalSource: func(nodeID int) (runtime.Stream, error) {
			return &tickStream{period: periods[nodeID]}, nil
		},
	}
	rec := &recordingSink{}
	if err := runtime.Feed(rec, &cfg); err != nil {
		t.Fatal(err)
	}
	wantNodes := []int{0, 1, 2, 1, 0, 1, 2, 1, 0, 1, 2, 1}
	wantTimes := []float64{0, 0, 0, 0.5, 1, 1, 1, 1.5, 2, 2, 2, 2.5}
	if len(rec.nodes) != len(wantNodes) {
		t.Fatalf("fed %d arrivals (nodes %v), want %d", len(rec.nodes), rec.nodes, len(wantNodes))
	}
	for i := range wantNodes {
		if rec.nodes[i] != wantNodes[i] || rec.arrs[i].Time != wantTimes[i] {
			t.Fatalf("offer %d = node %d at t=%g, want node %d at t=%g",
				i, rec.nodes[i], rec.arrs[i].Time, wantNodes[i], wantTimes[i])
		}
	}

	// Neither source set is a caller error, not an empty run.
	if err := runtime.Feed(rec, &runtime.Config{Nodes: 1, Duration: 1}); err == nil {
		t.Fatal("Feed accepted a config with neither Inputs nor ArrivalSource")
	}
}
