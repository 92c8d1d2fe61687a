package runtime_test

import (
	"errors"
	"testing"

	"wishbone/internal/apps/speech"
	"wishbone/internal/platform"
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
