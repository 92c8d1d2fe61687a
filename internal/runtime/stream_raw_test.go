package runtime_test

import (
	"encoding/json"
	"errors"
	"testing"

	"wishbone/internal/apps/speech"
	"wishbone/internal/platform"
	"wishbone/internal/profile"
	"wishbone/internal/runtime"
)

// rawStreamConfig is the shared fixture: a speech pipeline cut after the
// source, several windows, sharded delivery — the configuration the
// streaming endpoint runs.
func rawStreamConfig(app *speech.App) runtime.Config {
	return runtime.Config{
		Graph:         app.Graph,
		OnNode:        speechCutOnNode(app, 1),
		Platform:      platform.TMoteSky(),
		Nodes:         3,
		Duration:      30,
		Shards:        2,
		Workers:       2,
		WindowSeconds: 10,
		Seed:          11,
	}
}

// mergedArrivals materializes the globally time-ordered arrival sequence
// runStream would feed: per-node trace streams merged by runtime.Feed.
func mergedArrivals(t *testing.T, app *speech.App, cfg runtime.Config) (nodes []int, arrs []runtime.Arrival) {
	cfg.Inputs = func(nodeID int) []profile.Input {
		return []profile.Input{app.SampleTrace(int64(4000+nodeID), 2.0)}
	}
	rec := &recordingSink{}
	if err := runtime.Feed(rec, &cfg); err != nil {
		t.Fatal(err)
	}
	return rec.nodes, rec.arrs
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
// through Offer.
func TestOfferRawParity(t *testing.T) {
	app := speech.New()
	cfg := rawStreamConfig(app)
	nodes, arrs := mergedArrivals(t, app, cfg)
	if len(arrs) == 0 {
		t.Fatal("no arrivals generated")
	}

	sessA, err := runtime.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range arrs {
		if err := sessA.Offer(nodes[i], a); err != nil {
			t.Fatal(err)
		}
	}
	want, err := sessA.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want.MsgsSent == 0 {
		t.Fatalf("degenerate reference run %+v", *want)
	}

	sessB, err := runtime.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range arrs {
		raw, err := json.Marshal(a.Value)
		if err != nil {
			t.Fatal(err)
		}
		if err := sessB.OfferRaw(nodes[i], a.Time, a.Source, "i16s", raw); err != nil {
			t.Fatal(err)
		}
	}
	got, err := sessB.Close()
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("OfferRaw diverged from Offer:\nwant: %+v\ngot:  %+v", *want, *got)
	}
}

// TestOfferRawErrors pins OfferRaw's error classification: arrival faults
// (bad node, non-source operator, malformed value — even one beyond the
// simulated duration) are ErrBadArrival; in-range well-formed arrivals
// beyond the duration are silently dropped.
func TestOfferRawErrors(t *testing.T) {
	app := speech.New()
	cfg := rawStreamConfig(app)
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
