package runtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wishbone/internal/dataflow"
)

// hookedApp builds src → pre (node side) → post (server side) → sink, with
// onPre/onPost called from inside the two work functions: the tests below
// observe when, and how many at once, the session runs each stage.
func hookedApp(t *testing.T, onPre, onPost func()) (*dataflow.Graph, *dataflow.Operator, map[int]bool) {
	t.Helper()
	g := dataflow.New()
	src := g.Add(&dataflow.Operator{Name: "src", NS: dataflow.NSNode, SideEffect: true})
	pre := g.Add(&dataflow.Operator{Name: "pre", NS: dataflow.NSNode,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			onPre()
			emit(v)
		}})
	post := g.Add(&dataflow.Operator{Name: "post", NS: dataflow.NSNode,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {
			onPost()
			emit(v)
		}})
	sink := g.Add(&dataflow.Operator{Name: "sink", NS: dataflow.NSServer, SideEffect: true,
		Work: func(ctx *dataflow.Ctx, _ int, v dataflow.Value, emit dataflow.Emit) {}})
	g.Chain(src, pre, post, sink)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g, src, map[int]bool{src.ID(): true, pre.ID(): true}
}

// offerWindows offers perWindow arrivals per node in each of windows
// one-second windows, nodes interleaved.
func offerWindows(t *testing.T, sess *Session, src *dataflow.Operator, nodes, windows, perWindow int) {
	t.Helper()
	for k := 0; k < windows*perWindow; k++ {
		for n := 0; n < nodes; n++ {
			a := Arrival{Time: float64(k) / float64(perWindow), Source: src, Value: []float64{float64(k)}}
			if err := sess.Offer(n, a); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSessionDeliveryOverlapsIngest pins the one overlap a Session has, at
// Workers=1 too: while window w's delivery is stuck inside a server-side
// work function, the caller keeps buffering window w+1; the flush that ends
// w+1 waits for that delivery before its node feed starts.
func TestSessionDeliveryOverlapsIngest(t *testing.T) {
	var fed atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	var enterOnce, releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()
	g, src, onNode := hookedApp(t,
		func() { fed.Add(1) },
		func() {
			enterOnce.Do(func() { close(entered) })
			<-release
		})
	sess, err := NewSession(Config{
		Graph: g, OnNode: onNode, Platform: losslessPlatform(),
		Nodes: 1, Duration: 3, WindowSeconds: 1, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// offer runs one Offer on its own goroutine, so a blocked one fails the
	// test instead of hanging it.
	offer := func(at float64) chan error {
		done := make(chan error, 1)
		go func() { done <- sess.Offer(0, Arrival{Time: at, Source: src, Value: []float64{at}}) }()
		return done
	}
	returns := func(done chan error, what string) {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not return", what)
		}
	}
	returns(offer(0), "window 0's first Offer")
	returns(offer(0.5), "window 0's second Offer")
	// Crossing into window 1 flushes window 0, whose delivery blocks.
	returns(offer(1), "the Offer that flushes window 0 (its delivery is blocked)")
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("window 0 was never delivered")
	}
	returns(offer(1.5), "an Offer during window 0's delivery")
	if got := fed.Load(); got != 2 {
		t.Fatalf("%d node-side elements ran, want window 0's 2", got)
	}
	// Crossing into window 2 flushes window 1: it must wait, feed untouched.
	flush := offer(2)
	select {
	case err := <-flush:
		t.Fatalf("window 1 flushed while window 0 was still delivering (err %v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	if got := fed.Load(); got != 2 {
		t.Fatalf("window 1's node feed started during window 0's delivery (%d elements ran)", got)
	}
	unblock()
	returns(flush, "the Offer that flushes window 1")
	if got := fed.Load(); got != 4 {
		t.Fatalf("%d node-side elements ran after window 1's flush, want 4", got)
	}
	res, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.ProcessedEvents != 5 || res.ServerEmits == 0 {
		t.Fatalf("degenerate run %+v", *res)
	}
}

// TestSessionWorkerBound pins the isolation bound the partition service's
// SimWorkers relies on: node-side and server-side work functions together
// never run on more than Config.Workers goroutines at once, because the
// previous window's delivery is joined before the next feed starts.
func TestSessionWorkerBound(t *testing.T) {
	var active, peak atomic.Int64
	work := func() {
		n := active.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(50 * time.Microsecond) // long enough for stages to collide
		active.Add(-1)
	}
	g, src, onNode := hookedApp(t, work, work)
	for _, workers := range []int{1, 2} {
		peak.Store(0)
		sess, err := NewSession(Config{
			Graph: g, OnNode: onNode, Platform: losslessPlatform(),
			Nodes: 8, Shards: 4, Workers: workers, Duration: 6, WindowSeconds: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		offerWindows(t, sess, src, 8, 6, 4)
		res, err := sess.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.ServerEmits == 0 {
			t.Fatalf("workers=%d: nothing delivered: %+v", workers, *res)
		}
		if got := peak.Load(); got < 1 || got > int64(workers) {
			t.Fatalf("workers=%d: %d work functions ran at once", workers, got)
		}
	}
}

// TestStageTimingsSession pins what a streamed run's StageTimings mean: on
// a delivery-heavy run the node stage is not billed the wait for the
// previous window's delivery, and the deliveries — one at a time — fit in
// the wall.
func TestStageTimingsSession(t *testing.T) {
	g, src, onNode := hookedApp(t, func() {}, func() { time.Sleep(200 * time.Microsecond) })
	timings := &StageTimings{}
	sess, err := NewSession(Config{
		Graph: g, OnNode: onNode, Platform: losslessPlatform(),
		Nodes: 4, Shards: 2, Workers: 2, Duration: 6, WindowSeconds: 1,
		Timings: timings,
	})
	if err != nil {
		t.Fatal(err)
	}
	offerWindows(t, sess, src, 4, 6, 8)
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	node, deliver, wall := timings.NodeSeconds(), timings.DeliverySeconds(), timings.WallSeconds()
	if deliver <= 0 || node >= 0.5*deliver {
		t.Fatalf("node stage %.4fs is not well under delivery %.4fs", node, deliver)
	}
	if deliver > wall {
		t.Fatalf("delivery %.4fs exceeds the wall %.4fs", deliver, wall)
	}
}
