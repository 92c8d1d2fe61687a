package runtime

import (
	"errors"
	"testing"
)

// TestSessionBackpressure pins the typed backpressure bound: a stream
// that pours arrivals into one window past Config.MaxBufferedArrivals
// must fail the Offer with ErrBackpressure (the partition service maps
// this to 429), not grow without bound and not report a client fault.
func TestSessionBackpressure(t *testing.T) {
	g, src, onNode := streamApp()
	sess, err := NewSession(Config{
		Graph: g, OnNode: onNode, Platform: losslessPlatform(),
		Nodes: 1, Duration: 1000, WindowSeconds: 1000,
		MaxBufferedArrivals: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got error
	for i := 0; i < 9; i++ {
		if got = sess.Offer(0, Arrival{Time: 0, Source: src, Value: []float64{1, 2}}); got != nil {
			break
		}
	}
	if !errors.Is(got, ErrBackpressure) {
		t.Fatalf("overflowing the window buffer returned %v, want ErrBackpressure", got)
	}
	if errors.Is(got, ErrBadArrival) {
		t.Fatalf("backpressure must not be classified as a bad arrival: %v", got)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}
