package runtime

import (
	"sync/atomic"
	"time"
)

// StageTimings, attached via Config.Timings, measures where a simulation's
// wall clock goes: the node stage (per-node dataflow execution plus reduce
// aggregation and channel pricing — a streaming window's compute and fold)
// versus server-side delivery (the one phase of a batch run, each window's
// deliver span in a streaming one). A Session's two stages never run at
// once (window w's deliveries are joined before window w+1's compute, and
// the wait is billed to neither), so node+delivery exceeds the wall only by
// clock jitter; what a delivery does overlap is the caller's ingest of the
// next window, which is in WallSeconds (recorded at Close) but in neither
// stage.
//
// Counters are atomic (a window delivers behind the caller) and accumulate
// across runs; Reset between measurements. The zero value is ready to use.
type StageTimings struct {
	nodeNS     atomic.Int64
	deliveryNS atomic.Int64
	wallNS     atomic.Int64
}

func (t *StageTimings) addNode(d time.Duration)     { t.nodeNS.Add(int64(d)) }
func (t *StageTimings) addDelivery(d time.Duration) { t.deliveryNS.Add(int64(d)) }
func (t *StageTimings) addWall(d time.Duration)     { t.wallNS.Add(int64(d)) }

// NodeSeconds is the accumulated node-stage wall clock.
func (t *StageTimings) NodeSeconds() float64 { return float64(t.nodeNS.Load()) / 1e9 }

// DeliverySeconds is the accumulated delivery-stage wall clock.
func (t *StageTimings) DeliverySeconds() float64 { return float64(t.deliveryNS.Load()) / 1e9 }

// WallSeconds is the accumulated end-to-end run time.
func (t *StageTimings) WallSeconds() float64 { return float64(t.wallNS.Load()) / 1e9 }

// OverlapSeconds is how much node and delivery work ran concurrently:
// max(0, node+delivery−wall). Every shipped run serializes its stages and
// reports ~0.
func (t *StageTimings) OverlapSeconds() float64 {
	ov := t.NodeSeconds() + t.DeliverySeconds() - t.WallSeconds()
	if ov < 0 {
		return 0
	}
	return ov
}
