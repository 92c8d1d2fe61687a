package speech

import (
	"wishbone/internal/apps/kernel"
	"wishbone/internal/dataflow"
	"wishbone/internal/wire"
)

// Operator-state snapshot codecs (see the EEG app's counterpart): wired
// onto the two stateful operators by concrete state type, so a mid-stream
// speech session can be snapshotted and resumed byte-identically.
func attachSnapshotCodecs(g *dataflow.Graph) {
	for _, op := range g.Operators() {
		if !op.Stateful || op.NewState == nil {
			continue
		}
		switch op.NewState().(type) {
		case *preemphState:
			op.SaveState, op.LoadState = wire.StateHooks(func(c *wire.Codec, s *preemphState) {
				c.F64(&s.prev)
			})
		case *prefiltState:
			op.SaveState, op.LoadState = wire.StateHooks(func(c *wire.Codec, s *prefiltState) {
				kernel.WalkFIR(c, &s.fir, len(prefiltCoeffs))
			})
		}
	}
}
