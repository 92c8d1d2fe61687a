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
			op.SaveState = func(st any) ([]byte, error) {
				w := wire.NewSnapshotWriter()
				w.F64(st.(*preemphState).prev)
				return w.Bytes(), nil
			}
			op.LoadState = func(data []byte) (any, error) {
				r, err := wire.NewSnapshotReader(data)
				if err != nil {
					return nil, err
				}
				return &preemphState{prev: r.F64()}, r.Err()
			}
		case *prefiltState:
			op.SaveState = func(st any) ([]byte, error) { return kernel.SaveFIR(st.(*prefiltState).fir), nil }
			op.LoadState = func(data []byte) (any, error) {
				fir, err := kernel.LoadFIR(data, len(prefiltCoeffs))
				if err != nil {
					return nil, err
				}
				return &prefiltState{fir: fir}, nil
			}
		}
	}
}
