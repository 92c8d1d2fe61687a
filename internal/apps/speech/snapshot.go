package speech

import (
	"wishbone/internal/dataflow"
	"wishbone/internal/dsp"
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
			op.SaveState = func(st any) ([]byte, error) {
				taps, pos := st.(*prefiltState).fir.Snapshot()
				w := wire.NewSnapshotWriter()
				w.Uvarint(uint64(len(taps)))
				for _, t := range taps {
					w.F64(t)
				}
				w.Int(int64(pos))
				return w.Bytes(), nil
			}
			op.LoadState = func(data []byte) (any, error) {
				r, err := wire.NewSnapshotReader(data)
				if err != nil {
					return nil, err
				}
				// Count: the blob may be a client's (see the EEG app's
				// load hooks).
				taps := make([]float64, r.Count(8))
				for i := range taps {
					taps[i] = r.F64()
				}
				pos := int(r.Int())
				if err := r.Err(); err != nil {
					return nil, err
				}
				return &prefiltState{fir: dsp.RestoreFIRState(taps, pos)}, nil
			}
		}
	}
}
