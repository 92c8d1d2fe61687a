package kernel

import (
	"fmt"

	"wishbone/internal/dsp"
	"wishbone/internal/wire"
)

// SaveFIR is the snapshot encoding of a FIR operator's delay line, shared
// by both applications: tap count, taps, write cursor.
func SaveFIR(fir *dsp.FIRState) []byte {
	taps, pos := fir.Snapshot()
	w := wire.NewSnapshotWriter()
	w.Uvarint(uint64(len(taps)))
	for _, t := range taps {
		w.F64(t)
	}
	w.Int(int64(pos))
	return w.Bytes()
}

// LoadFIR decodes SaveFIR's bytes for a filter of n coefficients. They may
// be a client's (the resume fields of the shard and stream endpoints): the
// count goes through SnapshotReader.Count, so it cannot size an allocation
// the blob does not back, and a line that is not n taps or whose cursor
// lies outside it is an error here, not a panic in the first block
// filtered through it.
func LoadFIR(data []byte, n int) (*dsp.FIRState, error) {
	r, err := wire.NewSnapshotReader(data)
	if err != nil {
		return nil, err
	}
	taps := make([]float64, r.Count(8))
	for i := range taps {
		taps[i] = r.F64()
	}
	pos := int(r.Int())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(taps) != n {
		return nil, fmt.Errorf("kernel: FIR snapshot of %d taps, the filter has %d", len(taps), n)
	}
	return dsp.RestoreFIRState(taps, pos)
}
