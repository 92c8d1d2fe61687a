package kernel

import (
	"fmt"

	"wishbone/internal/dsp"
	"wishbone/internal/wire"
)

// WalkFIR is the snapshot layout of a FIR operator's delay line, shared
// by both applications: the taps, then the write cursor. Decoding may
// read a client's bytes (the resume fields of the shard and stream
// endpoints), so a line that is not n taps or whose cursor lies outside
// it fails the walk here, not as a panic in the first block filtered
// through it.
func WalkFIR(c *wire.Codec, fir **dsp.FIRState, n int) {
	var taps []float64
	var pos int
	if !c.Decoding() {
		taps, pos = (*fir).Snapshot()
	}
	wire.Slice(c, &taps, 8, (*wire.Codec).F64)
	c.Int(&pos)
	if !c.Decoding() || c.Err() != nil {
		return
	}
	if len(taps) != n {
		c.Fail(fmt.Errorf("kernel: FIR snapshot of %d taps, the filter has %d", len(taps), n))
		return
	}
	restored, err := dsp.RestoreFIRState(taps, pos)
	if err != nil {
		c.Fail(err)
		return
	}
	*fir = restored
}
