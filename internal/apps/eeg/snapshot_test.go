package eeg

import (
	"testing"

	"wishbone/internal/dataflow"
)

// TestZipSnapshotPortCount pins that a zip state saved by a zip of another
// width fails to load, rather than loading and then indexing past its
// queues in zipWork, and that a state of the right width round-trips.
func TestZipSnapshotPortCount(t *testing.T) {
	blobs := map[int][]byte{} // a saved state of each zip width
	var zips []*dataflow.Operator
	for _, op := range NewWithChannels(1).Graph.Operators() {
		if op.NewState == nil {
			continue
		}
		st, ok := op.NewState().(*zipState)
		if !ok {
			continue
		}
		zips = append(zips, op)
		st.q[0] = []dataflow.Value{float32(1.5), featVec{2, 3}}
		blob, err := op.SaveState(st)
		if err != nil {
			t.Fatal(err)
		}
		blobs[len(st.q)] = blob
	}
	if len(blobs) < 2 {
		t.Fatalf("the graph has zips of %d widths, want two or more", len(blobs))
	}
	for _, op := range zips {
		ports := len(op.NewState().(*zipState).q)
		for width, blob := range blobs {
			back, err := op.LoadState(blob)
			switch {
			case width != ports && err == nil:
				t.Errorf("%s: a %d-port state loaded into a %d-port zip", op, width, ports)
			case width == ports && err != nil:
				t.Errorf("%s: a %d-port state does not load: %v", op, ports, err)
			case width == ports:
				if q := back.(*zipState).q; len(q[0]) != 2 || q[0][0] != float32(1.5) {
					t.Errorf("%s: loaded %v", op, q)
				}
			}
		}
	}
}
