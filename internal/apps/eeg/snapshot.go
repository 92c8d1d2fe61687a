package eeg

import (
	"fmt"
	"math"

	"wishbone/internal/apps/kernel"
	"wishbone/internal/dataflow"
	"wishbone/internal/wire"
)

func f32bits(f float32) uint32     { return math.Float32bits(f) }
func f32frombits(b uint32) float32 { return math.Float32frombits(b) }

// Operator-state snapshot codecs — the state-side analogue of the wire
// codec the cut edges use. attachSnapshotCodecs wires SaveState/LoadState
// onto every stateful operator by its concrete state type, so session
// snapshots (runtime.Session.Snapshot) and shard migration can serialize
// a mid-stream EEG run.

// zip value kinds: zipWork queues hold exactly two element types.
const (
	zipValFloat32 = 0
	zipValFeatVec = 1
)

func attachSnapshotCodecs(g *dataflow.Graph) {
	for _, op := range g.Operators() {
		if !op.Stateful || op.NewState == nil {
			continue
		}
		switch st := op.NewState().(type) {
		case *detectState:
			op.SaveState = func(st any) ([]byte, error) {
				w := wire.NewSnapshotWriter()
				w.Int(int64(st.(*detectState).run))
				return w.Bytes(), nil
			}
			op.LoadState = func(data []byte) (any, error) {
				r, err := wire.NewSnapshotReader(data)
				if err != nil {
					return nil, err
				}
				return &detectState{run: int(r.Int())}, r.Err()
			}
		case *dcState:
			op.SaveState = func(st any) ([]byte, error) {
				w := wire.NewSnapshotWriter()
				w.F64(st.(*dcState).mean)
				return w.Bytes(), nil
			}
			op.LoadState = func(data []byte) (any, error) {
				r, err := wire.NewSnapshotReader(data)
				if err != nil {
					return nil, err
				}
				return &dcState{mean: r.F64()}, r.Err()
			}
		case *firState:
			fresh, _ := st.fir.Snapshot() // one tap per coefficient
			n := len(fresh)
			op.SaveState = func(st any) ([]byte, error) { return kernel.SaveFIR(st.(*firState).fir), nil }
			op.LoadState = func(data []byte) (any, error) {
				fir, err := kernel.LoadFIR(data, n)
				if err != nil {
					return nil, err
				}
				return &firState{fir: fir}, nil
			}
		case *zip2State:
			op.SaveState = func(st any) ([]byte, error) {
				s := st.(*zip2State)
				w := wire.NewSnapshotWriter()
				saveInt16Queue(w, s.a)
				saveInt16Queue(w, s.b)
				return w.Bytes(), nil
			}
			op.LoadState = func(data []byte) (any, error) {
				r, err := wire.NewSnapshotReader(data)
				if err != nil {
					return nil, err
				}
				s := &zip2State{a: loadInt16Queue(r), b: loadInt16Queue(r)}
				return s, r.Err()
			}
		case *zipState:
			op.SaveState = saveZipState
			op.LoadState = loadZipState
		}
	}
}

// The load hooks run on bytes a client supplied (the resume fields of the
// shard and stream endpoints): every count goes through
// SnapshotReader.Count with the fewest bytes one element can occupy, so a
// hostile count cannot size an allocation the blob's own length does not
// back.

func saveInt16Queue(w *wire.SnapshotWriter, q [][]int16) {
	w.Uvarint(uint64(len(q)))
	for _, block := range q {
		w.Uvarint(uint64(len(block)))
		for _, s := range block {
			w.U16(uint16(s))
		}
	}
}

func loadInt16Queue(r *wire.SnapshotReader) [][]int16 {
	q := make([][]int16, 0, r.Count(1)) // a block is at least its length
	for i := 0; i < cap(q); i++ {
		block := make([]int16, r.Count(2))
		for j := range block {
			block[j] = int16(r.U16())
		}
		q = append(q, block)
	}
	return q
}

func saveZipState(st any) ([]byte, error) {
	s := st.(*zipState)
	w := wire.NewSnapshotWriter()
	w.Uvarint(uint64(len(s.q)))
	for _, q := range s.q {
		w.Uvarint(uint64(len(q)))
		for _, v := range q {
			switch x := v.(type) {
			case float32:
				w.Byte(zipValFloat32)
				w.Uvarint(uint64(f32bits(x)))
			case featVec:
				w.Byte(zipValFeatVec)
				w.Uvarint(uint64(len(x)))
				for _, f := range x {
					w.Uvarint(uint64(f32bits(f)))
				}
			default:
				return nil, fmt.Errorf("eeg: zip queue holds unexpected %T", v)
			}
		}
	}
	return w.Bytes(), nil
}

func loadZipState(data []byte) (any, error) {
	r, err := wire.NewSnapshotReader(data)
	if err != nil {
		return nil, err
	}
	s := &zipState{q: make([][]dataflow.Value, r.Count(1))} // a port is at least its queue length
	for p := range s.q {
		n := r.Count(2) // a value is its kind byte and at least one more
		if n == 0 {
			continue
		}
		q := make([]dataflow.Value, 0, n)
		for i := 0; i < n; i++ {
			switch kind := r.Byte(); kind {
			case zipValFloat32:
				q = append(q, f32frombits(uint32(r.Uvarint())))
			case zipValFeatVec:
				row := make(featVec, r.Count(1))
				for j := range row {
					row[j] = f32frombits(uint32(r.Uvarint()))
				}
				q = append(q, row)
			default:
				if r.Err() == nil {
					return nil, fmt.Errorf("eeg: zip snapshot value kind %d", kind)
				}
			}
			if r.Err() != nil {
				return nil, r.Err()
			}
		}
		s.q[p] = q
	}
	return s, r.Err()
}
