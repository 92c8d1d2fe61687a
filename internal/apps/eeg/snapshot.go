package eeg

import (
	"fmt"
	"math"

	"wishbone/internal/apps/kernel"
	"wishbone/internal/dataflow"
	"wishbone/internal/wire"
)

// Operator-state snapshot codecs — the state-side analogue of the wire
// codec the cut edges use. attachSnapshotCodecs wires SaveState/LoadState
// onto every stateful operator by its concrete state type, each pair built
// from one walk of that type, so session snapshots
// (runtime.Session.Snapshot) and shard migration can serialize a
// mid-stream EEG run. The load hooks run on bytes a client supplied (the
// resume fields of the shard and stream endpoints); the walks read every
// count through wire.Slice, so a hostile count cannot size an allocation
// the blob's own length does not back.

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
			op.SaveState, op.LoadState = wire.StateHooks(func(c *wire.Codec, s *detectState) {
				c.Int(&s.run)
			})
		case *dcState:
			op.SaveState, op.LoadState = wire.StateHooks(func(c *wire.Codec, s *dcState) {
				c.F64(&s.mean)
			})
		case *firState:
			fresh, _ := st.fir.Snapshot() // one tap per coefficient
			n := len(fresh)
			op.SaveState, op.LoadState = wire.StateHooks(func(c *wire.Codec, s *firState) {
				kernel.WalkFIR(c, &s.fir, n)
			})
		case *zip2State:
			op.SaveState, op.LoadState = wire.StateHooks(func(c *wire.Codec, s *zip2State) {
				walkInt16Queue(c, &s.a)
				walkInt16Queue(c, &s.b)
			})
		case *zipState:
			ports := len(st.q)
			op.SaveState, op.LoadState = wire.StateHooks(func(c *wire.Codec, s *zipState) {
				wire.Slice(c, &s.q, 1, func(c *wire.Codec, q *[]dataflow.Value) {
					wire.Slice(c, q, 2, walkZipValue) // a value is its kind byte and at least one more
				})
				if c.Err() == nil && len(s.q) != ports {
					c.Fail(fmt.Errorf("eeg: zip snapshot has %d ports, want %d", len(s.q), ports))
				}
			})
		}
	}
}

// walkInt16Queue is the layout of a queue of sample blocks; a block is at
// least its length.
func walkInt16Queue(c *wire.Codec, q *[][]int16) {
	wire.Slice(c, q, 1, func(c *wire.Codec, block *[]int16) {
		wire.Slice(c, block, 2, func(c *wire.Codec, s *int16) {
			u := uint16(*s)
			c.U16(&u)
			if c.Decoding() {
				*s = int16(u)
			}
		})
	})
}

// walkZipValue is the layout of one zip queue entry: its kind, then a
// float32 or a feature vector's counted float32s, each as its bits.
func walkZipValue(c *wire.Codec, v *dataflow.Value) {
	var kind byte
	switch (*v).(type) {
	case float32:
		kind = zipValFloat32
	case featVec:
		kind = zipValFeatVec
	default:
		if !c.Decoding() {
			c.Fail(fmt.Errorf("eeg: zip queue holds unexpected %T", *v))
			return
		}
	}
	c.Byte(&kind)
	switch kind {
	case zipValFloat32:
		x, _ := (*v).(float32)
		walkF32(c, &x)
		if c.Decoding() {
			*v = x
		}
	case zipValFeatVec:
		row, _ := (*v).(featVec)
		wire.Slice(c, (*[]float32)(&row), 1, walkF32)
		if c.Decoding() {
			*v = row
		}
	default:
		if c.Err() == nil {
			c.Fail(fmt.Errorf("eeg: zip snapshot value kind %d", kind))
		}
	}
}

// walkF32 walks a float32 as the unsigned varint of its bits.
func walkF32(c *wire.Codec, f *float32) {
	b := uint64(math.Float32bits(*f))
	c.Uint64(&b)
	if c.Decoding() {
		*f = math.Float32frombits(uint32(b))
	}
}
