package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Snapshot framing: the byte-level encoder/decoder under every serialized
// piece of simulation state (session snapshots, shard-host state, the
// /v1/shard protocol's binary payloads). It is deliberately dumber than
// the element codec above — fixed-width scalars and uvarint-framed byte
// sections, no per-value tags — because both ends always know the exact
// schema: the snapshot's leading version byte selects it.
//
// SnapshotVersion is bumped whenever the layout of any frame changes;
// decoders reject other versions loudly rather than misparse.
const SnapshotVersion = 1

// SnapshotWriter appends snapshot frames to a growing buffer.
type SnapshotWriter struct {
	buf []byte
}

// NewSnapshotWriter returns a writer whose first byte is the version tag.
func NewSnapshotWriter() *SnapshotWriter {
	return &SnapshotWriter{buf: []byte{SnapshotVersion}}
}

// Bytes returns the encoded snapshot.
func (w *SnapshotWriter) Bytes() []byte { return w.buf }

// Byte appends one raw byte.
func (w *SnapshotWriter) Byte(b byte) { w.buf = append(w.buf, b) }

// Bool appends a boolean as one byte.
func (w *SnapshotWriter) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

// Uvarint appends an unsigned varint.
func (w *SnapshotWriter) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Int appends a signed varint (zigzag).
func (w *SnapshotWriter) Int(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// U16 appends a fixed-width big-endian uint16.
func (w *SnapshotWriter) U16(v uint16) {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
}

// F64 appends a float64 as its exact IEEE-754 bit pattern — snapshots must
// restore floating-point accumulators bit for bit.
func (w *SnapshotWriter) F64(v float64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// Blob appends a length-prefixed byte section.
func (w *SnapshotWriter) Blob(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *SnapshotWriter) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// SnapshotReader consumes frames written by SnapshotWriter. Errors are
// sticky: after the first malformed frame every further read returns the
// zero value, and Err reports the failure — callers check once at the end
// of a section instead of after every scalar.
type SnapshotReader struct {
	data []byte
	err  error
}

// NewSnapshotReader validates the version tag and returns a reader
// positioned after it.
func NewSnapshotReader(data []byte) (*SnapshotReader, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("wire: empty snapshot")
	}
	if data[0] != SnapshotVersion {
		return nil, fmt.Errorf("wire: snapshot version %d, this build reads %d", data[0], SnapshotVersion)
	}
	return &SnapshotReader{data: data[1:]}, nil
}

// Err reports the first decode failure, if any.
func (r *SnapshotReader) Err() error { return r.err }

// Done reports whether the reader consumed the whole snapshot cleanly.
func (r *SnapshotReader) Done() bool { return r.err == nil && len(r.data) == 0 }

func (r *SnapshotReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated snapshot (%s)", what)
	}
}

// Byte reads one raw byte.
func (r *SnapshotReader) Byte() byte {
	if r.err != nil || len(r.data) < 1 {
		r.fail("byte")
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// Bool reads a boolean.
func (r *SnapshotReader) Bool() bool { return r.Byte() != 0 }

// Uvarint reads an unsigned varint.
func (r *SnapshotReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

// Count reads the element count of a section whose every element occupies
// at least minElemBytes (>= 1) of the snapshot, failing the reader when the
// remaining bytes cannot hold that many. Decoders size allocations from
// counts, so this bounds what a hostile snapshot can make them allocate by
// the snapshot's own length.
func (r *SnapshotReader) Count(minElemBytes int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.data)/minElemBytes) {
		r.fail("count")
		return 0
	}
	return int(n)
}

// Int reads a signed varint.
func (r *SnapshotReader) Int() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data)
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

// U16 reads a fixed-width uint16.
func (r *SnapshotReader) U16() uint16 {
	if r.err != nil || len(r.data) < 2 {
		r.fail("u16")
		return 0
	}
	v := binary.BigEndian.Uint16(r.data)
	r.data = r.data[2:]
	return v
}

// F64 reads an exact float64 bit pattern.
func (r *SnapshotReader) F64() float64 {
	if r.err != nil || len(r.data) < 8 {
		r.fail("f64")
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.data))
	r.data = r.data[8:]
	return v
}

// Blob reads a length-prefixed byte section. The returned slice aliases
// the snapshot buffer; callers that retain it must copy.
func (r *SnapshotReader) Blob() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.data)) < n {
		r.fail("blob")
		return nil
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

// String reads a length-prefixed string.
func (r *SnapshotReader) String() string { return string(r.Blob()) }

// SaveSnapshot serializes the reassembler's in-flight element (if any)
// into w. Scratch capacity is not part of the logical state and is not
// saved; a restored reassembler rebuilds it lazily.
func (re *Reassembler) SaveSnapshot(w *SnapshotWriter) {
	w.Bool(re.started)
	if !re.started {
		return
	}
	w.U16(re.seq)
	w.Uvarint(uint64(re.count))
	for i := 0; i < re.count; i++ {
		if re.parts[i] == nil {
			w.Bool(false)
			continue
		}
		w.Bool(true)
		w.Blob(re.parts[i])
	}
}

// LoadSnapshot restores a reassembler from a SaveSnapshot frame, leaving
// it byte-identical in behavior to the saved one.
func (re *Reassembler) LoadSnapshot(r *SnapshotReader) error {
	*re = Reassembler{}
	if !r.Bool() {
		return r.Err()
	}
	re.started = true
	re.seq = r.U16()
	re.count = int(r.Uvarint())
	if r.Err() != nil {
		return r.Err()
	}
	if re.count <= 0 || re.count > 255 {
		return fmt.Errorf("wire: snapshot reassembler fragment count %d", re.count)
	}
	re.parts = make([][]byte, re.count)
	re.store = make([][]byte, re.count)
	for i := 0; i < re.count; i++ {
		if !r.Bool() {
			continue
		}
		b := append([]byte(nil), r.Blob()...)
		re.store[i] = b
		re.parts[i] = b
		re.have++
	}
	return r.Err()
}
