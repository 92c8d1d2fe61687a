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

// Codec walks one snapshot record in either direction, so each layout is
// written once: over a writer (Encode) it encodes the fields it is handed,
// over a reader (Decode) it fills them in. A walk hands every field by
// pointer, in layout order; encoding reads through the pointer and
// decoding stores through it. Counted sections go through Len or Slice,
// which read every count with SnapshotReader.Count, so no walk can size an
// allocation the bytes behind it do not back.
type Codec struct {
	w   SnapshotWriter  // what an encoding walk wrote so far
	r   *SnapshotReader // what a decoding walk has left; nil while encoding
	err error           // an encoding walk's failure (a decoding one's sticks in r)
}

// Encode runs walk over a fresh snapshot writer and returns its bytes,
// version byte first, or the first failure the walk reported.
func Encode(walk func(c *Codec)) ([]byte, error) {
	c := &Codec{w: *NewSnapshotWriter()}
	walk(c)
	if err := c.Err(); err != nil {
		return nil, err
	}
	return c.w.Bytes(), nil
}

// Decode runs walk over data: it checks the version byte, reports the
// walk's first failure (a truncated field, a count its bytes cannot back,
// or a check the walk made with Fail), and rejects bytes the walk left
// unread.
func Decode(data []byte, walk func(c *Codec)) error {
	r, err := NewSnapshotReader(data)
	if err != nil {
		return err
	}
	c := &Codec{r: r}
	walk(c)
	if err := c.Err(); err != nil {
		return err
	}
	if !c.r.Done() {
		return fmt.Errorf("wire: trailing bytes after snapshot")
	}
	return nil
}

// Decoding reports whether the walk fills fields in rather than encoding
// them.
func (c *Codec) Decoding() bool { return c.r != nil }

// Err reports the walk's first failure, if any.
func (c *Codec) Err() error {
	if c.r != nil {
		return c.r.Err()
	}
	return c.err
}

// Fail stops the walk with err unless it already failed: a check of a
// decoded field against what the record may hold.
func (c *Codec) Fail(err error) {
	switch {
	case c.r != nil && c.r.err == nil:
		c.r.err = err
	case c.r == nil && c.err == nil:
		c.err = err
	}
}

// Byte walks one raw byte.
func (c *Codec) Byte(p *byte) {
	if c.r != nil {
		*p = c.r.Byte()
	} else {
		c.w.Byte(*p)
	}
}

// Bool walks a boolean as one byte.
func (c *Codec) Bool(p *bool) {
	if c.r != nil {
		*p = c.r.Bool()
	} else {
		c.w.Bool(*p)
	}
}

// Int walks an int as a signed varint.
func (c *Codec) Int(p *int) {
	if c.r != nil {
		*p = int(c.r.Int())
	} else {
		c.w.Int(int64(*p))
	}
}

// Int64 walks an int64 as a signed varint.
func (c *Codec) Int64(p *int64) {
	if c.r != nil {
		*p = c.r.Int()
	} else {
		c.w.Int(*p)
	}
}

// Uint walks a non-negative int as an unsigned varint.
func (c *Codec) Uint(p *int) {
	if c.r != nil {
		*p = int(c.r.Uvarint())
	} else {
		c.w.Uvarint(uint64(*p))
	}
}

// Uint64 walks a uint64 as an unsigned varint.
func (c *Codec) Uint64(p *uint64) {
	if c.r != nil {
		*p = c.r.Uvarint()
	} else {
		c.w.Uvarint(*p)
	}
}

// U16 walks a fixed-width uint16.
func (c *Codec) U16(p *uint16) {
	if c.r != nil {
		*p = c.r.U16()
	} else {
		c.w.U16(*p)
	}
}

// F64 walks a float64 bit for bit.
func (c *Codec) F64(p *float64) {
	if c.r != nil {
		*p = c.r.F64()
	} else {
		c.w.F64(*p)
	}
}

// Blob walks a length-prefixed byte section. Decoding stores a copy that
// is never nil, so a present empty section stays distinguishable from an
// absent one.
func (c *Codec) Blob(p *[]byte) {
	if c.r != nil {
		*p = append([]byte{}, c.r.Blob()...)
	} else {
		c.w.Blob(*p)
	}
}

// String walks a length-prefixed string.
func (c *Codec) String(p *string) {
	if c.r != nil {
		*p = c.r.String()
	} else {
		c.w.String(*p)
	}
}

// Len walks the element count of a counted section: encoding writes n and
// returns it, decoding returns the count it reads through
// SnapshotReader.Count(minElemBytes), zero once the walk has failed.
func (c *Codec) Len(n, minElemBytes int) int {
	if c.r != nil {
		return c.r.Count(minElemBytes)
	}
	c.w.Uvarint(uint64(n))
	return n
}

// Slice walks a counted section held in *s: its length through Len, then
// every element through elem. Decoding replaces *s with a slice of the
// count it read; the walk stops at the first failure.
func Slice[T any](c *Codec, s *[]T, minElemBytes int, elem func(c *Codec, e *T)) {
	n := c.Len(len(*s), minElemBytes)
	if c.r != nil {
		*s = make([]T, n)
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		elem(c, &(*s)[i])
	}
}

// FragmentMask is a set of fragment indexes of one element (at most 255,
// FragmentSpan's bound).
type FragmentMask [4]uint64

// Set adds fragment i.
func (m *FragmentMask) Set(i int) { m[i>>6] |= 1 << (i & 63) }

// Has reports whether fragment i is in the set.
func (m *FragmentMask) Has(i int) bool { return m[i>>6]&(1<<(i&63)) != 0 }

// walkFrame is the one layout of a reassembler's snapshot frame: whether
// an element is in flight and, if one is, its sequence number, fragment
// count and, through part, each fragment. Scratch capacity is not part of
// the logical state and is not saved.
func walkFrame(c *Codec, started *bool, seq *uint16, count *int, part func(c *Codec, i int)) {
	c.Bool(started)
	if !*started {
		return
	}
	c.U16(seq)
	*count = c.Len(*count, 1) // a fragment is at least its presence byte
	if c.Err() == nil && (*count <= 0 || *count > 255) {
		c.Fail(fmt.Errorf("wire: snapshot reassembler fragment count %d", *count))
	}
	for i := 0; i < *count && c.Err() == nil; i++ {
		part(c, i)
	}
}

// walkPart walks one fragment's payload, absent where *p is nil.
func walkPart(c *Codec, p *[]byte) {
	present := *p != nil
	c.Bool(&present)
	if present {
		c.Blob(p)
	}
}

// SaveSnapshot encodes the reassembler's in-flight element (if any).
func (re *Reassembler) SaveSnapshot() ([]byte, error) {
	return Encode(re.walk)
}

// SavePartialSnapshot encodes the frame SaveSnapshot writes for a
// reassembler holding the fragments in have of element encoded, numbered
// seq and split into count payloadSize-byte packets — the frame of a
// partial element known by its value, cut straight from the encoding
// instead of through a Reassembler. Count 0 is no element in flight.
func SavePartialSnapshot(seq uint16, count int, encoded []byte, payloadSize int, have *FragmentMask) ([]byte, error) {
	chunk := payloadSize - fragHeader
	started := count > 0
	return Encode(func(c *Codec) {
		walkFrame(c, &started, &seq, &count, func(c *Codec, i int) {
			var frag []byte
			if have.Has(i) {
				frag = encoded[i*chunk : min((i+1)*chunk, len(encoded))]
			}
			walkPart(c, &frag)
		})
	})
}

// LoadSnapshot restores a reassembler from a SaveSnapshot frame, leaving
// it byte-identical in behavior to the saved one.
func (re *Reassembler) LoadSnapshot(data []byte) error {
	*re = Reassembler{}
	return Decode(data, re.walk)
}

func (re *Reassembler) walk(c *Codec) {
	walkFrame(c, &re.started, &re.seq, &re.count, func(c *Codec, i int) {
		// Decoding sizes the fragment table from the count just read.
		if c.r != nil && re.parts == nil {
			re.parts = make([][]byte, re.count)
			re.store = make([][]byte, re.count)
		}
		walkPart(c, &re.parts[i])
	})
	if c.r == nil {
		return
	}
	for i, p := range re.parts {
		if p != nil {
			re.store[i] = p
			re.have++
		}
	}
}

// StateHooks builds an operator's SaveState and LoadState hooks from one
// walk of its state type, so the two cannot drift apart: save walks the
// live *S, load walks a fresh one.
func StateHooks[S any](walk func(c *Codec, s *S)) (save func(st any) ([]byte, error), load func(data []byte) (any, error)) {
	save = func(st any) ([]byte, error) {
		return Encode(func(c *Codec) { walk(c, st.(*S)) })
	}
	load = func(data []byte) (any, error) {
		s := new(S)
		if err := Decode(data, func(c *Codec) { walk(c, s) }); err != nil {
			return nil, err
		}
		return s, nil
	}
	return save, load
}
