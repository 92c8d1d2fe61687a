// Package wire marshals stream elements for transmission over cut edges.
//
// After partitioning, the paper's code generator emits communication code
// for every cut edge — "code to marshal and unmarshal data structures"
// (§3) — and splits elements into small radio packets on TinyOS (§5.2).
// This package is that layer: a compact self-describing binary encoding
// for the value types that flow on streams, plus fragmentation into
// fixed-size packet payloads and reassembly with loss detection.
//
// Encoding: one tag byte, then big-endian payload. Slices carry a uvarint
// length. Unknown tags fail decoding loudly so node and server builds
// cannot silently disagree about the format.
//
// The package also holds the service's bodies: the partition API (api.go),
// graph specs, reports and assignments (graph.go), the shard-host protocol
// (shard.go) and the snapshot framing (snapshot.go). A request names its
// graph by GraphSpec; a graph's structure (GraphWire) is only ever sent,
// never decoded.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"wishbone/internal/dataflow"
)

// tag bytes for each supported element type.
const (
	tagNil      = 0x00
	tagBool     = 0x01
	tagInt16    = 0x02
	tagInt32    = 0x03
	tagInt64    = 0x04
	tagFloat32  = 0x05
	tagFloat64  = 0x06
	tagBytes    = 0x10
	tagInt16s   = 0x11
	tagInt32s   = 0x12
	tagFloat32s = 0x13
	tagFloat64s = 0x14
	tagString   = 0x15
)

// Marshal encodes a stream element. It supports the same concrete types as
// dataflow.WireSize; unsupported types return an error (cut edges carrying
// custom structs must convert to slices first, as generated marshalling
// code would).
func Marshal(v dataflow.Value) ([]byte, error) {
	return AppendMarshal(nil, v)
}

// AppendMarshal encodes a stream element like Marshal, appending to dst
// and returning the extended slice. Hot paths (the runtime's per-message
// sender) reuse one scratch buffer across elements, so steady-state
// marshalling allocates nothing once the buffer has grown to the largest
// element size.
func AppendMarshal(dst []byte, v dataflow.Value) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, tagNil), nil
	case bool:
		b := byte(0)
		if x {
			b = 1
		}
		return append(dst, tagBool, b), nil
	case int16:
		dst = append(dst, tagInt16)
		return binary.BigEndian.AppendUint16(dst, uint16(x)), nil
	case int32:
		dst = append(dst, tagInt32)
		return binary.BigEndian.AppendUint32(dst, uint32(x)), nil
	case int:
		dst = append(dst, tagInt64)
		return binary.BigEndian.AppendUint64(dst, uint64(int64(x))), nil
	case int64:
		dst = append(dst, tagInt64)
		return binary.BigEndian.AppendUint64(dst, uint64(x)), nil
	case float32:
		dst = append(dst, tagFloat32)
		return binary.BigEndian.AppendUint32(dst, math.Float32bits(x)), nil
	case float64:
		dst = append(dst, tagFloat64)
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(x)), nil
	case []byte:
		dst = lenHeader(dst, tagBytes, len(x))
		return append(dst, x...), nil
	case string:
		dst = lenHeader(dst, tagString, len(x))
		return append(dst, x...), nil
	case []int16:
		dst = lenHeader(dst, tagInt16s, len(x))
		for _, s := range x {
			dst = binary.BigEndian.AppendUint16(dst, uint16(s))
		}
		return dst, nil
	case []int32:
		dst = lenHeader(dst, tagInt32s, len(x))
		for _, s := range x {
			dst = binary.BigEndian.AppendUint32(dst, uint32(s))
		}
		return dst, nil
	case []float32:
		dst = lenHeader(dst, tagFloat32s, len(x))
		for _, s := range x {
			dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(s))
		}
		return dst, nil
	case []float64:
		dst = lenHeader(dst, tagFloat64s, len(x))
		for _, s := range x {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(s))
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("wire: unsupported element type %T", v)
	}
}

func lenHeader(dst []byte, tag byte, n int) []byte {
	dst = append(dst, tag)
	return binary.AppendUvarint(dst, uint64(n))
}

// Unmarshal decodes one element, returning it and the number of bytes
// consumed.
func Unmarshal(data []byte) (dataflow.Value, int, error) {
	if len(data) == 0 {
		return nil, 0, fmt.Errorf("wire: empty buffer")
	}
	tag := data[0]
	rest := data[1:]
	need := func(n int) error {
		if len(rest) < n {
			return fmt.Errorf("wire: truncated element (tag 0x%02x: need %d bytes, have %d)", tag, n, len(rest))
		}
		return nil
	}
	switch tag {
	case tagNil:
		return nil, 1, nil
	case tagBool:
		if err := need(1); err != nil {
			return nil, 0, err
		}
		return rest[0] != 0, 2, nil
	case tagInt16:
		if err := need(2); err != nil {
			return nil, 0, err
		}
		return int16(binary.BigEndian.Uint16(rest)), 3, nil
	case tagInt32:
		if err := need(4); err != nil {
			return nil, 0, err
		}
		return int32(binary.BigEndian.Uint32(rest)), 5, nil
	case tagInt64:
		if err := need(8); err != nil {
			return nil, 0, err
		}
		return int64(binary.BigEndian.Uint64(rest)), 9, nil
	case tagFloat32:
		if err := need(4); err != nil {
			return nil, 0, err
		}
		return math.Float32frombits(binary.BigEndian.Uint32(rest)), 5, nil
	case tagFloat64:
		if err := need(8); err != nil {
			return nil, 0, err
		}
		return math.Float64frombits(binary.BigEndian.Uint64(rest)), 9, nil
	case tagBytes, tagString, tagInt16s, tagInt32s, tagFloat32s, tagFloat64s:
		n, used := binary.Uvarint(rest)
		if used <= 0 {
			return nil, 0, fmt.Errorf("wire: bad length varint (tag 0x%02x)", tag)
		}
		rest = rest[used:]
		// n is untrusted: bound it by what the buffer can hold before
		// multiplying, or a huge count wraps total past the length check
		// and make panics.
		size := sliceElemSize(tag)
		if n > uint64(len(rest)/size) {
			return nil, 0, fmt.Errorf("wire: truncated element (tag 0x%02x: %d elements of %d bytes, have %d bytes)", tag, n, size, len(rest))
		}
		total := int(n) * size
		consumed := 1 + used + total
		switch tag {
		case tagBytes:
			return append([]byte(nil), rest[:total]...), consumed, nil
		case tagString:
			return string(rest[:total]), consumed, nil
		case tagInt16s:
			out := make([]int16, n)
			for i := range out {
				out[i] = int16(binary.BigEndian.Uint16(rest[2*i:]))
			}
			return out, consumed, nil
		case tagInt32s:
			out := make([]int32, n)
			for i := range out {
				out[i] = int32(binary.BigEndian.Uint32(rest[4*i:]))
			}
			return out, consumed, nil
		case tagFloat32s:
			out := make([]float32, n)
			for i := range out {
				out[i] = math.Float32frombits(binary.BigEndian.Uint32(rest[4*i:]))
			}
			return out, consumed, nil
		default:
			out := make([]float64, n)
			for i := range out {
				out[i] = math.Float64frombits(binary.BigEndian.Uint64(rest[8*i:]))
			}
			return out, consumed, nil
		}
	default:
		return nil, 0, fmt.Errorf("wire: unknown tag 0x%02x", tag)
	}
}

// sliceElemSize is the per-element byte width of a slice-carrying tag.
func sliceElemSize(tag byte) int {
	switch tag {
	case tagInt16s:
		return 2
	case tagInt32s, tagFloat32s:
		return 4
	case tagFloat64s:
		return 8
	default: // tagBytes, tagString
		return 1
	}
}

// fragHeader is the per-fragment framing: sequence number, fragment
// index, fragment count.
const fragHeader = 4

// FragmentSpan returns the fragment count and total storage (payload plus
// per-fragment headers) that fragmenting an encLen-byte element into
// payloadSize-byte packets needs — the sizing contract for FragmentTo.
func FragmentSpan(encLen, payloadSize int) (count, total int, err error) {
	if payloadSize <= fragHeader {
		return 0, 0, fmt.Errorf("wire: payload size %d too small for the %d-byte header", payloadSize, fragHeader)
	}
	chunk := payloadSize - fragHeader
	count = (encLen + chunk - 1) / chunk
	if count == 0 {
		count = 1
	}
	if count > 255 {
		return 0, 0, fmt.Errorf("wire: element needs %d fragments (max 255)", count)
	}
	return count, encLen + count*fragHeader, nil
}

// Fragment splits an encoded element into packet payloads of at most
// payloadSize bytes, each prefixed with a 4-byte fragment header
// (sequence number, fragment index, fragment count) so the receiver can
// reassemble and detect loss — the TinyOS packetization of §5.2.
func Fragment(encoded []byte, seq uint16, payloadSize int) ([][]byte, error) {
	count, total, err := FragmentSpan(len(encoded), payloadSize)
	if err != nil {
		return nil, err
	}
	return FragmentTo(encoded, seq, payloadSize, make([]byte, total), make([][]byte, 0, count))
}

// FragmentTo is Fragment with caller-supplied storage: the fragments are
// written back-to-back into buf — which must be at least FragmentSpan
// bytes long, and must not be recycled until every fragment is consumed —
// and their subslices appended to frags. The runtime's sender carves buf
// out of a per-window arena, so fragmenting a steady message stream
// allocates nothing.
func FragmentTo(encoded []byte, seq uint16, payloadSize int, buf []byte, frags [][]byte) ([][]byte, error) {
	count, total, err := FragmentSpan(len(encoded), payloadSize)
	if err != nil {
		return nil, err
	}
	if len(buf) < total {
		return nil, fmt.Errorf("wire: fragment buffer %d bytes, need %d", len(buf), total)
	}
	chunk := payloadSize - fragHeader
	off := 0
	for i := 0; i < count; i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > len(encoded) {
			hi = len(encoded)
		}
		f := buf[off : off : off+fragHeader+hi-lo]
		f = binary.BigEndian.AppendUint16(f, seq)
		f = append(f, byte(i), byte(count))
		f = append(f, encoded[lo:hi]...)
		frags = append(frags, f)
		off += len(f)
	}
	return frags, nil
}

// Reassembler rebuilds elements from fragments, tolerating reordering
// within an element and detecting gaps. All scratch storage — per-index
// fragment copies and the concatenation buffer — is retained across
// elements, so a long-lived stream's reassembly allocates only while the
// largest element size is still growing (the decoded values Unmarshal
// returns are always fresh).
type Reassembler struct {
	seq     uint16
	have    int
	count   int
	started bool
	parts   [][]byte // parts[i] == nil ⇒ fragment i missing; set entries alias store
	store   [][]byte // per-index payload buffers, capacity kept across elements
	buf     []byte   // concatenation scratch, reused across elements
}

// Offer feeds one received fragment. When the element completes, it
// returns the decoded value and true. Fragments of a newer sequence
// abandon the current partial element (its packets were lost).
func (r *Reassembler) Offer(frag []byte) (dataflow.Value, bool, error) {
	if len(frag) < 4 {
		return nil, false, fmt.Errorf("wire: fragment shorter than header")
	}
	seq := binary.BigEndian.Uint16(frag)
	idx, count := int(frag[2]), int(frag[3])
	if count == 0 || idx >= count {
		return nil, false, fmt.Errorf("wire: bad fragment index %d/%d", idx, count)
	}
	// The 16-bit sequence wraps after 65535 elements — an hour-long
	// high-rate stream crosses it several times. The seq != r.seq check
	// stays sound as long as at most one element is partially assembled
	// per stream, but a stale partial whose sender seq has since wrapped
	// could alias a fresh element carrying the same seq; a differing
	// fragment count exposes that case, and the stale partial (its
	// remaining packets were lost long ago) is discarded.
	if !r.started || seq != r.seq || count != r.count {
		r.seq = seq
		r.count = count
		r.have = 0
		if cap(r.parts) < count {
			r.parts = make([][]byte, count)
		} else {
			r.parts = r.parts[:count]
			for i := range r.parts {
				r.parts[i] = nil
			}
		}
		for len(r.store) < count {
			r.store = append(r.store, nil)
		}
		r.started = true
	}
	if r.parts[idx] == nil {
		if r.store[idx] == nil {
			// nil marks a missing fragment; an empty payload is not one (or
			// its duplicate would count again and complete the element
			// with fragments never received).
			r.store[idx] = []byte{}
		}
		b := append(r.store[idx][:0], frag[4:]...)
		r.store[idx] = b
		r.parts[idx] = b
		r.have++
	}
	if r.have < r.count {
		return nil, false, nil
	}
	buf := r.buf[:0]
	for _, p := range r.parts {
		buf = append(buf, p...)
	}
	r.buf = buf
	r.started = false
	v, _, err := Unmarshal(buf)
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
}
