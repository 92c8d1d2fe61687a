package runtime

import (
	"bytes"
	"encoding/json"
	"fmt"

	"wishbone/internal/dataflow"
)

// Zero-copy streaming ingestion: Session.OfferRaw decodes a raw JSON
// arrival value straight into the session's ingest arena — typed slabs
// carved per value — instead of allocating a fresh slice per arrival the
// way decode-then-Offer does. Integer arrays (the dominant sensor types)
// parse with a hand-rolled exact scanner; float arrays and byte strings
// go through encoding/json into reused, zeroed scratch and are copied into
// the slab, so values and errors are identical to json.Unmarshal in every
// case (the scanner falls back to encoding/json on anything but the plain
// happy path: leading zeros, floats, exponents, overflow, garbage).
//
// The arena is generational, not reused in place: rotate — called once
// per flushed window — drops the block references, so a block lives
// exactly as long as the values carved from it (delivered elements,
// reduce rounds pending across windows, values buffered in server-side
// state). Memory safety never depends on window lifetime; rotation only
// bounds how much dead trace each live block can pin.

// ingestBlockElems sizes a fresh slab block, in elements: one block serves
// ~80 200-sample speech frames (32 of the EEG's 512-sample windows) before
// the next allocation.
const ingestBlockElems = 1 << 14

// ingestArena holds the current generation's typed slabs plus the decode
// scratch (scratch is copied out of, so it survives rotation).
type ingestArena struct {
	i16 []int16
	i32 []int32
	f32 []float32
	f64 []float64
	by  []byte

	s16  []int16
	s32  []int32
	sF32 []float32
	sF64 []float64
	sBy  []byte
}

// rotate starts a new generation: block references drop, the GC reclaims
// each block once the last value carved from it dies.
func (a *ingestArena) rotate() {
	a.i16, a.i32, a.f32, a.f64, a.by = nil, nil, nil, nil, nil
}

// carve returns the next n elements of the block, starting a fresh block
// only when there is none (so an empty value is non-nil, as encoding/json
// decodes it) or the current one cannot fit them (values carved earlier
// keep the old block alive). The block keeps its capacity; each result is
// cap-limited to its own n elements, so an append through one value can
// never grow into its neighbour.
func carve[T any](blk *[]T, n int) []T {
	if *blk == nil || cap(*blk)-len(*blk) < n {
		*blk = make([]T, 0, max(n, ingestBlockElems))
	}
	start := len(*blk)
	*blk = (*blk)[:start+n]
	return (*blk)[start : start+n : start+n]
}

// zeroed empties a decode scratch for encoding/json, clearing its whole
// capacity: json leaves a reused element untouched on a null, so a stale
// one would decode [null] as the previous arrival's sample where a fresh
// slice gives 0.
func zeroed[T any](s []T) []T {
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}

// decode maps one raw JSON arrival value onto the element types sensor
// traces carry, mirroring the decode-then-Offer path exactly: with no
// type hint a number becomes float64 and an array []float64; the hint
// selects the other supported trace types. When discard is true the value
// is validated but nothing is carved (beyond-duration arrivals are
// dropped but must still fail on bad values).
func (a *ingestArena) decode(typ string, raw []byte, discard bool) (dataflow.Value, error) {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("arrival with empty value")
	}
	bad := func(err error) error {
		return fmt.Errorf("bad arrival value (type %q): %v", typ, err)
	}
	switch typ {
	case "":
		if trimmed[0] != '[' {
			var v float64
			if err := json.Unmarshal(trimmed, &v); err != nil {
				return nil, bad(err)
			}
			return v, nil
		}
		fallthrough
	case "f64s":
		if jsonNull(trimmed) {
			return []float64(nil), nil
		}
		a.sF64 = zeroed(a.sF64)
		if err := json.Unmarshal(trimmed, &a.sF64); err != nil {
			return nil, bad(err)
		}
		if discard {
			return nil, nil
		}
		out := carve(&a.f64, len(a.sF64))
		copy(out, a.sF64)
		return out, nil
	case "f64":
		var v float64
		if err := json.Unmarshal(trimmed, &v); err != nil {
			return nil, bad(err)
		}
		return v, nil
	case "i64":
		var v int64
		if err := json.Unmarshal(trimmed, &v); err != nil {
			return nil, bad(err)
		}
		return v, nil
	case "f32s":
		if jsonNull(trimmed) {
			return []float32(nil), nil
		}
		a.sF32 = zeroed(a.sF32)
		if err := json.Unmarshal(trimmed, &a.sF32); err != nil {
			return nil, bad(err)
		}
		if discard {
			return nil, nil
		}
		out := carve(&a.f32, len(a.sF32))
		copy(out, a.sF32)
		return out, nil
	case "i32s":
		if jsonNull(trimmed) {
			return []int32(nil), nil
		}
		s, ok := scanInts(a.s32[:0], trimmed, -1<<31, 1<<31-1)
		if !ok {
			s = zeroed(s)
			if err := json.Unmarshal(trimmed, &s); err != nil {
				a.s32 = s
				return nil, bad(err)
			}
		}
		a.s32 = s
		if discard {
			return nil, nil
		}
		out := carve(&a.i32, len(s))
		copy(out, s)
		return out, nil
	case "i16s":
		if jsonNull(trimmed) {
			return []int16(nil), nil
		}
		s, ok := scanInts(a.s16[:0], trimmed, -1<<15, 1<<15-1)
		if !ok {
			s = zeroed(s)
			if err := json.Unmarshal(trimmed, &s); err != nil {
				a.s16 = s
				return nil, bad(err)
			}
		}
		a.s16 = s
		if discard {
			return nil, nil
		}
		out := carve(&a.i16, len(s))
		copy(out, s)
		return out, nil
	case "bytes":
		if jsonNull(trimmed) {
			return []byte(nil), nil
		}
		a.sBy = zeroed(a.sBy)
		if err := json.Unmarshal(trimmed, &a.sBy); err != nil {
			return nil, bad(err)
		}
		if discard {
			return nil, nil
		}
		out := carve(&a.by, len(a.sBy))
		copy(out, a.sBy)
		return out, nil
	default:
		return nil, fmt.Errorf("unknown arrival value type %q", typ)
	}
}

// ArrivalDecoder decodes raw JSON arrival values into the typed elements
// sensor traces carry, using the same arena-backed zero-copy path as
// Session.OfferRaw — exported for consumers that ingest client traces
// without a session behind them (the profile-stream endpoint decodes a
// whole request's arrivals through one decoder, so slab blocks amortize
// across the trace). Values stay valid as long as the decoder itself: the
// arena never rotates. Not safe for concurrent use.
type ArrivalDecoder struct {
	arena ingestArena
}

// Decode maps one raw JSON value onto its trace element type (the typ
// values of wire.ArrivalWire: "", "f64", "i64", "f64s", "f32s", "i32s",
// "i16s", "bytes").
func (d *ArrivalDecoder) Decode(typ string, raw []byte) (dataflow.Value, error) {
	return d.arena.decode(typ, raw, false)
}

// jsonNull reports a bare JSON null, which encoding/json maps to a nil
// slice with no error — the one array-typed input that must not reach
// the scanner or the scratch path (both would produce a non-nil empty).
func jsonNull(b []byte) bool {
	return len(b) == 4 && b[0] == 'n' && b[1] == 'u' && b[2] == 'l' && b[3] == 'l'
}

// scanInts is the hand-rolled exact parser for JSON integer arrays: it
// accepts precisely the inputs encoding/json would accept into the target
// integer type — in-range integers with no leading zeros — and reports
// !ok on anything else (floats, exponents, overflow, leading zeros,
// syntax errors), sending the caller to encoding/json for the
// authoritative result or error.
func scanInts[T int16 | int32](dst []T, b []byte, min, max int64) ([]T, bool) {
	i, n := 0, len(b)
	ws := func() {
		for i < n && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
			i++
		}
	}
	if n == 0 || b[0] != '[' {
		return dst, false
	}
	i++
	ws()
	if i < n && b[i] == ']' {
		i++
		ws()
		return dst, i == n
	}
	for {
		ws()
		neg := false
		if i < n && b[i] == '-' {
			neg = true
			i++
		}
		start := i
		var v int64
		for i < n && b[i] >= '0' && b[i] <= '9' {
			v = v*10 + int64(b[i]-'0')
			if v > 1<<40 {
				return dst, false // would overflow any target; let json report it
			}
			i++
		}
		if i == start || (b[start] == '0' && i-start > 1) {
			return dst, false // no digits, or leading zero (invalid JSON)
		}
		if neg {
			v = -v
		}
		if v < min || v > max {
			return dst, false
		}
		dst = append(dst, T(v))
		ws()
		if i >= n {
			return dst, false
		}
		switch b[i] {
		case ',':
			i++
		case ']':
			i++
			ws()
			return dst, i == n
		default:
			return dst, false // '.', 'e', or garbage: not a plain integer
		}
	}
}
