package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"wishbone/internal/dataflow"
)

func roundTrip(t *testing.T, v dataflow.Value) dataflow.Value {
	t.Helper()
	enc, err := Marshal(v)
	if err != nil {
		t.Fatalf("Marshal(%T): %v", v, err)
	}
	out, n, err := Unmarshal(enc)
	if err != nil {
		t.Fatalf("Unmarshal(%T): %v", v, err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d bytes", n, len(enc))
	}
	return out
}

func TestRoundTripScalars(t *testing.T) {
	for _, v := range []dataflow.Value{
		nil, true, false,
		int16(-12345), int32(1 << 30), int64(-1 << 60), int(42),
		float32(3.25), float64(-2.5e-3),
		"hello wishbone", []byte{1, 2, 3, 0, 255},
	} {
		got := roundTrip(t, v)
		want := v
		if i, ok := v.(int); ok {
			want = int64(i) // ints travel as int64
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip of %T %v gave %T %v", v, v, got, got)
		}
	}
}

func TestRoundTripSlices(t *testing.T) {
	for _, v := range []dataflow.Value{
		[]int16{}, []int16{-1, 0, 32767, -32768},
		[]int32{5, -9},
		[]float32{1.5, -2.25},
		[]float64{3.14159, -1e-9, 0},
	} {
		got := roundTrip(t, v)
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip of %T %v gave %v", v, v, got)
		}
	}
}

func TestMarshalRejectsUnknown(t *testing.T) {
	if _, err := Marshal(struct{ X int }{}); err == nil {
		t.Fatal("structs must be rejected")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	for _, bad := range [][]byte{
		{}, {0x7f}, {tagInt16, 0x01}, {tagFloat64s, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	} {
		if _, _, err := Unmarshal(bad); err == nil {
			t.Errorf("Unmarshal(% x): expected error", bad)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(samples []int16, seed int64) bool {
		got := roundTrip(t, samples)
		if samples == nil {
			samples = []int16{}
		}
		return reflect.DeepEqual(got, samples)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFragmentReassemble(t *testing.T) {
	frame := make([]int16, 200) // a 400-byte speech frame
	for i := range frame {
		frame[i] = int16(i * 3)
	}
	enc, err := Marshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	frags, err := Fragment(enc, 7, 28) // TinyOS payload size
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) < 15 {
		t.Fatalf("only %d fragments for a 400-byte frame in 28-byte packets", len(frags))
	}
	var r Reassembler
	for i, f := range frags {
		v, done, err := r.Offer(f)
		if err != nil {
			t.Fatal(err)
		}
		if done != (i == len(frags)-1) {
			t.Fatalf("fragment %d: done=%v", i, done)
		}
		if done && !reflect.DeepEqual(v, frame) {
			t.Fatal("reassembled frame differs")
		}
	}
}

func TestReassemblerToleratesReordering(t *testing.T) {
	enc, _ := Marshal([]float32{1, 2, 3, 4, 5, 6, 7, 8})
	frags, err := Fragment(enc, 1, 12)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	rng.Shuffle(len(frags), func(i, j int) { frags[i], frags[j] = frags[j], frags[i] })
	var r Reassembler
	var got dataflow.Value
	done := false
	for _, f := range frags {
		v, d, err := r.Offer(f)
		if err != nil {
			t.Fatal(err)
		}
		if d {
			got, done = v, true
		}
	}
	if !done || !reflect.DeepEqual(got, []float32{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("reordered reassembly failed: %v", got)
	}
}

func TestReassemblerAbandonsLossyElement(t *testing.T) {
	encA, _ := Marshal([]int16{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	encB, _ := Marshal([]int16{11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	fragsA, _ := Fragment(encA, 1, 12)
	fragsB, _ := Fragment(encB, 2, 12)
	var r Reassembler
	// Lose the tail of element 1; element 2 must still reassemble.
	if _, done, _ := r.Offer(fragsA[0]); done {
		t.Fatal("partial element reported complete")
	}
	var got dataflow.Value
	for _, f := range fragsB {
		v, done, err := r.Offer(f)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			got = v
		}
	}
	if !reflect.DeepEqual(got, []int16{11, 12, 13, 14, 15, 16, 17, 18, 19, 20}) {
		t.Fatalf("element after loss: %v", got)
	}
}

func TestFragmentErrors(t *testing.T) {
	enc, _ := Marshal([]float64{1})
	if _, err := Fragment(enc, 0, 4); err == nil {
		t.Fatal("payload ≤ header must error")
	}
	huge, _ := Marshal(make([]float64, 2000))
	if _, err := Fragment(huge, 0, 28); err == nil {
		t.Fatal("over-255-fragment elements must error")
	}
}

// TestEncodedSizeTracksWireSize documents that the encoding overhead over
// dataflow.WireSize (which the profiler uses for bandwidth accounting) is
// a few bytes of tag+length, not a multiplicative factor.
func TestEncodedSizeTracksWireSize(t *testing.T) {
	frame := make([]int16, 200)
	enc, _ := Marshal(frame)
	ws := dataflow.WireSize(frame)
	if len(enc) < ws || len(enc) > ws+4 {
		t.Fatalf("encoded %dB vs wire size %dB", len(enc), ws)
	}
}

// TestFragmentToMatchesFragment pins the caller-storage fragmentation
// against the allocating reference, byte for byte, across element sizes
// spanning 1..N fragments.
func TestFragmentToMatchesFragment(t *testing.T) {
	const payload = 28
	for _, n := range []int{0, 1, 5, 23, 24, 25, 100, 1000} {
		enc := make([]byte, n)
		for i := range enc {
			enc[i] = byte(i * 7)
		}
		want, err := Fragment(enc, uint16(n), payload)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		count, total, err := FragmentSpan(len(enc), payload)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if count != len(want) {
			t.Fatalf("n=%d: FragmentSpan count %d, Fragment produced %d", n, count, len(want))
		}
		buf := make([]byte, total)
		got, err := FragmentTo(enc, uint16(n), payload, buf, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: FragmentTo diverges from Fragment", n)
		}
		sum := 0
		for _, f := range got {
			sum += len(f)
		}
		if sum != total {
			t.Fatalf("n=%d: fragments span %d bytes, FragmentSpan said %d", n, sum, total)
		}
	}
	if _, err := FragmentTo(make([]byte, 100), 1, payload, make([]byte, 10), nil); err == nil {
		t.Fatal("undersized buffer must be rejected")
	}
}

// TestAppendMarshalReusesBuffer pins the scratch-buffer contract: the
// encoding appended into a reused buffer is identical to a fresh Marshal.
func TestAppendMarshalReusesBuffer(t *testing.T) {
	vals := []dataflow.Value{
		[]int16{1, -2, 3}, []float64{3.5, -7}, []float32{1.5}, []int32{9},
		[]byte{1, 2, 3}, "hello", int64(-5), 3.25, float32(2.5), int16(-1),
		true, nil, int(42),
	}
	var buf []byte
	for i := 0; i < 3; i++ { // reuse across rounds
		for _, v := range vals {
			want, err := Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := AppendMarshal(buf[:0], v)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("AppendMarshal(%T) diverges from Marshal", v)
			}
			buf = got
		}
	}
}

// TestReassemblerScratchReuse drives many elements of varying fragment
// counts through one Reassembler (the per-(origin,edge) stream shape) and
// checks every decode, including that decoded slice values are fresh —
// not aliases of the recycled scratch.
func TestReassemblerScratchReuse(t *testing.T) {
	const payload = 12
	var r Reassembler
	var prev dataflow.Value
	for seq := 1; seq <= 300; seq++ {
		n := (seq % 17) + 1
		val := make([]int16, n)
		for i := range val {
			val[i] = int16(seq*31 + i)
		}
		enc, err := Marshal(val)
		if err != nil {
			t.Fatal(err)
		}
		frags, err := Fragment(enc, uint16(seq), payload)
		if err != nil {
			t.Fatal(err)
		}
		var got dataflow.Value
		done := false
		for _, f := range frags {
			v, ok, err := r.Offer(f)
			if err != nil {
				t.Fatalf("seq %d: %v", seq, err)
			}
			if ok {
				got, done = v, true
			}
		}
		if !done {
			t.Fatalf("seq %d: element did not complete", seq)
		}
		if !reflect.DeepEqual(got, val) {
			t.Fatalf("seq %d: decoded %v, want %v", seq, got, val)
		}
		if prev != nil && !reflect.DeepEqual(prev, prevWant(seq-1)) {
			t.Fatalf("seq %d: previous decode mutated by scratch reuse", seq)
		}
		prev = got
	}
}

func prevWant(seq int) []int16 {
	n := (seq % 17) + 1
	val := make([]int16, n)
	for i := range val {
		val[i] = int16(seq*31 + i)
	}
	return val
}

// hostileLen is a slice header whose uvarint count no buffer can back:
// tag, then n. At 1<<61 with an 8-byte element n*size wraps to 0; at
// 1<<63 int(n) is negative — either used to slip past the length check
// and panic in make or in the slice expression.
func hostileLen(tag byte, n uint64) []byte {
	return binary.AppendUvarint([]byte{tag}, n)
}

// TestUnmarshalLengthOverflow is the regression for the count overflow: a
// 10-byte input must come back as the truncated-element error from every
// slice-carrying tag, not as a panic.
func TestUnmarshalLengthOverflow(t *testing.T) {
	for _, tag := range []byte{tagBytes, tagString, tagInt16s, tagInt32s, tagFloat32s, tagFloat64s} {
		for _, n := range []uint64{1 << 61, 1 << 62, 1 << 63, math.MaxUint64, 3} {
			in := append(hostileLen(tag, n), 0, 0)
			_, _, err := Unmarshal(in)
			if err == nil || !strings.Contains(err.Error(), "truncated element") {
				t.Errorf("tag 0x%02x n=%d: got %v, want a truncated-element error", tag, n, err)
			}
		}
	}
}

// FuzzUnmarshal holds the element codec to the decoder contract: never
// panic on arbitrary bytes, never produce a value larger than the input
// that described it, and re-encoding a decoded value is a fixed point (the
// canonical form of the consumed prefix: minimal varints, bools as 0/1).
func FuzzUnmarshal(f *testing.F) {
	for _, v := range []dataflow.Value{
		nil, true, int16(-7), int32(1 << 20), int64(-1 << 40), float32(1.5), float64(-2.5),
		"wishbone", []byte{1, 2, 3}, []int16{-1, 0, 32767}, []int32{5, -9},
		[]float32{1.5, -2.25}, []float64{3.14159, 0},
	} {
		enc, err := Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add(hostileLen(tagFloat64s, 1<<61))
	f.Add(hostileLen(tagBytes, 1<<63))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := Unmarshal(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		enc, err := Marshal(v)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", v, err)
		}
		if len(enc) > n {
			t.Fatalf("canonical form (%d bytes) longer than the consumed prefix (%d)", len(enc), n)
		}
		v2, n2, err := Unmarshal(enc)
		if err != nil || n2 != len(enc) {
			t.Fatalf("re-encoded value does not decode whole: n=%d of %d, err=%v", n2, len(enc), err)
		}
		if enc2, err := Marshal(v2); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("decode→encode is not a fixed point: % x vs % x (err %v)", enc, enc2, err)
		}
	})
}

// packetStream frames packets for FuzzReassemble: one length byte, then
// that many bytes (fewer if the input ends first).
func packetStream(packets ...[]byte) []byte {
	var out []byte
	for _, p := range packets {
		out = append(out, byte(len(p)))
		out = append(out, p...)
	}
	return out
}

// FuzzReassemble feeds a Reassembler fuzzer-chosen packets, headers
// included — duplicated, reordered, truncated, from interleaved elements.
// It must never panic; it completes an element exactly when every index of
// the fragment set in progress has been offered; and a value it returns is
// no longer than the payload bytes offered for it.
func FuzzReassemble(f *testing.F) {
	for i, v := range []dataflow.Value{
		nil, true, int16(-7), int32(1 << 20), int64(-1 << 40), float32(1.5), float64(-2.5),
		"wishbone", []byte{1, 2, 3}, []int16{-1, 0, 32767, 12, 13, 14, 15, 16, 17}, []int32{5, -9, 11, 13},
		[]float32{1.5, -2.25, 3, 4}, []float64{3.14159, 0, 7},
	} {
		enc, err := Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		frags, err := Fragment(enc, uint16(i), 12)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(packetStream(frags...))
		if n := len(frags); n > 1 {
			swapped := append([][]byte(nil), frags...)
			swapped[0], swapped[n-1] = swapped[n-1], swapped[0]
			f.Add(packetStream(swapped...))
			f.Add(packetStream(frags[:n-1]...))
			f.Add(packetStream(frags[0], frags[0][:3], frags[1][:fragHeader]))
		}
	}
	// A duplicated empty-payload fragment once counted twice and completed
	// an element whose last fragment never arrived.
	f.Add(packetStream([]byte{0, 1, 0, 3, tagInt16, 0, 5}, []byte{0, 1, 1, 3}, []byte{0, 1, 1, 3}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Reassembler
		var seq uint16
		var count, offered int // the fragment set in progress
		seen := map[int]bool{}
		for len(data) > 0 {
			n := min(int(data[0]), len(data)-1)
			pkt := data[1 : 1+n]
			data = data[1+n:]
			v, ok, err := r.Offer(pkt)
			if len(pkt) < fragHeader || pkt[3] == 0 || pkt[2] >= pkt[3] {
				if err == nil {
					t.Fatalf("bad header % x accepted", pkt)
				}
				continue
			}
			if s, c := binary.BigEndian.Uint16(pkt), int(pkt[3]); len(seen) == 0 || s != seq || c != count {
				seq, count, offered = s, c, 0
				clear(seen)
			}
			if !seen[int(pkt[2])] {
				seen[int(pkt[2])] = true
				offered += len(pkt) - fragHeader
			}
			if done := ok || err != nil; done != (len(seen) == count) {
				t.Fatalf("element %d: completed=%v with %d of %d fragments offered", seq, done, len(seen), count)
			}
			if ok {
				if enc, err := Marshal(v); err != nil || len(enc) > offered {
					t.Fatalf("returned %T encodes to %d bytes (err %v), %d were offered", v, len(enc), err, offered)
				}
			}
			if len(seen) == count {
				clear(seen)
			}
		}
	})
}

// fuzzValue builds a value from fuzzer bytes: kind picks the type — every
// one the codec encodes, and a few it rejects — data the contents, and
// shape a slice's form: nil (0), exactly its length (1), or with spare
// capacity (2).
func fuzzValue(kind, shape byte, data []byte) dataflow.Value {
	var w [8]byte
	copy(w[:], data)
	u := binary.BigEndian.Uint64(w[:])
	switch kind % 17 {
	case 0:
		return nil
	case 1:
		return u&1 == 1
	case 2:
		return int16(u)
	case 3:
		return int32(u)
	case 4:
		return int64(u)
	case 5:
		return int(u)
	case 6:
		return math.Float32frombits(uint32(u))
	case 7:
		return math.Float64frombits(u)
	case 8:
		return fuzzSlice(shape, len(data), func(i int) byte { return data[i] })
	case 9:
		return string(data)
	case 10:
		return fuzzSlice(shape, len(data)/2, func(i int) int16 { return int16(binary.BigEndian.Uint16(data[2*i:])) })
	case 11:
		return fuzzSlice(shape, len(data)/4, func(i int) int32 { return int32(binary.BigEndian.Uint32(data[4*i:])) })
	case 12:
		return fuzzSlice(shape, len(data)/4, func(i int) float32 { return math.Float32frombits(binary.BigEndian.Uint32(data[4*i:])) })
	case 13:
		return fuzzSlice(shape, len(data)/8, func(i int) float64 { return math.Float64frombits(binary.BigEndian.Uint64(data[8*i:])) })
	case 14:
		return struct{ X uint64 }{u}
	case 15:
		return fuzzSlice(shape, len(data)/8, func(i int) int { return int(binary.BigEndian.Uint64(data[8*i:])) })
	default:
		return uint8(u)
	}
}

func fuzzSlice[T any](shape byte, n int, elem func(int) T) []T {
	if shape%3 == 0 && n == 0 {
		return nil
	}
	s := make([]T, n, n+int(shape%3/2)*3)
	for i := range s {
		s[i] = elem(i)
	}
	return s
}

// FuzzWireSize holds the closed forms in-process delivery relies on to the
// codec: Size is the length Marshal encodes to (and fails exactly where
// Marshal does), and Canonical is what Unmarshal decodes — the same
// dynamic type, the same bits, a slice nil exactly when the decoder's is,
// and no spare capacity.
func FuzzWireSize(f *testing.F) {
	for kind := byte(0); kind < 17; kind++ {
		for shape := byte(0); shape < 3; shape++ {
			f.Add(kind, shape, []byte{})
			f.Add(kind, shape, []byte{0x80, 1, 2, 3, 0xff, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
		}
	}
	for _, n := range []int{127, 128, 16383, 16384} { // uvarint length boundaries
		f.Add(byte(8), byte(1), make([]byte, n))
		f.Add(byte(10), byte(2), make([]byte, 2*n))
	}
	f.Fuzz(func(t *testing.T, kind, shape byte, data []byte) {
		v := fuzzValue(kind, shape, data)
		n, ok := Size(v)
		enc, err := Marshal(v)
		if ok != (err == nil) {
			t.Fatalf("%T: Size ok=%v, Marshal err=%v", v, ok, err)
		}
		if !ok {
			return
		}
		if n != len(enc) {
			t.Fatalf("%T: Size %d, Marshal %d bytes", v, n, len(enc))
		}
		want, _, err := Unmarshal(enc)
		if err != nil {
			t.Fatal(err)
		}
		got := Canonical(v)
		if reflect.TypeOf(got) != reflect.TypeOf(want) {
			t.Fatalf("Canonical(%T) is %T, Unmarshal gives %T", v, got, want)
		}
		if genc, err := Marshal(got); err != nil || !bytes.Equal(genc, enc) {
			t.Fatalf("Canonical(%T) encodes to % x (err %v), want % x", v, genc, err, enc)
		}
		if rw := reflect.ValueOf(want); rw.Kind() == reflect.Slice {
			rg := reflect.ValueOf(got)
			if rg.IsNil() != rw.IsNil() || rg.Cap() != rg.Len() {
				t.Fatalf("Canonical(%T): nil=%v cap=%d len=%d, Unmarshal nil=%v",
					v, rg.IsNil(), rg.Cap(), rg.Len(), rw.IsNil())
			}
		}
	})
}

// TestSavePartialSnapshot pins the by-value partial frame against the
// Reassembler's own: offered the fragments in a mask, a Reassembler saves
// exactly what SavePartialSnapshot writes from the encoding.
func TestSavePartialSnapshot(t *testing.T) {
	frame := make([]int16, 203)
	for i := range frame {
		frame[i] = int16(i*7 - 300)
	}
	enc, err := Marshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	const payload = 28
	frags, err := Fragment(enc, 65535, payload)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		var have FragmentMask
		var r Reassembler
		for i, f := range frags[:len(frags)-1] { // one always missing: a partial
			if rng.Intn(2) == 0 {
				continue
			}
			have.Set(i)
			if _, done, err := r.Offer(f); err != nil || done {
				t.Fatalf("offer %d: done=%v err=%v", i, done, err)
			}
		}
		if _, _, ok := r.Pending(); !ok {
			continue // nothing offered: no partial to compare
		}
		want, err := r.SaveSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		got, err := SavePartialSnapshot(65535, len(frags), enc, payload, &have)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: partial frame\n% x\nwant\n% x", trial, got, want)
		}
	}
}
