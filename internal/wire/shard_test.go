package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"wishbone/internal/dataflow"
)

// Bit patterns a float round trip must keep: NaNs with payloads, negative
// zero.
var (
	nan32  = math.Float32frombits(0x7fc00001)
	nan64  = math.Float64frombits(0x7ff8000000000123)
	negNaN = math.Float64frombits(0xfff0000000000001)
	negZ32 = float32(math.Copysign(0, -1))
	negZ64 = math.Copysign(0, -1)
)

// shardCodecCases pairs every element type Marshal supports with what the
// record decoder must hand the host, written out rather than derived from
// the codec: int widens to int64, an empty []byte comes back nil, a nil
// numeric slice comes back empty.
var shardCodecCases = []struct{ in, want dataflow.Value }{
	{nil, nil},
	{true, true},
	{false, false},
	{int16(-12345), int16(-12345)},
	{int32(math.MinInt32), int32(math.MinInt32)},
	{int(-42), int64(-42)},
	{int64(math.MaxInt64), int64(math.MaxInt64)},
	{float32(3.25), float32(3.25)},
	{nan32, nan32},
	{negZ32, negZ32},
	{float64(-2.5e-3), float64(-2.5e-3)},
	{nan64, nan64},
	{negZ64, negZ64},
	{math.Inf(-1), math.Inf(-1)},
	{"", ""},
	{"wishbone \x00\xff", "wishbone \x00\xff"},
	{[]byte(nil), []byte(nil)},
	{[]byte{}, []byte(nil)},
	{[]byte{0, 1, 255}, []byte{0, 1, 255}},
	{[]int16(nil), []int16{}},
	{[]int16{}, []int16{}},
	{[]int16{-1, 0, 32767, -32768}, []int16{-1, 0, 32767, -32768}},
	{[]int32(nil), []int32{}},
	{[]int32{math.MaxInt32, -9}, []int32{math.MaxInt32, -9}},
	{[]float32(nil), []float32{}},
	{[]float32{nan32, negZ32, 1.5}, []float32{nan32, negZ32, 1.5}},
	{[]float64(nil), []float64{}},
	{[]float64{}, []float64{}},
	{[]float64{nan64, negNaN, negZ64, math.Pi}, []float64{nan64, negNaN, negZ64, math.Pi}},
}

// sameBits reports how got differs from want: dynamic type, nil-ness of a
// slice, length, or the bits of any element (so NaN payloads and signed
// zeros count).
func sameBits(got, want dataflow.Value) error {
	if reflect.TypeOf(got) != reflect.TypeOf(want) {
		return fmt.Errorf("type %T, want %T", got, want)
	}
	rg, rw := reflect.ValueOf(got), reflect.ValueOf(want)
	if rw.Kind() != reflect.Slice {
		if scalarBits(rg) != scalarBits(rw) {
			return fmt.Errorf("%#v, want %#v", got, want)
		}
		return nil
	}
	if rg.IsNil() != rw.IsNil() || rg.Len() != rw.Len() {
		return fmt.Errorf("%T nil=%v len=%d, want nil=%v len=%d", got, rg.IsNil(), rg.Len(), rw.IsNil(), rw.Len())
	}
	for i := 0; i < rw.Len(); i++ {
		if scalarBits(rg.Index(i)) != scalarBits(rw.Index(i)) {
			return fmt.Errorf("%T element %d: %v, want %v", got, i, rg.Index(i), rw.Index(i))
		}
	}
	return nil
}

// scalarBits is a scalar's identity: its bit pattern for a float, its value
// otherwise.
func scalarBits(v reflect.Value) any {
	switch v.Kind() {
	case reflect.Invalid:
		return nil
	case reflect.Float32:
		return math.Float32bits(v.Interface().(float32))
	case reflect.Float64:
		return math.Float64bits(v.Interface().(float64))
	}
	return v.Interface()
}

// TestShardArrivalsRoundTrip is the value oracle of the compute body: the
// distributed parity suites compare speech Results, which hold counts and
// bytes only, so a record codec that corrupted a sample would pass them.
// Every element type comes back with the type, nil-ness and bits written
// out in shardCodecCases, and node, source, time bits and the header
// with it.
func TestShardArrivalsRoundTrip(t *testing.T) {
	req := ShardComputeRequest{Session: "s\"\\\n\x01é", Window: 1 << 40}
	times := []float64{0, negZ64, nan64, 1e-300, math.MaxFloat64}
	for i, c := range shardCodecCases {
		req.Arrivals = append(req.Arrivals, ShardArrival{
			Node: i * 977 % (maxShardID + 1), Source: maxShardID - i, Time: times[i%len(times)], Value: c.in,
		})
	}
	body, err := AppendShardCompute(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	head, tail, ok := bytes.Cut(body, []byte("\n"))
	if !ok {
		t.Fatal("no header line")
	}
	var hdr ShardComputeRequest
	if err := json.Unmarshal(head, &hdr); err != nil {
		t.Fatalf("header %q: %v", head, err)
	}
	if hdr.Session != req.Session || hdr.Window != req.Window {
		t.Fatalf("header decodes to %q window %d, want %q window %d", hdr.Session, hdr.Window, req.Session, req.Window)
	}
	got, err := DecodeShardArrivals(nil, tail)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(req.Arrivals) {
		t.Fatalf("decoded %d arrivals, want %d", len(got), len(req.Arrivals))
	}
	for i, a := range req.Arrivals {
		g := got[i]
		if g.Node != a.Node || g.Source != a.Source || math.Float64bits(g.Time) != math.Float64bits(a.Time) {
			t.Errorf("arrival %d: node %d source %d t %x, want %d %d %x", i,
				g.Node, g.Source, math.Float64bits(g.Time), a.Node, a.Source, math.Float64bits(a.Time))
		}
		if err := sameBits(g.Value, shardCodecCases[i].want); err != nil {
			t.Errorf("arrival %d (%T): %v", i, a.Value, err)
		}
	}

	// Decoded values own their memory: the tail may be reused.
	for i := range tail {
		tail[i] = 0xa5
	}
	for i, g := range got {
		if err := sameBits(g.Value, shardCodecCases[i].want); err != nil {
			t.Fatalf("arrival %d changed with the tail it came from: %v", i, err)
		}
	}
}

// TestShardArrivalsRejects pins the codec's refusals: a record cut
// anywhere inside, an ID past maxShardID on either side, an element type
// Marshal does not support.
func TestShardArrivalsRejects(t *testing.T) {
	one, err := AppendShardArrivals(nil, []ShardArrival{{Node: 300, Source: 7, Time: 1, Value: []int16{1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	two := append(append([]byte(nil), one...), one...)
	for n := len(one) + 1; n < len(two); n++ {
		if as, err := DecodeShardArrivals(nil, two[:n]); err == nil {
			t.Errorf("record cut at byte %d of %d decoded: %+v", n-len(one), len(one), as)
		}
	}
	for _, a := range []ShardArrival{{Node: -1}, {Source: -1}, {Node: maxShardID + 1}, {Value: struct{}{}}} {
		if _, err := AppendShardArrivals(nil, []ShardArrival{a}); err == nil {
			t.Errorf("%+v encoded", a)
		}
	}
	for _, ids := range [][]byte{recordIDs(maxShardID+1, 0), recordIDs(0, maxShardID+1)} {
		if _, err := DecodeShardArrivals(nil, append(ids, make([]byte, 9)...)); err == nil {
			t.Errorf("ID prefix % x past maxShardID decoded", ids)
		}
	}
}

// recordIDs is a record's ID prefix with node and source as given,
// unchecked.
func recordIDs(node, source uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(nil, node), source)
}

// allocatedBy is the heap bytes f allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzShardArrivals holds the compute body's record decoder to the decoder
// contract: never panic on arbitrary bytes, never allocate more than a
// small multiple of its input, and decode→encode is a fixed point (the
// canonical form of what it accepted: minimal varints, bools as 0/1).
func FuzzShardArrivals(f *testing.F) {
	var all []ShardArrival
	for i, c := range shardCodecCases {
		all = append(all, ShardArrival{Node: i, Source: 2 * i, Time: float64(i) / 4, Value: c.in})
	}
	enc, err := AppendShardArrivals(nil, all)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add(append(recordIDs(1, 2), make([]byte, 8)...))
	f.Add(append(append(recordIDs(0, 0), make([]byte, 8)...), hostileLen(tagFloat64s, 1<<61)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var as []ShardArrival
		var err error
		if alloc := allocatedBy(func() { as, err = DecodeShardArrivals(nil, data) }); alloc > uint64(len(data))*96+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		enc, err := AppendShardArrivals(nil, as)
		if err != nil {
			t.Fatalf("decoded arrivals do not re-encode: %v", err)
		}
		again, err := DecodeShardArrivals(nil, enc)
		if err != nil || len(again) != len(as) {
			t.Fatalf("re-encoded arrivals decode to %d of %d (err %v)", len(again), len(as), err)
		}
		if enc2, err := AppendShardArrivals(nil, again); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("decode→encode is not a fixed point: % x vs % x (err %v)", enc, enc2, err)
		}
	})
}
