package runtime

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	goruntime "runtime"
	"testing"

	"wishbone/internal/apps/speech"
	"wishbone/internal/dataflow"
	"wishbone/internal/platform"
)

// refDecode is the reference the arena decode must match exactly: the
// decode-then-Offer path's semantics, one json.Unmarshal per value.
func refDecode(typ string, raw []byte) (dataflow.Value, error) {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("arrival with empty value")
	}
	into := func(v any) (dataflow.Value, error) {
		if err := json.Unmarshal(trimmed, v); err != nil {
			return nil, fmt.Errorf("bad arrival value (type %q): %v", typ, err)
		}
		return reflect.ValueOf(v).Elem().Interface(), nil
	}
	switch typ {
	case "":
		if trimmed[0] == '[' {
			return into(&[]float64{})
		}
		return into(new(float64))
	case "f64":
		return into(new(float64))
	case "i64":
		return into(new(int64))
	case "f64s":
		return into(&[]float64{})
	case "f32s":
		return into(&[]float32{})
	case "i32s":
		return into(&[]int32{})
	case "i16s":
		return into(&[]int16{})
	case "bytes":
		return into(&[]byte{})
	default:
		return nil, fmt.Errorf("unknown arrival value type %q", typ)
	}
}

// ingestDecodeCases is every supported type and the malformed inputs a
// client can send: TestIngestDecodeParity's table and FuzzIngestDecode's
// seeds.
var ingestDecodeCases = []struct{ typ, raw string }{
	{"", "3.5"}, {"", "-0"}, {"", "1e3"}, {"", "[1.5,2.5]"}, {"", "[]"},
	{"", "null"}, {"", `"x"`}, {"", ""}, {"", "  "},
	{"f64", "2.25"}, {"f64", "bad"},
	{"i64", "123456789012"}, {"i64", "1.5"}, {"i64", "1e3"},
	{"f64s", "[0.125, -7]"}, {"f64s", "[1,2"}, {"f64s", "null"},
	{"f32s", "[0.5,1.5]"}, {"f32s", "{}"},
	{"bytes", `"aGVsbG8="`}, {"bytes", `"!!!"`}, {"bytes", "[1,2]"},
	// Integer arrays: the scanner's happy path...
	{"i16s", "[1,2,3]"}, {"i16s", "[]"}, {"i16s", "[ -5 ,\t7 ,\n0 ]"},
	{"i16s", "[-32768,32767]"}, {"i16s", "[-0]"},
	{"i32s", "[2147483647,-2147483648]"}, {"i32s", "[1000000]"},
	// ...and every shape that must fall back to encoding/json.
	{"i16s", "[32768]"}, {"i16s", "[-32769]"}, {"i16s", "[1.5]"},
	{"i16s", "[1e2]"}, {"i16s", "[01]"}, {"i16s", "[+1]"},
	{"i16s", "[1,]"}, {"i16s", "[1 2]"}, {"i16s", "[1,2]x"},
	{"i16s", "[99999999999999999999999]"}, {"i16s", "null"},
	{"i16s", `["1"]`}, {"i16s", "[--1]"}, {"i16s", "[-]"}, {"i16s", "["},
	{"i32s", "[2147483648]"}, {"i32s", "[1.0]"},
	// A null element leaves encoding/json's target untouched: what the
	// previous value left in the reused scratch must not show through.
	{"f64s", "[null,2]"}, {"f32s", "[null]"}, {"bytes", "[null,3]"},
	{"i16s", "[null,4]"}, {"i32s", "[5,null]"},
	// Unknown hint.
	{"nope", "1"},
}

// TestIngestDecodeParity pins the zero-copy decode — including the
// hand-rolled integer scanner and its fallback — against encoding/json on
// every supported type and the malformed inputs a client can send: values
// and error messages must both match.
func TestIngestDecodeParity(t *testing.T) {
	a := &ingestArena{}
	for _, tc := range ingestDecodeCases {
		want, wantErr := refDecode(tc.typ, []byte(tc.raw))
		got, gotErr := a.decode(tc.typ, []byte(tc.raw), false)
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("decode(%q, %q): err %v, want %v", tc.typ, tc.raw, gotErr, wantErr)
			continue
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("decode(%q, %q): err %q, want %q", tc.typ, tc.raw, gotErr, wantErr)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("decode(%q, %q) = %#v, want %#v", tc.typ, tc.raw, got, want)
		}
		// The discard path (beyond-duration arrivals) must agree on
		// validity.
		if _, err := a.decode(tc.typ, []byte(tc.raw), true); (err == nil) != (wantErr == nil) {
			t.Errorf("decode(%q, %q, discard): err %v, want %v", tc.typ, tc.raw, err, wantErr)
		}
	}
}

// FuzzIngestDecode holds the arena decode — scanner, fallback and reused
// scratch — to encoding/json under every type hint: the same value, an
// error exactly when json reports one, and never a panic (scanInts
// indexing past its input would be one). Each input is decoded behind an
// earlier value of the same type, the way a session decodes a stream
// through one arena: nothing the earlier value left in the scratch may
// show in the later one.
func FuzzIngestDecode(f *testing.F) {
	types := []string{"", "f64", "i64", "f64s", "f32s", "i32s", "i16s", "bytes", "nope"}
	for _, tc := range ingestDecodeCases {
		for i, typ := range types {
			if typ == tc.typ {
				f.Add(uint8(i), []byte(tc.raw))
			}
		}
	}
	f.Fuzz(func(t *testing.T, hint uint8, raw []byte) {
		typ := types[int(hint)%len(types)]
		a := &ingestArena{}
		a.decode(typ, []byte("[7,7,7,7,7,7,7,7]"), false)
		want, wantErr := refDecode(typ, raw)
		got, gotErr := a.decode(typ, raw, false)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decode(%q, %q): err %v, json says %v", typ, raw, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decode(%q, %q) = %#v, json says %#v", typ, raw, got, want)
		}
		if _, err := a.decode(typ, raw, true); (err == nil) != (wantErr == nil) {
			t.Fatalf("decode(%q, %q, discard): err %v, json says %v", typ, raw, err, wantErr)
		}
	})
}

// TestIngestDecodeDoesNotAliasInput pins OfferRaw's buffer-reuse
// contract: the decoded value must not share memory with the raw JSON
// input, and successive decodes must not share memory with each other
// (each value is carved from the arena, not a reused scratch).
func TestIngestDecodeDoesNotAliasInput(t *testing.T) {
	a := &ingestArena{}
	raw := []byte("[1,2,3]")
	v1, err := a.decode("i16s", raw, false)
	if err != nil {
		t.Fatal(err)
	}
	copy(raw, []byte("[9,9,9]"))
	v2, err := a.decode("i16s", raw, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := v1.([]int16); !reflect.DeepEqual(got, []int16{1, 2, 3}) {
		t.Fatalf("first value corrupted by input reuse: %v", got)
	}
	if got := v2.([]int16); !reflect.DeepEqual(got, []int16{9, 9, 9}) {
		t.Fatalf("second value wrong: %v", got)
	}
	a.rotate()
	v3, err := a.decode("i16s", []byte("[4,5]"), false)
	if err != nil {
		t.Fatal(err)
	}
	if got := v1.([]int16); !reflect.DeepEqual(got, []int16{1, 2, 3}) {
		t.Fatalf("pre-rotation value corrupted by post-rotation decode: %v", got)
	}
	if got := v3.([]int16); !reflect.DeepEqual(got, []int16{4, 5}) {
		t.Fatalf("post-rotation value wrong: %v", got)
	}
}

// TestIngestArenaReusesBlocks pins the arena's whole point in bytes (a
// malloc count cannot see one 32 KB block per arrival: it is one malloc):
// carve must keep serving a block until it is full, hand out disjoint
// cap-limited pieces of it, and start a new one after rotate. In a session
// a block is carved again only after the rotate that follows its window's
// join, and never while the proof fails or a replay tail still names the
// window.
func TestIngestArenaReusesBlocks(t *testing.T) {
	a := &ingestArena{}
	decode := func(raw string) []int16 {
		t.Helper()
		v, err := a.decode("i16s", []byte(raw), false)
		if err != nil {
			t.Fatal(err)
		}
		return v.([]int16)
	}
	// block identifies the arena's current int16 block by its first element.
	block := func() *int16 { return &a.i16.blk[:1][0] }

	v1 := decode("[1,2,3]")
	b1 := block()
	v2 := decode("[4,5]")
	if block() != b1 {
		t.Fatal("two values carved in one generation do not share a block")
	}
	if cap(v1) != len(v1) || cap(v2) != len(v2) {
		t.Fatalf("carved values can grow into their neighbours: cap %d/%d, len %d/%d", cap(v1), cap(v2), len(v1), len(v2))
	}
	if &a.i16.blk[len(v1)] != &v2[0] {
		t.Fatal("second value is not carved right after the first")
	}
	_ = append(v1, 99) // must reallocate, not scribble on v2
	if !reflect.DeepEqual(v2, []int16{4, 5}) {
		t.Fatalf("append through the first value corrupted the second: %v", v2)
	}
	a.rotate()
	decode("[6]")
	if block() == b1 {
		t.Fatal("a value carved after rotate shares the previous generation's block")
	}
	// An oversized value gets a block of its own size, not a clamp.
	if big := a.i16.carve(2*ingestBlockElems, a.reuse); len(big) != 2*ingestBlockElems || cap(big) != len(big) {
		t.Fatalf("oversized carve: len %d cap %d", len(big), cap(big))
	}
	// Under the proof, a released generation's blocks come back — but not
	// before the release, and not to the generation they were closed from.
	a = &ingestArena{reuse: true}
	decode("[1]")
	b1 = block()
	a.rotate()
	decode("[2]")
	b2 := block()
	if b2 == b1 {
		t.Fatal("a block was carved again before its generation was released")
	}
	a.release()
	decode("[3]")
	if block() != b2 {
		t.Fatal("a release moved the open generation off its block")
	}
	a.rotate()
	decode("[4]")
	if block() != b1 {
		t.Fatal("the block of a released generation was not carved again")
	}

	// In a session: one 200-sample frame per window, so each window's
	// first value starts its own block (blocks[w]).
	app := speech.New()
	frame, err := json.Marshal(app.SampleTrace(1, 1).Events[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		keeps bool  // preemph declared as keeping its input: the proof fails
		every int   // recovery cadence; 0 disarmed
		same  []int // windows with one number carve one block
	}{
		// Window 0's deliveries are joined when window 1 flushes; the
		// rotate after that join is the first that lets window 2 carve
		// window 0's block. Two blocks then take turns.
		{name: "proof", same: []int{0, 1, 0, 1, 0, 1}},
		{name: "failing proof", keeps: true, same: []int{0, 1, 2, 3, 4, 5}},
		// The checkpoint after window 2 drops the tail that named windows
		// 0–2; only then are their blocks carved again.
		{name: "pinning tail", every: 3, same: []int{0, 1, 2, 2, 1, 0}},
	} {
		app := speech.New()
		app.Pipeline[1].Borrows = !tc.keeps
		onNode := map[int]bool{app.Pipeline[0].ID(): true}
		cfg := Config{
			Graph: app.Graph, OnNode: onNode, Platform: platform.TMoteSky(),
			Nodes: 1, Duration: 7, WindowSeconds: 1, Seed: 1,
		}
		h, err := NewShardHost(cfg, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := NewDistSession(cfg, []HostBinding{{Driver: h, Origins: []int{0}}})
		if err != nil {
			t.Fatal(err)
		}
		if tc.every > 0 {
			sess.EnableRecovery(&DistRecovery{Every: tc.every, Reopen: func(Config, int, []int, []byte) (HostDriver, error) {
				return nil, fmt.Errorf("no host is lost in this test")
			}})
		}
		var blocks []*int16
		for w := 0; w < 6; w++ {
			if err := sess.OfferRaw(0, float64(w), app.Pipeline[0], "i16s", frame); err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, &sess.ingest.i16.blk[:1][0])
		}
		if _, err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		for w := range blocks {
			for prev := 0; prev < w; prev++ {
				if got, want := blocks[w] == blocks[prev], tc.same[w] == tc.same[prev]; got != want {
					t.Errorf("%s: window %d carves window %d's block = %v, want %v", tc.name, w, prev, got, want)
				}
			}
		}
	}

	// End to end: 1 000 speech frames through OfferRaw inside one window
	// (nothing flushes, so this is the ingest path alone) cost the frame's
	// own 400 bytes plus its interface box and buffer slot — not a 32 KB
	// block each.
	onNode := make(map[int]bool)
	for i, op := range app.Pipeline {
		onNode[op.ID()] = i < 1
	}
	sess, err := NewSession(Config{
		Graph: app.Graph, OnNode: onNode, Platform: platform.TMoteSky(),
		Nodes: 1, Duration: 100, WindowSeconds: 100, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const arrivals = 1000
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for k := 0; k < arrivals; k++ {
		if err := sess.OfferRaw(0, float64(k)/speech.FrameRate, app.Pipeline[0], "i16s", frame); err != nil {
			t.Fatal(err)
		}
	}
	goruntime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / arrivals; per >= 1024 {
		t.Errorf("OfferRaw ingest allocates %d B per %d-byte arrival, want < 1 KB", per, 2*speech.FrameSamples)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}
