package runtime

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"wishbone/internal/apps/eeg"
	"wishbone/internal/apps/speech"
	"wishbone/internal/platform"
	"wishbone/internal/wire"
	"wishbone/internal/wscript"
)

// allocatedBy reports the heap bytes f allocates (the test runs f on its
// own goroutine with nothing else allocating).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// goldenConfig is the run identity of testdata/ (snapshot_format_test.go's
// goldenRun), as far as the decoders consult it.
func goldenConfig() *Config {
	app := speech.New()
	return &Config{Graph: app.Graph, Platform: platform.Gumstix(), Nodes: 4}
}

// opWithState returns the ID of c's first operator whose state has the
// named type and a load hook.
func opWithState(t testing.TB, c *Config, stateType string) int {
	for _, op := range c.Graph.Operators() {
		if op.LoadState != nil && fmt.Sprintf("%T", op.NewState()) == stateType {
			return op.ID()
		}
	}
	t.Fatalf("no operator with %s state", stateType)
	return -1
}

// hostile builds a snapshot that is well-formed up to a section count,
// where it claims count elements and ends.
func hostile(count uint64, prefix func(w *wire.SnapshotWriter)) []byte {
	w := wire.NewSnapshotWriter()
	prefix(w)
	w.Uvarint(count)
	return w.Bytes()
}

// hostileScript has both kinds of wscript operator state: an iterate's
// *wvm.State and a zip buffer.
const hostileScript = `
namespace Node {
  a = source("a", 8);
  b = source("b", 8);
  sums = iterate p in zip(a, b) state { n = 0; } { n = n + 1; emit p[0] + p[1] + n; };
}
main = sums;
`

// TestSnapshotHostileCounts pins that no decoder sizes an allocation from
// a count the remaining bytes cannot back: 1<<62 used to panic makeslice,
// 1<<33 to allocate tens of gigabytes, 1<<20 (under the old wvm slot cap)
// 16 MiB from a 5-byte wscript state. Every section count of the session
// and host formats gets all three, and so does every count inside the
// built-in apps' and wscript's operator-state blobs, which their LoadState
// hooks decode on the apply side of the same resume fields.
func TestSnapshotHostileCounts(t *testing.T) {
	cfg := goldenConfig()
	eegCfg := &Config{Graph: eeg.NewWithChannels(1).Graph}
	script, err := wscript.CompileOpts(hostileScript, wscript.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wsCfg := &Config{Graph: script.Graph}
	opState := func(c *Config, stateType string) func(data []byte) error {
		id := opWithState(t, c, stateType)
		return func(data []byte) error {
			_, _, err := loadOpState(c, OpState{Op: id, Data: data})
			return err
		}
	}
	none := func(w *wire.SnapshotWriter) {}
	one := func(w *wire.SnapshotWriter) { w.Uvarint(1) }
	hash := cfg.Graph.StructuralHash()
	nEdges := len(cfg.Graph.Edges())
	// nested opens 64 wvm arrays (tag 5), each but the last claiming 1024
	// elements, inside one state slot: every level used to presize its
	// elements before the bytes behind them were read.
	nested := func(w *wire.SnapshotWriter) {
		for i := 0; i < 63; i++ {
			w.Byte(5)
			w.Uvarint(1024)
		}
		w.Byte(5)
	}
	nodeScalars := func(w *wire.SnapshotWriter) {
		w.F64(0)
		w.F64(0)
		w.Int(0)
		w.Int(0)
	}
	// section decodes data as one section of the session and host
	// layouts, walked on its own.
	section := func(walk func(c *wire.Codec)) func(data []byte) error {
		return func(data []byte) error { return wire.Decode(data, walk) }
	}
	nodeSide := section(func(c *wire.Codec) { new(nodeSnap).walk(c, nEdges) })
	shardState := section(func(c *wire.Codec) { new(ShardState).walk(c) })
	cases := []struct {
		name   string
		prefix func(w *wire.SnapshotWriter)
		decode func(data []byte) error
	}{
		{"session onNode", func(w *wire.SnapshotWriter) { w.String(hash) },
			func(data []byte) error { _, err := decodeSessionSnap(cfg.Graph, data); return err }},
		{"host origins", func(w *wire.SnapshotWriter) { w.Int(0); w.Int(0) },
			func(data []byte) error { _, err := decodeHostSnap(cfg, data); return err }},
		{"node sequences", nodeScalars, nodeSide},
		{"node operator states", func(w *wire.SnapshotWriter) { nodeScalars(w); w.Uvarint(0) }, nodeSide},
		{"shard origins", func(w *wire.SnapshotWriter) { w.Int(0); w.Int(0); w.Int(0) }, shardState},
		{"origin streams", func(w *wire.SnapshotWriter) {
			w.Int(0)
			w.Int(0)
			w.Int(0)
			w.Uvarint(1)
			w.Int(0)
			w.Uvarint(0)
		}, shardState},
		{"operator states", none, section(func(c *wire.Codec) { walkOpStates(c, new([]OpState)) })},
		{"speech prefilt taps", none, opState(cfg, "*speech.prefiltState")},
		{"eeg FIR taps", none, opState(eegCfg, "*eeg.firState")},
		{"eeg zip2 blocks", none, opState(eegCfg, "*eeg.zip2State")},
		{"eeg zip2 block samples", one, opState(eegCfg, "*eeg.zip2State")},
		{"eeg zip ports", none, opState(eegCfg, "*eeg.zipState")},
		{"eeg zip queue", one, opState(eegCfg, "*eeg.zipState")},
		{"eeg zip feature vector", func(w *wire.SnapshotWriter) { w.Uvarint(1); w.Uvarint(1); w.Byte(1) },
			opState(eegCfg, "*eeg.zipState")},
		{"wscript state slots", func(w *wire.SnapshotWriter) { w.Uvarint(0) },
			opState(wsCfg, "*wvm.State")},
		{"wscript nested containers", func(w *wire.SnapshotWriter) { w.Uvarint(0); w.Uvarint(1); nested(w) },
			opState(wsCfg, "*wvm.State")},
		{"wscript zip queue", func(w *wire.SnapshotWriter) { w.Uvarint(0); w.Uvarint(2) },
			opState(wsCfg, "*wscript.zipVMState")},
		{"wscript zip nested containers", func(w *wire.SnapshotWriter) { w.Uvarint(0); w.Uvarint(2); w.Uvarint(1); nested(w) },
			opState(wsCfg, "*wscript.zipVMState")},
	}
	for _, tc := range cases {
		for _, count := range []uint64{1 << 62, 1 << 33, 1 << 20} {
			data := hostile(count, tc.prefix)
			var err error
			alloc := allocatedBy(func() { err = tc.decode(data) })
			if err == nil {
				t.Errorf("%s: count %d over %d bytes decoded without error", tc.name, count, len(data))
			}
			if alloc >= 1<<20 {
				t.Errorf("%s: count %d over %d bytes allocated %d bytes before failing", tc.name, count, len(data), alloc)
			}
		}
	}
}

// hostileFIRStates are four delay-line blobs that decode cleanly and used
// to be stored unchecked, to panic in FIRBlockInto on the session's first
// delivered frame: a cursor before the line, a cursor past it, no taps,
// and fewer taps than the 4-tap filter has coefficients.
func hostileFIRStates() map[string][]byte {
	blob := func(taps int, pos int64) []byte {
		w := wire.NewSnapshotWriter()
		w.Uvarint(uint64(taps))
		for i := 0; i < taps; i++ {
			w.F64(float64(i))
		}
		w.Int(pos)
		return w.Bytes()
	}
	return map[string][]byte{
		"cursor -1":       blob(4, -1),
		"cursor past end": blob(4, 4),
		"no taps":         blob(0, 0),
		"three taps":      blob(3, 0),
	}
}

// TestSnapshotHostileFIRState pins that both applications' FIR load hooks
// refuse those blobs (and still accept a well-formed line).
func TestSnapshotHostileFIRState(t *testing.T) {
	eegCfg := &Config{Graph: eeg.NewWithChannels(1).Graph}
	for _, app := range []struct {
		cfg       *Config
		stateType string
	}{{goldenConfig(), "*speech.prefiltState"}, {eegCfg, "*eeg.firState"}} {
		id := opWithState(t, app.cfg, app.stateType)
		for name, data := range hostileFIRStates() {
			if _, _, err := loadOpState(app.cfg, OpState{Op: id, Data: data}); err == nil {
				t.Errorf("%s: %s loaded without error", app.stateType, name)
			}
		}
		op := app.cfg.Graph.ByID(id)
		good, err := op.SaveState(op.NewState())
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := loadOpState(app.cfg, OpState{Op: id, Data: good}); err != nil {
			t.Errorf("%s: a fresh state does not load: %v", app.stateType, err)
		}
	}
}

// carriedStates lists every operator state a decoded snapshot carries:
// the node sides' and the delivery shards' (st may be nil).
func carriedStates(sides []nodeSnap, st *ShardState) []*OpState {
	var all []*OpState
	for i := range sides {
		for j := range sides[i].ops {
			all = append(all, &sides[i].ops[j])
		}
	}
	if st != nil {
		for i := range st.Origins {
			for j := range st.Origins[i].Ops {
				all = append(all, &st.Origins[i].Ops[j])
			}
		}
		for j := range st.Server {
			all = append(all, &st.Server[j])
		}
	}
	return all
}

// withFIRState replaces every state of the golden run's prefilt operator;
// a golden blob that carries none makes no seed.
func withFIRState(f *testing.F, cfg *Config, states []*OpState, data []byte) {
	fir, replaced := opWithState(f, cfg, "*speech.prefiltState"), 0
	for _, os := range states {
		if os.Op == fir {
			os.Data = data
			replaced++
		}
	}
	if replaced == 0 {
		f.Fatal("the golden blob carries no prefilt state")
	}
}

// loadStates hands every carried state to its operator's load hook, as
// restoring would: the decoders leave those blobs opaque, and a hook must
// answer a client's bytes with a state or an error, never a panic.
func loadStates(cfg *Config, states []*OpState) {
	for _, os := range states {
		loadOpState(cfg, *os)
	}
}

// maxDecodeAlloc bounds what decoding n snapshot bytes may allocate. The
// densest element, an absent pending reduce round, is one byte on the
// wire and a 40-byte pendSnap decoded; append growth can double that.
func maxDecodeAlloc(n int) uint64 { return uint64(n)*96 + 64<<10 }

// encoded returns an encoder's bytes; the encoders fail only on a state
// no decoder accepted, so an error is a bug of the walk.
func encoded(data []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return data
}

func readGolden(f *testing.F, name string) []byte {
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzDecodeSessionSnap feeds arbitrary bytes to the one session-snapshot
// decoder: it must never panic, never allocate more than a small multiple
// of its input, and whatever it accepts must re-encode to bytes that
// decode to the same snapshot (compared re-encoded, so NaN accumulators
// compare equal to themselves).
func FuzzDecodeSessionSnap(f *testing.F) {
	cfg := goldenConfig()
	g := cfg.Graph
	golden := readGolden(f, "session_v1.snap")
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(hostile(1<<62, func(w *wire.SnapshotWriter) { w.String(g.StructuralHash()) }))
	for _, data := range hostileFIRStates() {
		snap, err := decodeSessionSnap(g, golden)
		if err != nil {
			f.Fatal(err)
		}
		withFIRState(f, cfg, carriedStates(snap.perNode, snap.shard), data)
		f.Add(encoded(encodeSessionSnap(g, snap)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var snap *sessionSnap
		var err error
		if alloc := allocatedBy(func() { snap, err = decodeSessionSnap(g, data) }); alloc > maxDecodeAlloc(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		enc := encoded(encodeSessionSnap(g, snap))
		again, err := decodeSessionSnap(g, enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !bytes.Equal(encoded(encodeSessionSnap(g, again)), enc) {
			t.Fatal("decode→encode is not a fixed point")
		}
		loadStates(cfg, carriedStates(snap.perNode, snap.shard))
	})
}

// FuzzDecodeHostSnap is FuzzDecodeSessionSnap for the host blob
// (ShardHost.Checkpoint or a HostShares share — the resumeHost field of
// /v1/shard/open, the only state that route decodes).
func FuzzDecodeHostSnap(f *testing.F) {
	cfg := goldenConfig()
	golden := readGolden(f, "host_v1.ckpt")
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	snap, err := decodeSessionSnap(cfg.Graph, readGolden(f, "session_v1.snap"))
	if err != nil {
		f.Fatal(err)
	}
	for _, origins := range PartitionOrigins(cfg.Nodes, 2) {
		f.Add(encoded(encodeHostSnap(cfg, hostShare(snap, origins))))
	}
	f.Add(hostile(1<<33, func(w *wire.SnapshotWriter) { w.Int(0); w.Int(0) }))
	for _, data := range hostileFIRStates() {
		hs, err := decodeHostSnap(cfg, golden)
		if err != nil {
			f.Fatal(err)
		}
		withFIRState(f, cfg, carriedStates(hs.sides, hs.shard), data)
		f.Add(encoded(encodeHostSnap(cfg, hs)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var hs *hostSnap
		var err error
		if alloc := allocatedBy(func() { hs, err = decodeHostSnap(cfg, data) }); alloc > maxDecodeAlloc(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		enc := encoded(encodeHostSnap(cfg, hs))
		again, err := decodeHostSnap(cfg, enc)
		if err != nil {
			t.Fatalf("re-encoded host blob does not decode: %v", err)
		}
		if !bytes.Equal(encoded(encodeHostSnap(cfg, again)), enc) {
			t.Fatal("decode→encode is not a fixed point")
		}
		loadStates(cfg, carriedStates(hs.sides, hs.shard))
	})
}
