package runtime

import (
	"bytes"
	"reflect"
	"testing"

	"wishbone/internal/dataflow"
	"wishbone/internal/netsim"
	"wishbone/internal/platform"
	"wishbone/internal/wire"
)

// receiveRig drives one (origin, edge) stream through shardState.receive
// and through the codec oracle (codecReceiver) side by side, on the same
// per-origin loss draws, and compares every step.
type receiveRig struct {
	t    *testing.T
	cfg  Config
	edge *dataflow.Edge
	sh   *shardState
	rx   *codecReceiver
}

func newReceiveRig(t *testing.T) *receiveRig {
	g := dataflow.New()
	src := g.Add(&dataflow.Operator{Name: "src", NS: dataflow.NSNode, SideEffect: true})
	sink := g.Add(&dataflow.Operator{Name: "sink", NS: dataflow.NSServer, SideEffect: true,
		Work: func(*dataflow.Ctx, int, dataflow.Value, dataflow.Emit) {}})
	g.Connect(src, sink, 0)
	cfg := Config{Graph: g, OnNode: map[int]bool{src.ID(): true}, Platform: platform.TMoteSky(), Nodes: 1, Duration: 1, Seed: 11}
	return &receiveRig{t: t, cfg: cfg, edge: g.Edges()[0], sh: newReceiveShard(&cfg), rx: newCodecReceiver(&cfg)}
}

// newReceiveShard is a shard with no engine: receive never reaches it.
func newReceiveShard(cfg *Config) *shardState {
	return &shardState{
		seed:    cfg.Seed,
		payload: cfg.Platform.Radio.PacketPayload,
		streams: make(map[reasmKey]*edgeStream),
		rng:     make(map[int]*netsim.LossSampler),
	}
}

// msg packages v as the sender would under seq.
func (r *receiveRig) msg(v dataflow.Value, seq uint16) message {
	m := message{nodeID: 0, edge: r.edge, value: v, seq: seq}
	n, ok := wire.Size(v)
	packetize(r.cfg.Platform.Radio, &m, n, ok)
	if !m.wired {
		r.t.Fatalf("%T does not travel as fragments", v)
	}
	return m
}

// step receives m at ratio on both sides and requires the same outcome.
// It returns whether the element was delivered.
func (r *receiveRig) step(m message, ratio float64) bool {
	r.t.Helper()
	got, gotOK, err := r.sh.receive(&m, ratio)
	if err != nil {
		r.t.Fatal(err)
	}
	want, wantOK, err := r.rx.receive(&m, ratio)
	if err != nil {
		r.t.Fatal(err)
	}
	if gotOK != wantOK || !reflect.DeepEqual(got, want) {
		r.t.Fatalf("seq %d: delivered (%v, %v), codec (%v, %v)", m.seq, gotOK, got, wantOK, want)
	}
	if r.sh.res.MsgsReceived != r.rx.received {
		r.t.Fatalf("seq %d: MsgsReceived %d, codec %d", m.seq, r.sh.res.MsgsReceived, r.rx.received)
	}
	// A snapshot lists every stream that exists, partial or not.
	if _, ok := r.sh.streams[r.key()]; !ok {
		r.t.Fatalf("seq %d: no stream; the codec's reassembler exists from the stream's first element", m.seq)
	}
	if g, w := r.frame(), r.oracleFrame(); !bytes.Equal(g, w) {
		r.t.Fatalf("seq %d: stream frame\n% x\ncodec\n% x", m.seq, g, w)
	}
	return gotOK
}

func (r *receiveRig) key() reasmKey { return reasmKey{node: 0, edge: r.edge} }

// frame is the stream's snapshot frame, as snapshotState writes it.
func (r *receiveRig) frame() []byte {
	w := wire.NewSnapshotWriter()
	if _, err := r.sh.streams[r.key()].save(w, nil, r.sh.payload); err != nil {
		r.t.Fatal(err)
	}
	return w.Bytes()
}

func (r *receiveRig) oracleFrame() []byte {
	w := wire.NewSnapshotWriter()
	r.rx.reasm[r.key()].SaveSnapshot(w)
	return w.Bytes()
}

// wrapFrame is a 200-sample frame (15 TMote fragments) whose contents
// depend on tag, so two frames of one size still differ byte for byte.
func wrapFrame(tag int16) []int16 {
	f := make([]int16, 200)
	for i := range f {
		f[i] = tag*1000 + int16(i)
	}
	return f
}

// TestReceiveWrapCollision drives one stream into the 16-bit sequence
// wrap: a wholly lost first element (the stream exists from it on), a
// partial element, then 65 535 wholly lost ones, then an element with the
// partial's seq and fragment count. Its fragments merge with the
// stale partial's bytes into a value neither element sent — the codec's
// behaviour, which closed-form reception must reproduce, as it must after
// restoring a partial from a snapshot.
func TestReceiveWrapCollision(t *testing.T) {
	r := newReceiveRig(t)
	r.step(r.msg(wrapFrame(0), 0), 0)
	first := r.msg(wrapFrame(1), 1)
	if r.step(first, 0.5) {
		t.Fatal("first element delivered whole; the test needs a partial")
	}
	if _, _, ok := r.rx.reasm[r.key()].Pending(); !ok {
		t.Fatal("no partial after the first element")
	}
	lost := r.msg(wrapFrame(2), 0)
	for k := 1; k <= 65535; k++ {
		lost.seq = uint16(1 + k)
		r.step(lost, 0)
	}
	second := r.msg(wrapFrame(3), 1)
	if second.packets != first.packets {
		t.Fatalf("%d vs %d fragments: no collision", second.packets, first.packets)
	}
	got, ok, err := r.sh.receive(&second, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, wantOK, err := r.rx.receive(&second, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || !wantOK || !reflect.DeepEqual(got, want) {
		t.Fatalf("collision delivered (%v, %v), codec (%v, %v)", ok, got, wantOK, want)
	}
	if reflect.DeepEqual(got, wrapFrame(1)) || reflect.DeepEqual(got, wrapFrame(3)) {
		t.Fatal("collision delivered one element's value; the stale partial's bytes did not merge")
	}
	if r.sh.streams[r.key()].re == nil {
		t.Fatal("the collision did not fall back to the byte path")
	}
	if !bytes.Equal(r.frame(), r.oracleFrame()) || r.sh.res.MsgsReceived != r.rx.received {
		t.Fatal("stream state diverged at the collision")
	}

	// Onward from the collision, and onward from a restore of a partial
	// taken mid-stream: both sides stay equal, and the restored stream
	// leaves its Reassembler once an element moves past its partial.
	seq := uint16(2)
	for ; seq < 40; seq++ {
		r.step(r.msg(wrapFrame(int16(seq)), seq), 0.6)
		if st := r.sh.streams[r.key()]; st.re == nil && st.count > 0 {
			break
		}
	}
	if st := r.sh.streams[r.key()]; st.re != nil || st.count == 0 {
		t.Fatal("the stream never returned to a lazy partial")
	}
	restored, err := loadEdgeStream(r.frame())
	if err != nil {
		t.Fatal(err)
	}
	if restored.re == nil {
		t.Fatal("a restored partial must keep its bytes")
	}
	draws := r.sh.rng[0].DrawCount()
	r.sh = newReceiveShard(&r.cfg)
	r.sh.res.MsgsReceived = r.rx.received
	r.sh.streams[r.key()] = restored
	r.sh.sampler(0).SeekTo(netsim.NodeSeed(r.cfg.Seed, 0), draws)
	delivered := 0
	for end := seq + 60; seq < end; seq++ {
		if r.step(r.msg(wrapFrame(int16(seq)), seq), 0.9) {
			delivered++
		}
	}
	if delivered == 0 || r.sh.streams[r.key()].re != nil {
		t.Fatalf("after restore: %d delivered, byte path still on: %v", delivered, r.sh.streams[r.key()].re != nil)
	}
}

// TestReceiveAllocs pins closed-form reception's steady state at zero
// allocations, for an element received whole and for one left partial.
func TestReceiveAllocs(t *testing.T) {
	r := newReceiveRig(t)
	m := r.msg(wrapFrame(5), 1)
	for _, tc := range []struct {
		name  string
		ratio float64
		whole bool
	}{{"whole", 1, true}, {"partial", 0.5, false}} {
		var ok bool
		run := func() {
			m.seq++
			var err error
			if _, ok, err = r.sh.receive(&m, tc.ratio); err != nil {
				t.Fatal(err)
			}
		}
		run() // the stream and the sampler's draw buffer exist from here on
		if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
			t.Errorf("%s: %v allocations per receive", tc.name, allocs)
		}
		if ok != tc.whole {
			t.Errorf("%s: delivered=%v", tc.name, ok)
		}
	}
}

// TestReceiveDeliversDecodedForm: a wholly received element reaches the
// server in the form the codec decodes it to, not the sender's — an int
// as int64, an empty []byte as nil, a nil []int16 as an empty one.
func TestReceiveDeliversDecodedForm(t *testing.T) {
	r := newReceiveRig(t)
	for i, v := range []dataflow.Value{int(300), []byte{}, []int16(nil), make([]float64, 2, 9), "s"} {
		if !r.step(r.msg(v, uint16(i+1)), 1) {
			t.Fatalf("%T lost on a lossless step", v)
		}
	}
}

// TestPartialsOwnTheirValue: a partial element is the one value delivery
// keeps past its window, so on an edge that carries arrivals a ShardHost's
// shard keeps its encoding in place of the value once the window is
// delivered (ownPartials). Writing the sender's slice afterwards — a
// session carving that storage again — must not reach the stream's
// snapshot frame; a partial on another edge, and one already owned, are
// left as they are, and the next partial reuses the stream's buffer.
func TestPartialsOwnTheirValue(t *testing.T) {
	r := newReceiveRig(t)
	sent := wrapFrame(1)
	if r.step(r.msg(sent, 1), 0.5) {
		t.Fatal("element delivered whole; the test needs a partial")
	}
	want := r.frame()
	st := r.sh.streams[r.key()]
	if err := r.sh.ownPartials(nil); err != nil {
		t.Fatal(err)
	}
	if len(st.enc) > 0 || &st.value.([]int16)[0] != &sent[0] {
		t.Fatal("a partial on an edge outside own was encoded")
	}
	own := map[*dataflow.Edge]bool{r.edge: true}
	if err := r.sh.ownPartials(own); err != nil {
		t.Fatal(err)
	}
	if st.value != nil || len(st.enc) == 0 {
		t.Fatal("an owned partial still holds the sender's value")
	}
	enc := &st.enc[0]
	copy(sent, wrapFrame(9))
	if got := r.frame(); !bytes.Equal(got, want) {
		t.Fatal("writing the sent slice changed the partial's snapshot frame")
	}
	if err := r.sh.ownPartials(own); err != nil {
		t.Fatal(err)
	}
	if &st.enc[0] != enc {
		t.Fatal("an owned partial was encoded again")
	}
	next := wrapFrame(2)
	for seq := uint16(2); ; seq++ {
		if r.step(r.msg(next, seq), 0.5); st.count > 0 && &st.value.([]int16)[0] == &next[0] {
			break
		}
		if seq > 40 {
			t.Fatal("no later element was left partial")
		}
	}
	if len(st.enc) > 0 {
		t.Fatal("a new partial kept the old one's encoding")
	}
	if err := r.sh.ownPartials(own); err != nil {
		t.Fatal(err)
	}
	if &st.enc[0] != enc {
		t.Fatal("the next owned partial did not reuse the stream's buffer")
	}
	// Another element under the partial's number (a wrapped seq) merges
	// with it byte by byte: the owned bytes, not the rewritten sender's
	// slice, fill the fragments the partial kept, as in the codec.
	copy(next, wrapFrame(8))
	if !r.step(r.msg(wrapFrame(3), st.seq), 1) {
		t.Fatal("the colliding element was not delivered whole")
	}
}

// TestSamplersComeBack: the loss samplers a shard releases at the end of
// its run are the ones the next run's shard draws with — not whatever a
// pool kept for the P that asks — a recycled sampler restarts its
// sequence as a fresh one would, and a run over more origins than
// maxListedSamplers leaves only that many listed.
func TestSamplersComeBack(t *testing.T) {
	cfg := &Config{Seed: 3, Platform: platform.TMoteSky()}
	first := newReceiveShard(cfg)
	a, b := first.sampler(0), first.sampler(1)
	want := append([]float64(nil), netsim.NewLossSampler(netsim.NodeSeed(cfg.Seed, 7)).Draws(4)...)
	first.releaseSamplers()
	done := make(chan *netsim.LossSampler)
	go func() { done <- newReceiveShard(cfg).sampler(7) }()
	got := <-done
	if got != a && got != b {
		t.Fatal("the next run's shard built a sampler while released ones were listed")
	}
	if draws := got.Draws(4); !reflect.DeepEqual(draws, want) {
		t.Fatalf("recycled sampler draws %v, a fresh one %v", draws, want)
	}

	wide := newReceiveShard(cfg)
	for n := 0; n < 2*maxListedSamplers; n++ {
		wide.sampler(n)
	}
	wide.releaseSamplers()
	if n := samplers.Len(); n != maxListedSamplers {
		t.Fatalf("%d samplers listed after a %d-origin run, want maxListedSamplers %d", n, 2*maxListedSamplers, maxListedSamplers)
	}
}
