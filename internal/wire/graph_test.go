package wire_test

import (
	"encoding/json"
	"math/rand"
	"testing"

	"wishbone/internal/apps/eeg"
	"wishbone/internal/apps/speech"
	"wishbone/internal/dataflow"
	"wishbone/internal/wire"
)

// roundTripProgramHash is the property the partition server trusts: graph
// → bytes → graph → Compile produces a Program whose content hash is
// identical to compiling the original, and a second encoding of the
// rebuilt graph is byte-identical to the first.
func roundTripProgramHash(t *testing.T, g *dataflow.Graph) {
	t.Helper()
	p1, err := dataflow.Compile(g, dataflow.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := wire.MarshalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := wire.UnmarshalGraph(data)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := dataflow.Compile(g2, dataflow.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p1.Hash() != p2.Hash() {
		t.Fatalf("Program hash changed across the wire: %s → %s", p1.Hash(), p2.Hash())
	}
	if g.StructuralHash() != g2.StructuralHash() {
		t.Fatalf("structural hash changed across the wire")
	}
	data2, err := wire.MarshalGraph(g2)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("re-encoding is not canonical:\n%s\n%s", data, data2)
	}
}

// TestGraphRoundTripApps round-trips the two paper applications — the
// graphs the server actually caches by content hash.
func TestGraphRoundTripApps(t *testing.T) {
	t.Run("speech", func(t *testing.T) {
		roundTripProgramHash(t, speech.New().Graph)
	})
	t.Run("eeg-2ch", func(t *testing.T) {
		roundTripProgramHash(t, eeg.NewWithChannels(2).Graph)
	})
	t.Run("eeg-full", func(t *testing.T) {
		roundTripProgramHash(t, eeg.New().Graph)
	})
}

// TestGraphRoundTripRandom is the property test over random layered DAGs:
// arbitrary fan-in/fan-out, namespaces, flags, and ports must all survive
// the encoding.
func TestGraphRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20090422))
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(rng)
		roundTripProgramHash(t, g)
	}
}

// TestGraphRoundTripPartitionedHash checks the hash also pins partitioned
// compilations: the same Include set on both sides of the wire yields the
// same Program hash, and different Include sets yield different hashes.
func TestGraphRoundTripPartitionedHash(t *testing.T) {
	app := speech.New()
	onNode := func(prefix int) func(op *dataflow.Operator) bool {
		return func(op *dataflow.Operator) bool { return op.ID() < prefix }
	}
	data, err := wire.MarshalGraph(app.Graph)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := wire.UnmarshalGraph(data)
	if err != nil {
		t.Fatal(err)
	}
	h := make(map[string]int)
	for _, prefix := range []int{1, 4, 6, 8} {
		p1, err := dataflow.Compile(app.Graph, dataflow.CompileOptions{Include: onNode(prefix)})
		if err != nil {
			t.Fatal(err)
		}
		p2, err := dataflow.Compile(g2, dataflow.CompileOptions{Include: onNode(prefix)})
		if err != nil {
			t.Fatal(err)
		}
		if p1.Hash() != p2.Hash() {
			t.Fatalf("prefix %d: hash differs across the wire", prefix)
		}
		h[p1.Hash()]++
	}
	if len(h) != 4 {
		t.Fatalf("expected 4 distinct partition hashes, got %d", len(h))
	}
}

// TestGraphWireRejectsBadInput checks corrupt encodings fail loudly.
func TestGraphWireRejectsBadInput(t *testing.T) {
	if _, err := wire.UnmarshalGraph([]byte(`{"ops":[{"name":"a","ns":7}]}`)); err == nil {
		t.Fatal("bad namespace accepted")
	}
	if _, err := wire.UnmarshalGraph([]byte(`{"ops":[{"name":"a","ns":0}],"edges":[{"from":0,"to":9}]}`)); err == nil {
		t.Fatal("dangling edge accepted")
	}
	// A cycle must be rejected by validation.
	cyc := wire.GraphWire{
		Ops:   []wire.OpWire{{Name: "a", NS: 0}, {Name: "b", NS: 0}},
		Edges: []wire.EdgeWire{{From: 0, To: 1}, {From: 1, To: 0}},
	}
	data, _ := json.Marshal(cyc)
	if _, err := wire.UnmarshalGraph(data); err == nil {
		t.Fatal("cyclic graph accepted")
	}
}

// FuzzUnmarshalGraph holds the graph decoder — /v1/graph and every request
// that names a graph by structure — to the decoder contract: never panic on
// arbitrary bytes, and a graph it accepts survives the wire again with the
// structural hash it was accepted under.
func FuzzUnmarshalGraph(f *testing.F) {
	for _, g := range []*dataflow.Graph{speech.New().Graph, eeg.NewWithChannels(2).Graph} {
		data, err := wire.MarshalGraph(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte(`{"ops":[{"name":"a","ns":7}]}`))
	f.Add([]byte(`{"ops":[{"name":"a","ns":0}],"edges":[{"from":0,"to":9}]}`))
	f.Add([]byte(`{"ops":[{"name":"a","ns":0},{"name":"b","ns":0}],"edges":[{"from":0,"to":1},{"from":1,"to":0}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := wire.UnmarshalGraph(data)
		if err != nil {
			return
		}
		enc, err := wire.MarshalGraph(g)
		if err != nil {
			t.Fatalf("accepted graph does not re-marshal: %v", err)
		}
		g2, err := wire.UnmarshalGraph(enc)
		if err != nil {
			t.Fatalf("re-marshalled graph does not rebuild: %v\n%s", err, enc)
		}
		if g.StructuralHash() != g2.StructuralHash() {
			t.Fatalf("structural hash changed across the wire:\n%s", enc)
		}
	})
}

// randomGraph builds a random valid layered DAG: sources in the Node
// namespace, edges only from earlier to later operators, random flags.
func randomGraph(rng *rand.Rand) *dataflow.Graph {
	g := dataflow.New()
	n := 2 + rng.Intn(30)
	ops := make([]*dataflow.Operator, n)
	for i := 0; i < n; i++ {
		ns := dataflow.NSNode
		// Later operators may live on the server.
		if i > n/2 && rng.Intn(2) == 0 {
			ns = dataflow.NSServer
		}
		op := &dataflow.Operator{
			Name:       string(rune('a'+i%26)) + string(rune('0'+i/26)),
			NS:         ns,
			Stateful:   rng.Intn(3) == 0,
			SideEffect: i == 0, // at least the first source samples hardware
		}
		if op.Stateful {
			op.NewState = func() any { return nil }
		}
		if rng.Intn(8) == 0 {
			op.Reduce = true
			op.Combine = func(a, b dataflow.Value) dataflow.Value { return a }
		}
		ops[i] = g.Add(op)
	}
	for i := 1; i < n; i++ {
		// Every non-root operator gets at least one upstream edge so only
		// operator 0 (and unlucky isolated heads) are sources.
		from := rng.Intn(i)
		g.Connect(ops[from], ops[i], 0)
		for rng.Intn(3) == 0 {
			g.Connect(ops[rng.Intn(i)], ops[i], rng.Intn(3))
		}
	}
	// Sources must be Node-namespace for Validate; force any accidental
	// source into shape.
	for _, src := range g.Sources() {
		src.NS = dataflow.NSNode
	}
	return g
}
