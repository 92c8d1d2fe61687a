package dataflow

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func diamond() (*Graph, []*Operator) {
	g := New()
	src := g.Add(&Operator{Name: "src", NS: NSNode, SideEffect: true})
	a := g.Add(&Operator{Name: "a", NS: NSNode})
	b := g.Add(&Operator{Name: "b", NS: NSNode})
	sink := g.Add(&Operator{Name: "sink", NS: NSServer, SideEffect: true})
	g.Connect(src, a, 0)
	g.Connect(src, b, 0)
	g.Connect(a, sink, 0)
	g.Connect(b, sink, 1)
	return g, []*Operator{src, a, b, sink}
}

func TestTopoSortOrder(t *testing.T) {
	g, ops := diamond()
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[int]int{}
	for i, op := range order {
		pos[op.ID()] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From.ID()] >= pos[e.To.ID()] {
			t.Fatalf("edge %s violates topological order", e)
		}
	}
	if order[0] != ops[0] {
		t.Fatal("source must come first")
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	g := New()
	a := g.Add(&Operator{Name: "a", NS: NSNode})
	b := g.Add(&Operator{Name: "b", NS: NSNode})
	g.Connect(a, b, 0)
	g.Connect(b, a, 0)
	if err := g.Validate(); err == nil {
		t.Fatal("cycle must fail validation")
	}
}

func TestValidateRejectsStatefulWithoutState(t *testing.T) {
	g := New()
	src := g.Add(&Operator{Name: "src", NS: NSNode})
	bad := g.Add(&Operator{Name: "bad", NS: NSNode, Stateful: true})
	g.Connect(src, bad, 0)
	if err := g.Validate(); err == nil {
		t.Fatal("stateful operator without NewState must fail")
	}
}

func TestValidateRejectsServerSource(t *testing.T) {
	g := New()
	g.Add(&Operator{Name: "srv-src", NS: NSServer})
	if err := g.Validate(); err == nil {
		t.Fatal("a source outside the Node namespace must fail validation")
	}
}

func TestSourcesSinksAncestorsDescendants(t *testing.T) {
	g, ops := diamond()
	src, a, b, sink := ops[0], ops[1], ops[2], ops[3]
	if s := g.Sources(); len(s) != 1 || s[0] != src {
		t.Fatalf("sources=%v", s)
	}
	if s := g.Sinks(); len(s) != 1 || s[0] != sink {
		t.Fatalf("sinks=%v", s)
	}
	anc := g.Ancestors(sink)
	if len(anc) != 3 || !anc[src.ID()] || !anc[a.ID()] || !anc[b.ID()] {
		t.Fatalf("ancestors=%v", anc)
	}
	desc := g.Descendants(src)
	if len(desc) != 3 || !desc[sink.ID()] {
		t.Fatalf("descendants=%v", desc)
	}
}

func TestClassifyPinsAndPropagates(t *testing.T) {
	g := New()
	src := g.Add(&Operator{Name: "src", NS: NSNode, SideEffect: true})
	led := g.Add(&Operator{Name: "led", NS: NSNode, SideEffect: true}) // actuator mid-chain
	mid := g.Add(&Operator{Name: "mid", NS: NSNode})
	out := g.Add(&Operator{Name: "out", NS: NSServer, SideEffect: true})
	g.Chain(src, led, mid, out)
	cls, err := Classify(g, Conservative)
	if err != nil {
		t.Fatal(err)
	}
	if cls.Place[src.ID()] != PinNode || cls.Place[led.ID()] != PinNode {
		t.Fatal("side-effecting node operators must pin to the node")
	}
	if cls.Place[mid.ID()] != Movable {
		t.Fatalf("mid should be movable, got %v", cls.Place[mid.ID()])
	}
	if cls.Place[out.ID()] != PinServer {
		t.Fatal("server sink must pin to the server")
	}
}

func TestClassifyStatefulModes(t *testing.T) {
	g := New()
	src := g.Add(&Operator{Name: "src", NS: NSNode, SideEffect: true})
	fir := g.Add(&Operator{Name: "fir", NS: NSNode, Stateful: true, NewState: func() any { return new(int) }})
	srvAgg := g.Add(&Operator{Name: "agg", NS: NSServer, Stateful: true, NewState: func() any { return new(int) }})
	sink := g.Add(&Operator{Name: "sink", NS: NSServer, SideEffect: true})
	g.Chain(src, fir, srvAgg, sink)

	cons, err := Classify(g, Conservative)
	if err != nil {
		t.Fatal(err)
	}
	if cons.Place[fir.ID()] != PinNode {
		t.Fatal("conservative mode must pin stateful node operators to the node (§2.1.1)")
	}
	perm, err := Classify(g, Permissive)
	if err != nil {
		t.Fatal(err)
	}
	if perm.Place[fir.ID()] != Movable {
		t.Fatal("permissive mode must allow relocating stateful node operators")
	}
	// Stateful *server* operators can never move into the network.
	for _, cls := range []*Classification{cons, perm} {
		if cls.Place[srvAgg.ID()] != PinServer {
			t.Fatal("stateful server operator must stay pinned to the server")
		}
	}
}

func TestClassifyConflictDetected(t *testing.T) {
	// A node-pinned actuator downstream of a server-pinned logger cannot
	// satisfy the single-crossing restriction.
	g := New()
	src := g.Add(&Operator{Name: "src", NS: NSNode, SideEffect: true})
	logOp := g.Add(&Operator{Name: "log", NS: NSServer, SideEffect: true})
	act := g.Add(&Operator{Name: "act", NS: NSNode, SideEffect: true})
	g.Chain(src, logOp, act)
	if _, err := Classify(g, Permissive); err == nil {
		t.Fatal("expected single-crossing conflict")
	}
}

func TestWireSizeRules(t *testing.T) {
	cases := []struct {
		v    Value
		want int
	}{
		{nil, 0}, {int16(3), 2}, {int32(3), 4}, {float32(1), 4}, {float64(1), 8},
		{true, 1}, {[]int16{1, 2, 3}, 6}, {[]float32{1, 2}, 8}, {[]float64{1}, 8},
		{[]byte{1, 2, 3, 4, 5}, 5}, {"hello", 5},
	}
	for _, c := range cases {
		if got := WireSize(c.v); got != c.want {
			t.Errorf("WireSize(%T %v)=%d want %d", c.v, c.v, got, c.want)
		}
	}
}

type sized struct{ n int }

func (s sized) WireSize() int { return s.n }

func TestWireSizeSizedInterface(t *testing.T) {
	if WireSize(sized{17}) != 17 {
		t.Fatal("Sized implementations must be honoured")
	}
}

func TestWireSizePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown type must panic, not silently mis-size")
		}
	}()
	WireSize(struct{ x int }{})
}

// Property: topological sort succeeds on random forward-edge DAGs and
// orders every edge correctly.
func TestTopoSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		n := 2 + rng.Intn(20)
		ops := make([]*Operator, n)
		for i := range ops {
			ops[i] = g.Add(&Operator{Name: "op", NS: NSNode})
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.2 {
					g.Connect(ops[i], ops[j], 0)
				}
			}
		}
		order, err := g.TopoSort()
		if err != nil || len(order) != n {
			return false
		}
		pos := map[int]int{}
		for i, op := range order {
			pos[op.ID()] = i
		}
		for _, e := range g.Edges() {
			if pos[e.From.ID()] >= pos[e.To.ID()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
