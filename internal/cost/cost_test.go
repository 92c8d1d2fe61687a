package cost

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNilCounterSafe(t *testing.T) {
	var c *Counter
	c.Add(FloatMul, 10) // must not panic
	if c.Count(FloatMul) != 0 || c.Total() != 0 {
		t.Fatal("nil counter must read as zero")
	}
	c.AddCounter(&Counter{})
	c.Reset()
	if c.String() != "<nil>" {
		t.Fatalf("String()=%q", c.String())
	}
}

func TestAddAndCount(t *testing.T) {
	var c Counter
	c.Add(IntOp, 3)
	c.Add(IntOp, 2)
	c.Add(Trig, 1)
	if c.Count(IntOp) != 5 || c.Count(Trig) != 1 || c.Count(Log) != 0 {
		t.Fatalf("counts: %v", c.String())
	}
	if c.Total() != 6 {
		t.Fatalf("total=%d", c.Total())
	}
}

func TestNegativeAddIgnored(t *testing.T) {
	var c Counter
	c.Add(Load, -5)
	c.Add(Load, 0)
	if c.Count(Load) != 0 {
		t.Fatal("non-positive adds must be ignored")
	}
}

func TestAddCounterMerges(t *testing.T) {
	var a, b Counter
	a.Add(FloatAdd, 2)
	b.Add(FloatAdd, 3)
	b.Add(Sqrt, 1)
	a.AddCounter(&b)
	if a.Count(FloatAdd) != 5 || a.Count(Sqrt) != 1 {
		t.Fatalf("merge wrong: %v", a.String())
	}
	// Merging must not alias: changing b later leaves a alone.
	b.Add(Sqrt, 7)
	if a.Count(Sqrt) != 1 {
		t.Fatal("AddCounter aliased storage")
	}
}

func TestReset(t *testing.T) {
	var c Counter
	c.Add(Branch, 9)
	c.Reset()
	if c.Total() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestStringFormat(t *testing.T) {
	var c Counter
	if c.String() != "empty" {
		t.Fatalf("empty counter prints %q", c.String())
	}
	c.Add(FloatMul, 4)
	c.Add(Load, 8)
	s := c.String()
	if !strings.Contains(s, "fmul=4") || !strings.Contains(s, "load=8") {
		t.Fatalf("String()=%q", s)
	}
}

func TestOpStringTotal(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		if s := op.String(); s == "" || strings.HasPrefix(s, "op(") {
			t.Fatalf("op %d has no mnemonic", op)
		}
	}
	if Op(99).String() != "op(99)" {
		t.Fatal("out-of-range op should fall back")
	}
}

// Property: Total equals the sum of per-op counts for any sequence of adds.
func TestTotalMatchesSum(t *testing.T) {
	f := func(adds []uint8) bool {
		var c Counter
		for i, n := range adds {
			c.Add(Op(i%NumOps), int(n))
		}
		var sum uint64
		for op := 0; op < NumOps; op++ {
			sum += c.Count(Op(op))
		}
		return sum == c.Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Count returns the number of recorded occurrences of op.
func (c *Counter) Count(op Op) uint64 {
	if c == nil {
		return 0
	}
	return c.counts[op]
}
