package wvm

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// doubler is a minimal hand-assembled program: emit (x * 2) for each
// arriving element x.
func doubler() *Program {
	mul := int32(ArithIndex("*"))
	p := &Program{
		Name:   "doubler",
		Consts: []Value{int64(2)},
		Entry:  0,
		Init:   -1,
		Funcs: []Func{{
			Name:      "entry",
			NumParams: 1,
			NumLocals: 1,
			Code: []Instr{
				{Op: OpLoadL, A: 0},
				{Op: OpConst, A: 0},
				{Op: OpArith, B: mul},
				{Op: OpEmit},
				{Op: OpUnit},
				{Op: OpRet},
			},
			Lines: []int32{1, 1, 1, 1, 1, 1},
		}},
	}
	return p
}

func TestRunEntryEmits(t *testing.T) {
	p := doubler()
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	var got []Value
	m := &Meter{}
	err := p.RunEntry(int64(21), Env{Emit: func(v Value) { got = append(got, v) }, Meter: m})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != int64(42) {
		t.Fatalf("emitted %v, want [42]", got)
	}
	// 6 instructions, one fuel unit each.
	if m.Fuel() != 6 || m.Calls() != 1 {
		t.Fatalf("fuel=%d calls=%d, want 6/1", m.Fuel(), m.Calls())
	}
}

func TestFuelExhaustion(t *testing.T) {
	p := doubler()
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	m := &Meter{}
	err := p.RunEntry(int64(1), Env{Emit: func(Value) {}, Limits: Limits{Fuel: 3}, Meter: m})
	if !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("err=%v, want ErrFuelExhausted", err)
	}
	if !strings.Contains(err.Error(), "budget 3") {
		t.Fatalf("err=%q, want budget in message", err)
	}
	if m.FuelTrips() != 1 {
		t.Fatalf("trips=%d", m.FuelTrips())
	}
}

func TestMemCapOnBuiltinAlloc(t *testing.T) {
	// entry: emit Array.length(Array.make(x, 0))
	mk := int32(BuiltinIndex("Array.make"))
	ln := int32(BuiltinIndex("Array.length"))
	if mk < 0 || ln < 0 {
		t.Fatal("builtins not found")
	}
	p := &Program{
		Name:   "alloc",
		Consts: []Value{int64(0)},
		Entry:  0,
		Init:   -1,
		Funcs: []Func{{
			Name: "entry", NumParams: 1, NumLocals: 1,
			Code: []Instr{
				{Op: OpLoadL, A: 0},
				{Op: OpConst, A: 0},
				{Op: OpCallB, A: mk, B: 2},
				{Op: OpCallB, A: ln, B: 1},
				{Op: OpEmit},
				{Op: OpUnit},
				{Op: OpRet},
			},
			Lines: []int32{1, 1, 1, 1, 1, 1, 1},
		}},
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	var got []Value
	env := Env{Emit: func(v Value) { got = append(got, v) }, Limits: Limits{MemBytes: 1 << 20}}
	if err := p.RunEntry(int64(100), env); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != int64(100) {
		t.Fatalf("got %v", got)
	}
	m := &Meter{}
	err := p.RunEntry(int64(100000), Env{Emit: func(Value) {}, Limits: Limits{MemBytes: 4096}, Meter: m})
	if !errors.Is(err, ErrMemLimit) {
		t.Fatalf("err=%v, want ErrMemLimit", err)
	}
	if m.MemTrips() != 1 {
		t.Fatalf("mem trips=%d", m.MemTrips())
	}
}

func TestVerifyRejections(t *testing.T) {
	mkProg := func(mutate func(*Program)) *Program {
		p := doubler()
		mutate(p)
		return p
	}
	cases := []struct {
		name string
		p    *Program
		want string
	}{
		{"no-funcs", mkProg(func(p *Program) { p.Funcs = nil }), "function count"},
		{"entry-oob", mkProg(func(p *Program) { p.Entry = 7 }), "entry"},
		{"entry-arity", mkProg(func(p *Program) { p.Funcs[0].NumParams = 2; p.Funcs[0].NumLocals = 2 }), "entry"},
		{"init-oob", mkProg(func(p *Program) { p.Init = 9 }), "init"},
		{"jump-oob", mkProg(func(p *Program) { p.Funcs[0].Code[4] = Instr{Op: OpJmp, A: 99} }), "jump"},
		{"const-oob", mkProg(func(p *Program) { p.Funcs[0].Code[1].A = 12 }), "const"},
		{"local-oob", mkProg(func(p *Program) { p.Funcs[0].Code[0].A = 3 }), "local"},
		{"underflow", mkProg(func(p *Program) {
			p.Funcs[0].Code = []Instr{{Op: OpPop}, {Op: OpUnit}, {Op: OpRet}}
			p.Funcs[0].Lines = []int32{1, 1, 1}
		}), "underflow"},
		{"fall-off-end", mkProg(func(p *Program) {
			p.Funcs[0].Code = p.Funcs[0].Code[:4]
			p.Funcs[0].Lines = p.Funcs[0].Lines[:4]
		}), "end"},
		{"mutable-const", mkProg(func(p *Program) { p.Consts = append(p.Consts, &Array{}) }), "const"},
		{"bad-opcode", mkProg(func(p *Program) { p.Funcs[0].Code[3].Op = Opcode(200) }), "opcode"},
		{"builtin-oob", mkProg(func(p *Program) { p.Funcs[0].Code[3] = Instr{Op: OpCallB, A: 999, B: 1} }), "builtin"},
		{"line-table", mkProg(func(p *Program) { p.Funcs[0].Lines = p.Funcs[0].Lines[:2] }), "line"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Verify()
			if err == nil {
				t.Fatal("Verify accepted invalid program")
			}
			if !strings.Contains(strings.ToLower(err.Error()), tc.want) {
				t.Fatalf("err=%q, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestStateSnapshotRoundTrip walks every value kind through Save and
// LoadState: the loaded state holds the same values and saves the same
// bytes, and a value with no tag fails Save instead of panicking.
func TestStateSnapshotRoundTrip(t *testing.T) {
	st := &State{FuelUsed: 99, Slots: []Value{
		Unit{}, nil, int64(-7), 2.5, true, "zip",
		&Array{Elems: []Value{int64(1), &Fifo{Elems: []Value{"a", false}}}},
		&Fifo{},
	}}
	blob, err := st.Save()
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadState(blob)
	if err != nil {
		t.Fatal(err)
	}
	again, err := got.Save()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatalf("re-saved state differs:\n% x\n% x", again, blob)
	}
	if got.FuelUsed != 99 || len(got.Slots) != len(st.Slots) || got.Slots[1] != (Unit{}) ||
		got.Slots[2] != int64(-7) || got.Slots[5] != "zip" {
		t.Fatalf("loaded %#v", got)
	}
	if inner := got.Slots[6].(*Array).Elems[1].(*Fifo); len(inner.Elems) != 2 || inner.Elems[0] != "a" {
		t.Fatalf("nested fifo loaded as %#v", inner)
	}
	if _, err := (&State{Slots: []Value{struct{}{}}}).Save(); err == nil {
		t.Fatal("a value with no snapshot tag saved")
	}
}

func TestValueSnapshotDepthCap(t *testing.T) {
	v := Value(int64(1))
	for i := 0; i < 80; i++ {
		v = &Array{Elems: []Value{v}}
	}
	st := &State{Slots: []Value{v}}
	blob, err := st.Save()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadState(blob); err == nil {
		t.Fatal("expected depth-cap error decoding 80-deep nesting")
	}
}

func TestFromHostAndSizeOf(t *testing.T) {
	arr, err := FromHost([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	a, ok := arr.(*Array)
	if !ok || len(a.Elems) != 3 || a.Elems[0] != float64(1) {
		t.Fatalf("FromHost([]float64) = %#v", arr)
	}
	if _, err := FromHost(struct{}{}); err == nil {
		t.Fatal("FromHost should reject unknown host types")
	}
	if got := SizeOf(a); got != 24+3*(16+8) {
		t.Fatalf("SizeOf(array of 3 floats) = %d", got)
	}
	if got := SizeOf("abcd"); got != 20 {
		t.Fatalf("SizeOf(string) = %d", got)
	}
}

func TestStatefulRunRequiresState(t *testing.T) {
	p := doubler()
	p.NumState = 1
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := p.RunEntry(int64(1), Env{Emit: func(Value) {}}); err == nil {
		t.Fatal("stateful program without state must error")
	}
}
