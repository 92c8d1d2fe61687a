package wvm

import (
	"testing"
)

// FuzzVerifyBytecode applies the fuzz bytes as an edit script to a verified
// seed program and runs whatever Verify admits under a tight budget. The
// contract under test: anything the verifier admits executes without
// panicking — type confusion, bad jumps, and stack abuse must all have
// been caught statically (or surface as clean runtime errors).
//
// data[0] picks the seed; every following 4-byte record (kind, function,
// position, value) is one edit, applied by fuzzEdit.
func FuzzVerifyBytecode(f *testing.F) {
	seeds := []func() *Program{doubler, pooledDoubler, loopSeed}
	for _, mk := range seeds {
		if err := mk().Verify(); err != nil {
			f.Fatal(err)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03})
	for i := range seeds {
		f.Add([]byte{byte(i)})
	}
	f.Add([]byte{1, 12, 0, 0, 5, 1, 0, 1, 0})          // a template, then a load of it
	f.Add([]byte{2, 1, 0, 7, 30, 13, 0, 0, 1})         // a jump past the end, a second function
	f.Add([]byte{0, 3, 0, 4, byte(OpPop), 9, 0, 0, 0}) // an extra pop, Init on the entry
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		p := seeds[int(data[0])%len(seeds)]()
		for rec := data[1:]; len(rec) >= 4; rec = rec[4:] {
			fuzzEdit(p, rec[0], rec[1], rec[2], rec[3])
		}
		if err := p.Verify(); err != nil {
			return
		}
		// Verified programs must execute without panicking. Budgets keep
		// fuzz iterations fast; metering errors are legitimate outcomes.
		env := Env{
			Emit:   func(Value) {},
			Limits: Limits{Fuel: 20_000, MemBytes: 1 << 20},
		}
		if p.NumState > 0 {
			env.State = &State{}
		}
		if p.Init >= 0 {
			if err := p.RunInit(env); err != nil {
				return
			}
		}
		_ = p.RunEntry(int64(3), env)
	})
}

// fuzzEdit applies one edit-script record to p. fn and at pick a function
// and an instruction or pool slot (modulo their counts; a pool slot one past
// the end appends), and val is the new value — a signed byte where a
// negative one is meaningful.
func fuzzEdit(p *Program, kind, fn, at, val byte) {
	v := int(int8(val))
	f := &p.Funcs[int(fn)%len(p.Funcs)]
	switch k := kind % 15; k {
	case 0, 1, 2:
		if len(f.Code) == 0 {
			return
		}
		ins := &f.Code[int(at)%len(f.Code)]
		switch k {
		case 0:
			ins.Op = Opcode(val)
		case 1:
			ins.A = int32(v)
		case 2:
			ins.B = int32(v)
		}
	case 3:
		if len(f.Lines) != len(f.Code) {
			return
		}
		pc := int(at) % (len(f.Code) + 1)
		f.Code = append(f.Code[:pc], append([]Instr{{Op: Opcode(val)}}, f.Code[pc:]...)...)
		f.Lines = append(f.Lines[:pc], append([]int32{0}, f.Lines[pc:]...)...)
	case 4:
		if len(f.Code) == 0 || len(f.Lines) != len(f.Code) {
			return
		}
		pc := int(at) % len(f.Code)
		f.Code = append(f.Code[:pc], f.Code[pc+1:]...)
		f.Lines = append(f.Lines[:pc], f.Lines[pc+1:]...)
	case 5:
		f.NumParams = v
	case 6:
		f.NumLocals = v
	case 7:
		f.NumWhiles = v
	case 8:
		p.Entry = v
	case 9:
		p.Init = v
	case 10:
		p.NumState = v
	case 11:
		p.Consts = setPool(p.Consts, int(at), poolValue(val))
	case 12:
		p.Templates = setPool(p.Templates, int(at), poolValue(val))
	case 13:
		n := int(val % 3)
		p.Funcs = append(p.Funcs, Func{
			Name: "fuzz", NumParams: n, NumLocals: n + 2,
			Code:  []Instr{{Op: OpUnit}, {Op: OpRet}},
			Lines: []int32{0, 0},
		})
	case 14:
		if len(f.Lines) > 0 {
			f.Lines = f.Lines[:len(f.Lines)-1]
		}
	}
}

// setPool replaces pool slot at (modulo one past the end, which appends).
func setPool(pool []Value, at int, v Value) []Value {
	i := at % (len(pool) + 1)
	if i == len(pool) {
		return append(pool, v)
	}
	pool[i] = v
	return pool
}

// poolValue picks a constant or template value, mutable ones included
// (which Verify must keep out of the constant pool).
func poolValue(val byte) Value {
	switch val % 7 {
	case 0:
		return int64(int8(val))
	case 1:
		return float64(int8(val)) / 2
	case 2:
		return val&8 != 0
	case 3:
		return "seed"
	case 4:
		return Unit{}
	case 5:
		return &Array{Elems: []Value{int64(1), 2.5, "seed"}}
	default:
		return &Fifo{Elems: []Value{int64(val)}}
	}
}

// pooledDoubler is doubler with a template and unused state slots.
func pooledDoubler() *Program {
	p := doubler()
	p.Templates = []Value{&Array{Elems: []Value{int64(1), 2.5, "seed"}}}
	p.NumState = 3
	return p
}

// loopSeed exercises builtins, locals and a counted loop.
func loopSeed() *Program {
	mk := int32(BuiltinIndex("Array.make"))
	return &Program{
		Name:   "seed-loop",
		Consts: []Value{int64(4), int64(0), int64(1)},
		Entry:  0,
		Init:   -1,
		Funcs: []Func{{
			Name: "entry", NumParams: 1, NumLocals: 5, NumWhiles: 1,
			Code: []Instr{
				{Op: OpConst, A: 0},
				{Op: OpConst, A: 1},
				{Op: OpCallB, A: mk, B: 2},
				{Op: OpStoreL, A: 1},
				{Op: OpConst, A: 1},
				{Op: OpConst, A: 0},
				{Op: OpForInit, B: 2},
				{Op: OpForIter, A: 11, B: 2},
				{Op: OpLoadL, A: 0},
				{Op: OpEmit},
				{Op: OpForStep, A: 7, B: 2},
				{Op: OpUnit},
				{Op: OpRet},
			},
			Lines: []int32{1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 2, 4, 4},
		}},
	}
}
