package dsp

import "sync"

// Scratch is the workspace a work function's kernel borrows for the
// length of one call: two float64 buffers (the widened input and the
// *Into kernel's result) and the FFT's complex buffer. It exists so a
// dispatch allocates the value it emits and nothing else; the buffers
// only ever hold temporaries, and a kernel copies its result out (Clamp16,
// Narrow32) into the output it was handed before the scratch goes back.
//
// The rules that make reuse safe: a Scratch is acquired and released
// inside one call — never stored in operator state or a Ctx — and released
// before anything is emitted, because a depth-first executor runs the
// downstream work function inside emit and a second shard's goroutine may
// be running the same operator.
type Scratch struct {
	a, b []float64
	cplx []Complex
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch borrows a Scratch; pair it with PutScratch in the same call.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns s to the pool; the caller must hold no slice of it.
func PutScratch(s *Scratch) { scratchPool.Put(s) }

func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// A returns the first float64 buffer at length n (contents unspecified).
func (s *Scratch) A(n int) []float64 { return grow(&s.a, n) }

// B returns the second float64 buffer at length n (contents unspecified).
func (s *Scratch) B(n int) []float64 { return grow(&s.b, n) }

// Complex returns the complex buffer at length n (contents unspecified).
func (s *Scratch) Complex(n int) []Complex { return grow(&s.cplx, n) }

// Widen converts a frame of samples to float64 into out (len(out) ≥
// len(x)) and returns the filled prefix.
func Widen[T int16 | float32](x []T, out []float64) []float64 {
	out = out[:len(x)]
	for i, v := range x {
		out[i] = float64(v)
	}
	return out
}

// Clamp16 converts x to int16 into out (len(out) ≥ len(x)), saturating
// at the int16 range and truncating toward zero.
func Clamp16(x []float64, out []int16) {
	out = out[:len(x)]
	for i, v := range x {
		if v > 32767 {
			v = 32767
		} else if v < -32768 {
			v = -32768
		}
		out[i] = int16(v)
	}
}

// Narrow32 converts x to float32 into out (len(out) ≥ len(x)).
func Narrow32(x []float64, out []float32) {
	out = out[:len(x)]
	for i, v := range x {
		out[i] = float32(v)
	}
}
