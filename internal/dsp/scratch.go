package dsp

import "sync"

// Scratch is the workspace a work function's kernel borrows for the
// length of one call: a float64 buffer and the FFT's complex buffer. It
// exists so a dispatch allocates the value it emits and nothing else. The
// kernels read the operator's input frame and write its output frame
// directly, so the buffers only ever hold what a kernel computes in
// between: the power spectrum's transform, the cepstral stage's dequantized
// log energies.
//
// The rules that make reuse safe: a Scratch is acquired and released
// inside one call — never stored in operator state or a Ctx — and released
// before anything is emitted, because a depth-first executor runs the
// downstream work function inside emit and a second shard's goroutine may
// be running the same operator.
type Scratch struct {
	a    []float64
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

// A returns the float64 buffer at length n (contents unspecified).
func (s *Scratch) A(n int) []float64 { return grow(&s.a, n) }

// Complex returns the complex buffer at length n (contents unspecified).
func (s *Scratch) Complex(n int) []Complex { return grow(&s.cplx, n) }
