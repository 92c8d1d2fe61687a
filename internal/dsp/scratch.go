package dsp

// Scratch is the workspace a work function's kernel computes through: a
// float64 buffer and the FFT's complex buffer. It exists so a dispatch
// allocates the value it emits and nothing else. The kernels read the
// operator's input frame and write its output frame directly, so the
// buffers only ever hold what a kernel computes in between: the power
// spectrum's transform, the cepstral stage's dequantized log energies.
//
// The rules that make reuse safe: a Scratch belongs to one operator's
// execution context (dataflow.Workspace), which one goroutine runs; a
// kernel holds no slice of it past the call and emits nothing backed by
// it.
type Scratch struct {
	a    []float64
	cplx []Complex
}

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
