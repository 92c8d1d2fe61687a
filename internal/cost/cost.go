// Package cost provides abstract operation counting for operator work
// functions.
//
// Wishbone profiles operators by executing them on sample data and recording
// how much work they do. On real hardware the paper timestamps work-function
// entry/exit (or runs a cycle-accurate MSP430 simulator). In this
// reproduction, work functions instead increment a Counter of primitive
// operations (integer and floating-point arithmetic, memory traffic,
// branches, transcendental calls). A platform model (internal/platform)
// converts a Counter into cycles — and therefore microseconds — for each
// target device.
//
// This separation is what lets a single profiling run price an operator on
// every platform at once, reproducing the paper's observation (Figure 8)
// that relative operator costs vary by more than an order of magnitude
// between platforms (e.g. software floating point on the TMote's MSP430).
package cost

import "fmt"

// Op identifies a class of primitive operation whose per-platform cycle cost
// is known.
type Op int

// Primitive operation classes. IntOp covers add/sub/compare/shift on native
// integers; IntMul and IntDiv are separate because small microcontrollers
// multiply and divide in software or with multi-cycle hardware. Float ops are
// separate because the MSP430 (TMote Sky) has no FPU at all.
const (
	IntOp Op = iota // integer add/sub/logic/compare/shift
	IntMul
	IntDiv
	FloatAdd
	FloatMul
	FloatDiv
	Sqrt
	Log // log, exp
	Trig
	Load  // memory read of one word
	Store // memory write of one word
	Branch
	Call // function call/return overhead

	numOps
)

// NumOps is the number of distinct primitive operation classes.
const NumOps = int(numOps)

var opNames = [...]string{
	IntOp:    "int",
	IntMul:   "imul",
	IntDiv:   "idiv",
	FloatAdd: "fadd",
	FloatMul: "fmul",
	FloatDiv: "fdiv",
	Sqrt:     "sqrt",
	Log:      "log",
	Trig:     "trig",
	Load:     "load",
	Store:    "store",
	Branch:   "branch",
	Call:     "call",
}

// String returns the short mnemonic for the operation class.
func (o Op) String() string {
	if o < 0 || int(o) >= NumOps {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return opNames[o]
}

// Counter accumulates counts of primitive operations performed by a work
// function. The zero value is an empty counter ready for use. Counter is not
// safe for concurrent use; profiling executes each operator on a single
// goroutine.
type Counter struct {
	counts [NumOps]uint64
}

// Add records n occurrences of op. Add on a nil Counter is a no-op, so
// instrumented kernels can be called cheaply outside of profiling.
func (c *Counter) Add(op Op, n int) {
	if c == nil || n <= 0 {
		return
	}
	c.counts[op] += uint64(n)
}

// Counts returns a copy of all counts indexed by Op.
func (c *Counter) Counts() [NumOps]uint64 {
	if c == nil {
		return [NumOps]uint64{}
	}
	return c.counts
}

// AddCounter merges the counts of other into c.
func (c *Counter) AddCounter(other *Counter) {
	if c == nil || other == nil {
		return
	}
	for i := range c.counts {
		c.counts[i] += other.counts[i]
	}
}

// Reset zeroes every count.
func (c *Counter) Reset() {
	if c == nil {
		return
	}
	c.counts = [NumOps]uint64{}
}

// Total returns the total number of primitive operations of any class.
func (c *Counter) Total() uint64 {
	if c == nil {
		return 0
	}
	var t uint64
	for _, n := range c.counts {
		t += n
	}
	return t
}

// String renders the non-zero counts, e.g. "fmul=1024 fadd=1024 load=2048".
func (c *Counter) String() string {
	if c == nil {
		return "<nil>"
	}
	s := ""
	for i, n := range c.counts {
		if n == 0 {
			continue
		}
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", Op(i), n)
	}
	if s == "" {
		return "empty"
	}
	return s
}
