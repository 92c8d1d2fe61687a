package dataflow

// Frame returns a zeroed output frame of n elements for the operator
// running under ctx, cap-limited so an append can never reach a neighbour.
//
// When the compiled Program recycles the operator (Instance contexts only;
// see Operator.Borrows) the frame is the next piece of a slab owned by the
// operator's context, and the slab is reused from its start at the next
// dispatch run of the Instance: by then the run has drained to quiescence,
// and every consumer that saw the frame only borrowed it. Everywhere else —
// the reference Executor, a bare Ctx, an operator whose output a consumer
// may keep, re-emit or send across the cut — it is a fresh make.
func Frame[E any](ctx *Ctx, n int) []E {
	if ctx.epoch == nil || n == 0 {
		return make([]E, n)
	}
	s, _ := ctx.slab.(*frameSlab[E])
	if s == nil {
		s = &frameSlab[E]{}
		ctx.slab = s
	}
	return s.take(*ctx.epoch, n)
}

// Workspace returns the workspace of the operator running under ctx: a *T
// the context keeps for that operator's later dispatches, so the
// temporaries a work function computes through (a kernel's dsp.Scratch, a
// wscript operator's VM thread) belong to the Instance that runs it
// instead of a pool whose hits depend on which P ran the call and when the
// GC last ran. A context keeps one workspace; asking for another type
// replaces it. The work function uses it only within the dispatch, holds
// no slice of it past the dispatch and emits nothing backed by it. An
// Instance runs on one goroutine and gives each operator its own context,
// so no two dispatches share one; a bare Ctx (the reference Executor
// makes one per call) starts empty.
func Workspace[T any](ctx *Ctx) *T {
	w, ok := ctx.ws.(*T)
	if !ok {
		w = new(T)
		ctx.ws = w
	}
	return w
}

// frameSlab is one operator's recycled output storage: frames are carved
// from buf at off, and off returns to 0 when the Instance's run epoch
// moves on.
type frameSlab[E any] struct {
	buf   []E
	off   int
	epoch uint64
}

// take carves an n-element frame. A run that outgrows buf gets a new,
// larger one; the old one stays with the frames this run already holds and
// is collected once they die. Doubling settles the slab within twice the
// largest run's need.
func (s *frameSlab[E]) take(epoch uint64, n int) []E {
	if s.epoch != epoch {
		s.epoch, s.off = epoch, 0
	}
	if s.off+n > len(s.buf) {
		s.buf, s.off = make([]E, max(2*len(s.buf), n)), 0
	}
	f := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	clear(f)
	return f
}
