package runtime

import "wishbone/internal/dataflow"

// Who owns the ingest arena's blocks (the rule is in ingest.go's header):
// the proof a bind runs, when a flushed window's blocks may be carved
// again, and the slabs that carve them.

// ingestProof is the arena's proof over cfg's graph: no operator keeps an
// arrival, or emits it again, past the dispatch that received it.
func ingestProof(cfg *Config) bool { return dataflow.BorrowsInjected(cfg.Graph) }

// settleIngest hands the closed generations back to carve once every
// window before the open one is joined and no replay-tail record names
// one: with recovery armed, only the checkpoint that drops the tail.
// Callers have joined the deliveries.
func (s *Session) settleIngest() {
	if len(s.tail) == 0 {
		s.ingest.release()
	}
}

// slab is one element type's blocks: blk is being carved, gen holds the
// open generation's blocks carve has moved past, closed those of the
// generations rotated out and not yet released, free those carve may
// hand out again. Blocks only ever enter free from closed, so a session
// never holds more blocks than the most its windows had in flight at once.
type slab[T any] struct {
	blk               []T
	gen, closed, free [][]T
}

// rotate closes the open generation. Under the proof its blocks wait for
// release; without it the block references drop, as they always did.
func (a *ingestArena) rotate() {
	a.i16.rotate(a.reuse)
	a.i32.rotate(a.reuse)
	a.f32.rotate(a.reuse)
	a.f64.rotate(a.reuse)
	a.by.rotate(a.reuse)
}

// release hands every closed generation's blocks back to carve. The
// session calls it once nothing can read a value carved from them; it is
// a no-op without the proof, which closes nothing.
func (a *ingestArena) release() {
	a.i16.release()
	a.i32.release()
	a.f32.release()
	a.f64.release()
	a.by.release()
}

func (s *slab[T]) rotate(keep bool) {
	if keep && s.blk != nil {
		s.gen = append(s.gen, s.blk)
	}
	s.closed = append(s.closed, s.gen...)
	clear(s.gen)
	s.gen, s.blk = s.gen[:0], nil
}

func (s *slab[T]) release() {
	s.free = append(s.free, s.closed...)
	clear(s.closed)
	s.closed = s.closed[:0]
}

// carve returns the next n elements of the block, starting another block
// only when there is none (so an empty value is non-nil, as encoding/json
// decodes it) or the current one cannot fit them. keep says whether the
// block carve moves past stays with the open generation (the session's
// proof) or drops, kept alive only by the values carved from it. Each
// result is cap-limited to its own n elements, so an append through one
// value can never grow into its neighbour.
func (s *slab[T]) carve(n int, keep bool) []T {
	if s.blk == nil || cap(s.blk)-len(s.blk) < n {
		if keep && s.blk != nil {
			s.gen = append(s.gen, s.blk)
		}
		s.blk = s.take(n)
	}
	start := len(s.blk)
	s.blk = s.blk[:start+n]
	return s.blk[start : start+n : start+n]
}

// take returns an empty block with room for n elements: a released one
// when one fits, else a fresh one of at least ingestBlockElems (an
// oversized value gets a block of its own size).
func (s *slab[T]) take(n int) []T {
	for i := len(s.free) - 1; i >= 0; i-- {
		if b := s.free[i]; cap(b) >= n {
			last := len(s.free) - 1
			s.free[i], s.free[last] = s.free[last], nil
			s.free = s.free[:last]
			return b[:0]
		}
	}
	return make([]T, 0, max(n, ingestBlockElems))
}
