package netsim

import "math/rand"

// NodeSeed derives the packet-loss RNG seed for one origin node's message
// stream from the run seed. Each node's fragment-survival draws come from
// its own deterministic stream, so the delivery outcome of one node's
// messages is independent of how the other nodes' messages interleave —
// the property that lets the runtime shard the server-side delivery loop
// by origin node and still produce byte-identical results for any shard
// count (and lets the sequential loop agree with every sharded one).
//
// The derivation is a splitmix64 finalizer over (seed, nodeID). nodeID −1
// (the runtime's dedicated aggregate origin) is a valid input with its own
// stream; the +2 offset keeps it off the trivial zero fixed point.
func NodeSeed(seed int64, nodeID int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(int64(nodeID)+2)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// LossSampler draws fragment-survival uniforms for one origin node's
// message stream. Draws returns a whole message's worth of uniforms in one
// batched call — one call site per message instead of one rng.Float64()
// per packet scattered through the delivery loop — reusing an internal
// buffer so steady-state sampling allocates nothing. The draw sequence is
// exactly the per-fragment sequence, so batching does not change results.
type LossSampler struct {
	src   rand.Source
	rng   *rand.Rand
	buf   []float64
	count uint64
}

// NewLossSampler returns the sampler for one node's stream; seed it with
// NodeSeed(runSeed, nodeID).
func NewLossSampler(seed int64) *LossSampler {
	src := rand.NewSource(seed)
	return &LossSampler{src: src, rng: rand.New(src)}
}

// Reseed restarts the sampler's draw sequence exactly as if it had been
// freshly constructed with seed, keeping the grown draw buffer. The
// runtime recycles samplers across simulation runs: a recycled sampler must
// produce the byte-identical sequence a new one would (Float64 draws
// stream straight from the source, so reseeding the source suffices).
func (s *LossSampler) Reseed(seed int64) {
	s.src.Seed(seed)
	s.count = 0
}

// DrawCount reports how many uniforms the sampler has produced since its
// last (re)seed. Together with the seed it pins the sampler's exact
// position in its deterministic draw stream, which is all a snapshot needs
// to persist: SeekTo reproduces the position by replay.
func (s *LossSampler) DrawCount() uint64 { return s.count }

// SeekTo reseeds the sampler and discards n draws, leaving it in exactly
// the state of a fresh sampler that has already produced n uniforms —
// the restore half of DrawCount. Replay runs in buffer-sized chunks so
// seeking never allocates beyond the sampler's draw buffer.
func (s *LossSampler) SeekTo(seed int64, n uint64) {
	s.Reseed(seed)
	const chunk = 4096
	for n > 0 {
		step := n
		if step > chunk {
			step = chunk
		}
		s.Draws(int(step))
		n -= step
	}
}

// Draws returns n uniform draws in [0,1). The returned slice aliases the
// sampler's buffer and is valid until the next call.
func (s *LossSampler) Draws(n int) []float64 {
	if cap(s.buf) < n {
		s.buf = make([]float64, n)
	}
	s.buf = s.buf[:n]
	for i := range s.buf {
		s.buf[i] = s.rng.Float64()
	}
	s.count += uint64(n)
	return s.buf
}
