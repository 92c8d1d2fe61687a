package runtime

import "sync"

// fragArena carves the per-message fragment storage of the delivery hot
// path — the encoded bytes and the [][]byte headers that message.frags
// points at — out of large reusable chunks. A message's fragments live
// until the message is delivered, so an arena is reset only once every
// message allocated from it is dead: the batch path keeps one arena per
// node-phase shard for the whole run, the streaming path one set per
// window (recycled when the window's delivery ends). Arenas recycle
// through a process-wide pool, so steady-state simulation — batch runs
// back to back, or windows through a long session — allocates no fragment
// storage at all.
//
// An arena is single-goroutine: exactly one sender (or the reduce
// aggregator) carves from it at a time.
type fragArena struct {
	chunks [][]byte // byte chunks, each arenaChunkSize long
	ci     int      // chunk currently being carved
	off    int      // carve offset in chunks[ci]
	slab   [][]byte // backing storage for per-message frags slices
	used   int      // slab entries handed out
}

const arenaChunkSize = 1 << 16

// bytes returns a length-n buffer carved from the arena. Oversized
// requests get a dedicated allocation that dies with the window instead
// of polluting the chunk list.
func (a *fragArena) bytes(n int) []byte {
	if n > arenaChunkSize/2 {
		return make([]byte, n)
	}
	if a.ci < len(a.chunks) && a.off+n > arenaChunkSize {
		a.ci++
		a.off = 0
	}
	if a.ci >= len(a.chunks) {
		a.chunks = append(a.chunks, make([]byte, arenaChunkSize))
	}
	b := a.chunks[a.ci][a.off : a.off+n]
	a.off += n
	return b
}

// frags returns a zero-length [][]byte with capacity count, backed by the
// arena's slab, for FragmentTo to append into.
func (a *fragArena) frags(count int) [][]byte {
	if a.used+count > len(a.slab) {
		n := 2 * (a.used + count)
		if n < 256 {
			n = 256
		}
		// Messages already handed slices keep the old slab alive until
		// they are delivered — exactly the lifetime the arena guarantees.
		a.slab = make([][]byte, n)
		a.used = 0
	}
	s := a.slab[a.used : a.used : a.used+count]
	a.used += count
	return s
}

// reset forgets every outstanding carve, keeping the chunks and slab for
// reuse. Slab entries are cleared so a recycled arena does not pin the
// previous window's oversized buffers.
func (a *fragArena) reset() {
	for i := range a.slab[:a.used] {
		a.slab[i] = nil
	}
	a.ci, a.off, a.used = 0, 0, 0
}

var arenaPool = sync.Pool{New: func() any { return new(fragArena) }}

func acquireArena() *fragArena { return arenaPool.Get().(*fragArena) }

func releaseArena(a *fragArena) {
	if a == nil {
		return
	}
	a.reset()
	arenaPool.Put(a)
}

// windowBufs is the recyclable storage of one window of a streaming run:
// the node-shard fragment arenas (plus one for the aggregator), the merged
// and post-aggregation message slices, the per-delivery-shard partitions
// and the per-node-shard feed errors. A ShardHost owns exactly one and
// resets it after the window's delivery; a Session recycles its own
// through a free list (the window delivering behind the caller owns its
// buffers until that delivery ends). Steady state allocates no fragment or
// message-slice storage.
type windowBufs struct {
	arenas []*fragArena // one per node shard, plus the aggregator's last
	msgs   []message
	out    []message
	parts  [][]message
	errs   []error // per node shard
}

func newWindowBufs(nodeShards, deliveryShards int) *windowBufs {
	w := &windowBufs{
		arenas: make([]*fragArena, nodeShards+1),
		parts:  make([][]message, deliveryShards),
		errs:   make([]error, nodeShards),
	}
	for i := range w.arenas {
		w.arenas[i] = acquireArena()
	}
	return w
}

// reset rewinds the storage once the window's messages are dead: arenas
// rewound, message slices truncated with their elements cleared so reused
// buffers do not pin the delivered window's values.
func (w *windowBufs) reset() {
	for _, a := range w.arenas {
		a.reset()
	}
	clear(w.msgs)
	w.msgs = w.msgs[:0]
	clear(w.out)
	w.out = w.out[:0]
	for i := range w.parts {
		clear(w.parts[i])
		w.parts[i] = w.parts[i][:0]
	}
	clear(w.errs)
}

func (w *windowBufs) releaseArenas() {
	for _, a := range w.arenas {
		releaseArena(a)
	}
}
