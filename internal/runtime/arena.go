package runtime

import "sync"

// fragArena carves the per-message fragment storage of the delivery hot
// path — the encoded bytes and the [][]byte headers that message.frags
// points at — out of large reusable chunks. A message's fragments live
// until the message is delivered, so an arena is reset only once every
// message allocated from it is dead: the batch path keeps one arena per
// node-phase shard for the whole run, a streaming host one per origin
// (rewound when the window's delivery ends) and the coordinator one for
// the aggregates (rewound at each join). Arenas recycle
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
