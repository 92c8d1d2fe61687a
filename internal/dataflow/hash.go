package dataflow

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
)

// StructuralHash returns a stable content hash of the graph's structure:
// every operator's name, namespace, and statefulness/side-effect/reduce
// flags, and every edge's endpoints and port, in insertion order. Two
// graphs built the same way hash identically across processes, which is
// what lets a server cache compiled Programs by graph content instead of
// by pointer identity. Work functions and state constructors are opaque
// and deliberately excluded: callers that transmit graphs by description
// (a builder spec or source text) must fold that description into their
// cache key as well.
func (g *Graph) StructuralHash() string {
	h := sha256.New()
	writeStructure(h, g)
	return hex.EncodeToString(h.Sum(nil))
}

// writeStructure feeds the canonical structural encoding of g into h.
func writeStructure(h hash.Hash, g *Graph) {
	var buf [8]byte
	writeInt := func(v int) {
		binary.BigEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	writeStr := func(s string) {
		writeInt(len(s))
		h.Write([]byte(s))
	}
	writeBool := func(b bool) {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	writeInt(g.NumOperators())
	for _, op := range g.Operators() {
		writeStr(op.Name)
		writeInt(int(op.NS))
		writeBool(op.Stateful)
		writeBool(op.SideEffect)
		writeBool(op.Reduce)
	}
	writeInt(g.NumEdges())
	for _, e := range g.Edges() {
		writeInt(e.From.ID())
		writeInt(e.To.ID())
		writeInt(e.ToPort)
	}
}
