package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strconv"

	wbruntime "wishbone/internal/runtime"
	"wishbone/internal/wire"
)

// ingestStream reads a streaming route's body after its header —
// StreamChunk objects, `{"arrivals":[{...},...]}`, until EOF — and offers
// each arrival to sess in one pass over the bytes. An arrival spelled as
// encoding/json writes it is parsed by hand; encoding/json decodes any
// other value, and its result or error is the answer. The body budget
// renews at every chunk and after every arrival.
//
// A chunk carrying `"snapshot": true` ends ingestion: the return is
// (true, nil) and the caller freezes the session instead of closing it;
// any body bytes after the directive are ignored.
func ingestStream(body *requestBody, e *entry, sess streamSession) (bool, error) {
	w := &chunkWalker{body: body, e: e, sess: sess}
	w.resume(body.Buffered())
	for w.skip() == '{' {
		body.renew()
		if err := w.list('}', w.member); err == errSnapshot {
			return true, nil
		} else if err != nil {
			return false, err
		}
	}
	if w.pos == w.end && w.err == io.EOF {
		return false, nil
	}
	return false, w.bad()
}

var errSnapshot = errors.New("snapshot directive")

// offerArrival hands one arrival to the session and maps its failure to
// the response status.
func offerArrival(e *entry, sess streamSession, aw *wire.ArrivalWire) error {
	src := e.graph.ByID(aw.Source)
	if src == nil {
		return badRequest("arrival names unknown source operator %d", aw.Source)
	}
	err := sess.OfferRaw(aw.Node, aw.Time, src, aw.Type, aw.Value)
	if errors.Is(err, wbruntime.ErrBackpressure) {
		return overloaded(err) // the tenant's window buffer hit the server bound
	}
	return runtimeError(err)
}

// chunkWalker is ingestStream's cursor over the body.
type chunkWalker struct {
	body     *requestBody
	e        *entry
	sess     streamSession
	buf      []byte // buf[pos:end] is unread
	pos, end int
	err      error  // what ended the body, io.EOF included
	typ      string // the last arrival type, kept while it repeats
	// Decode targets live here so that handing them over allocates nothing.
	key string
	aw  wire.ArrivalWire
}

// fill reads more of the body behind buf[pos:end], which moves to the
// front; false once the body has ended.
func (w *chunkWalker) fill() bool {
	if w.err != nil {
		return false
	}
	if w.pos > 0 { // at 0 nothing is reclaimed: a value longer than buf grows it
		w.end, w.pos = copy(w.buf, w.buf[w.pos:w.end]), 0
	}
	if w.end == len(w.buf) {
		w.buf = append(w.buf, make([]byte, max(len(w.buf), 64<<10))...)
	}
	n, err := io.ReadAtLeast(w.body, w.buf[w.end:], 1)
	w.end, w.err = w.end+n, err
	return err == nil
}

// decode hands the value at the cursor, from its first buffered byte on,
// to encoding/json, renews the budget and resumes after the value.
func (w *chunkWalker) decode(v any) error {
	r := bytes.NewReader(w.buf[w.pos:w.end])
	dec := json.NewDecoder(io.MultiReader(r, w.body))
	if err := dec.Decode(v); err != nil {
		return bodyError(err)
	}
	w.resume(io.MultiReader(dec.Buffered(), r))
	w.body.renew()
	return nil
}

// resume restarts the walk on what a decoder read but did not use.
func (w *chunkWalker) resume(r io.Reader) {
	w.buf, _ = io.ReadAll(r) // in memory: cannot fail
	w.pos, w.end = 0, len(w.buf)
}

// skip consumes JSON whitespace and returns the next byte, 0 at the end.
func (w *chunkWalker) skip() byte {
	for w.pos < w.end || w.fill() {
		if c := w.buf[w.pos]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
		w.pos++
	}
	return 0
}

// bad answers a break in the chunk grammar at the cursor: a 400, or the
// read error if one, not the body's end, stopped the walk there.
func (w *chunkWalker) bad() error {
	if w.pos == w.end && w.err != io.EOF {
		return bodyError(w.err)
	}
	return badRequest("bad stream chunk at %q", w.buf[w.pos:min(w.pos+1, w.end)])
}

// list walks the comma-separated elements of the object or array whose
// opening byte is at the cursor, through its closing byte.
func (w *chunkWalker) list(close byte, elem func() error) error {
	w.pos++
	for c := w.skip(); c != close; {
		if err := elem(); err != nil {
			return err
		}
		if c = w.skip(); c == ',' {
			w.pos++
		} else if c != close {
			return w.bad()
		}
	}
	w.pos++
	return nil
}

// member reads one chunk field; fields other than "arrivals" and
// "snapshot" are skipped whole.
func (w *chunkWalker) member() error {
	if w.skip() != '"' {
		return w.bad()
	}
	for w.end-w.pos < len(`"arrivals"`) && w.fill() {
	}
	if bytes.HasPrefix(w.buf[w.pos:w.end], []byte(`"arrivals"`)) {
		w.pos, w.key = w.pos+len(`"arrivals"`), "arrivals"
	} else if err := w.decode(&w.key); err != nil { // escapes and case are encoding/json's to read
		return err
	}
	if w.skip() != ':' {
		return w.bad()
	}
	w.pos++
	switch w.key {
	case "arrivals":
		if c := w.skip(); c == '[' {
			return w.list(']', w.arrival)
		} else if c != '{' { // an object is refused at its brace, as the token walk did: it may run past the budget
			var v json.RawMessage
			if err := w.decode(&v); err != nil || string(v) == "null" {
				return err // "arrivals": null is an empty chunk
			}
		}
		return badRequest("bad stream chunk: arrivals must be an array")
	case "snapshot":
		var snap bool
		if err := w.decode(&snap); err != nil || !snap {
			return err
		}
		return errSnapshot
	}
	return w.decode(&json.RawMessage{})
}

// arrival reads one element of an arrivals array and offers it.
func (w *chunkWalker) arrival() error {
	if w.skip() != '{' || !w.parse() {
		w.aw = wire.ArrivalWire{}
		if err := w.decode(&w.aw); err != nil {
			return err
		}
	}
	return offerArrival(w.e, w.sess, &w.aw)
}

// parse reads the object at the cursor, through its first '}', into aw if
// it is an ArrivalWire spelled as encoding/json writes one (docs/service.md,
// "Streaming body framing"). aw.Value is then a slice of buf: OfferRaw does
// not retain it, and its arena decode is the value's one validator.
func (w *chunkWalker) parse() bool {
	n, seen := -1, 0 // buf[pos:pos+seen] holds no '}': a refill rescans only what it adds
	for n < 0 {
		if n = bytes.IndexByte(w.buf[w.pos+seen:w.end], '}'); n >= 0 {
			n += seen
		} else if seen = w.end - w.pos; !w.fill() {
			return false
		}
	}
	b, node := field(w.buf[w.pos:w.pos+n+1], `{"node":`, number)
	b, t := field(b, `,"t":`, number)
	b, src := field(b, `,"source":`, number)
	var typ []byte
	if rest, s := field(b, `,"type":`, quoted); rest != nil {
		b, typ = rest, s[1:len(s)-1]
	}
	b, v := field(b, `,"v":`, extent)
	var errN, errT, errS error
	w.aw.Node, errN = strconv.Atoi(string(node))
	w.aw.Time, errT = strconv.ParseFloat(string(t), 64)
	w.aw.Source, errS = strconv.Atoi(string(src))
	if string(b) != "}" || errN != nil || errT != nil || errS != nil {
		return false
	}
	if string(typ) != w.typ {
		w.typ = string(typ)
	}
	w.aw.Type, w.aw.Value = w.typ, v
	w.pos += n + 1
	w.body.renew()
	return true
}

// field cuts key and the value after it, as scan measures it, off the
// front of b; nil, nil if b does not start with them. A scanner returns
// the length it read, or -1; b ends in '}', which stops every scanner.
func field(b []byte, key string, scan func([]byte) int) (rest, v []byte) {
	if b, ok := bytes.CutPrefix(b, []byte(key)); ok {
		if n := scan(b); n > 0 {
			return b[n:], b[:n]
		}
	}
	return nil, nil
}

// quoted reads a string of printable ASCII without escapes.
func quoted(b []byte) int {
	n := bytes.IndexByte(b[1:], '"') + 2
	if b[0] != '"' || n < 2 || bytes.ContainsFunc(b[1:n-1], func(r rune) bool { return r < ' ' || r == '\\' || r >= 0x7f }) {
		return -1
	}
	return n
}

// number reads a JSON number.
func number(b []byte) int {
	i := 0
	if b[0] == '-' {
		i++
	}
	j := digits(b, i)
	if j == i || b[i] == '0' && j > i+1 {
		return -1
	}
	if b[j] == '.' {
		if i, j = j+1, digits(b, j+1); j == i {
			return -1
		}
	}
	if b[j] == 'e' || b[j] == 'E' {
		if j++; b[j] == '+' || b[j] == '-' {
			j++
		}
		if i, j = j, digits(b, j); j == i {
			return -1
		}
	}
	return j
}

// digits reads a possibly empty run of decimal digits from b[i].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// extent reads an arrival value on the canonical path: an array up to its
// first ']' with no '[', '{' or '"' before it, a string, or a number.
func extent(b []byte) int {
	switch b[0] {
	case '"':
		return quoted(b)
	case '[':
		n := bytes.IndexByte(b, ']') + 1 // IndexByte, unlike IndexAny, is vectorised
		if n == 0 || bytes.IndexByte(b[1:n], '[') >= 0 || bytes.IndexByte(b[:n], '{') >= 0 || bytes.IndexByte(b[:n], '"') >= 0 {
			return -1
		}
		return n
	}
	return number(b)
}
