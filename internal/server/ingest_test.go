package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"wishbone/internal/dataflow"
	"wishbone/internal/wire"
)

// ingestTokens is the oracle ingestStream is checked against: the
// json.Decoder token walk the streaming routes ran before the byte walker —
// each arrival object decoded into one reused ArrivalWire, its raw value
// handed to the session.
func ingestTokens(body *requestBody, e *entry, sess streamSession) (snapshot bool, err error) {
	var aw wire.ArrivalWire
	for {
		tok, err := body.Token()
		if err == io.EOF {
			return false, nil
		} else if err != nil {
			return false, bodyError(err)
		}
		if d, ok := tok.(json.Delim); !ok || d != '{' {
			return false, badRequest("bad stream chunk: expected object, got %v", tok)
		}
		body.renew()
		for {
			tok, err := body.Token()
			if err != nil {
				return false, bodyError(err)
			}
			if d, ok := tok.(json.Delim); ok && d == '}' {
				break
			}
			key, ok := tok.(string)
			if !ok {
				return false, badRequest("bad stream chunk: expected field name, got %v", tok)
			}
			if key == "snapshot" {
				var b bool
				if err := body.decodeNext(&b); err != nil {
					return false, err
				}
				if b {
					return true, nil
				}
				continue
			}
			if key != "arrivals" {
				aw.Value = aw.Value[:0]
				if err := body.decodeNext(&aw.Value); err != nil {
					return false, err
				}
				continue
			}
			tok, err = body.Token()
			if err != nil {
				return false, bodyError(err)
			}
			if tok == nil {
				continue // "arrivals": null — an empty chunk
			}
			if d, ok := tok.(json.Delim); !ok || d != '[' {
				return false, badRequest("bad stream chunk: arrivals must be an array")
			}
			for body.More() {
				// Reset per element: Decode merges into the struct.
				aw = wire.ArrivalWire{Value: aw.Value[:0]}
				if err := body.decodeNext(&aw); err != nil {
					return false, err
				}
				if err := offerArrival(e, sess, &aw); err != nil {
					return false, err
				}
			}
			if _, err := body.Token(); err != nil { // closing ']'
				return false, bodyError(err)
			}
		}
	}
}

// decodeNext decodes the body's next JSON value into v and renews the
// budget, as the token walk did for every value it decoded.
func (b *requestBody) decodeNext(v any) error {
	if err := b.Decode(v); err != nil {
		return bodyError(err)
	}
	b.renew()
	return nil
}

type ingestFunc func(*requestBody, *entry, streamSession) (bool, error)

// offer is one OfferRaw call as a recorder saw it.
type offer struct {
	node   int
	tBits  uint64
	source int
	typ    string
	raw    string
}

// recorder is a streamSession that records every offer whose value is
// valid JSON and rejects the others with a 400, as every real session's
// arena decode does.
type recorder struct{ offers []offer }

func (r *recorder) OfferRaw(node int, t float64, src *dataflow.Operator, typ string, raw []byte) error {
	if !json.Valid(raw) {
		return badRequest("bad arrival value %q", raw)
	}
	r.offers = append(r.offers, offer{node, math.Float64bits(t), src.ID(), typ, string(raw)})
	return nil
}

// nopSession accepts every offer.
type nopSession struct{}

func (nopSession) OfferRaw(int, float64, *dataflow.Operator, string, []byte) error { return nil }

// ingestHeader is the header every ingest test body starts with.
const ingestHeader = `{"graph":{"app":"speech"}}`

// newIngestBody is a streaming route's body as endpoint hands it on: the
// header already decoded from it.
func newIngestBody(tb testing.TB, r io.Reader) *requestBody {
	body := &requestBody{src: r}
	body.Decoder = json.NewDecoder(body)
	var hdr wire.ProfileStreamRequest
	if err := body.decodeNext(&hdr); err != nil {
		tb.Fatalf("header: %v", err)
	}
	return body
}

// ingestOutcome is everything a walk tells its caller.
type ingestOutcome struct {
	offers []offer
	snap   bool
	err    error
}

func runIngest(tb testing.TB, walk ingestFunc, e *entry, r io.Reader) ingestOutcome {
	rec := &recorder{}
	snap, err := walk(newIngestBody(tb, io.MultiReader(strings.NewReader(ingestHeader), r)), e, rec)
	return ingestOutcome{rec.offers, snap, err}
}

// statusOf is the HTTP status fail would answer err with.
func statusOf(err error) int {
	var he *httpError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &he):
		return he.code
	}
	return http.StatusInternalServerError
}

// sameOutcome reports how got differs from the oracle's want, or "".
func sameOutcome(got, want ingestOutcome) string {
	if len(got.offers) != len(want.offers) {
		return fmt.Sprintf("%d offers, oracle %d", len(got.offers), len(want.offers))
	}
	for i := range got.offers {
		if got.offers[i] != want.offers[i] {
			return fmt.Sprintf("offer %d: %+v, oracle %+v", i, got.offers[i], want.offers[i])
		}
	}
	if got.snap != want.snap {
		return fmt.Sprintf("snapshot %v, oracle %v", got.snap, want.snap)
	}
	if statusOf(got.err) != statusOf(want.err) {
		return fmt.Sprintf("status %d (%v), oracle %d (%v)", statusOf(got.err), got.err, statusOf(want.err), want.err)
	}
	return ""
}

// valueType is the ArrivalWire type of a trace event.
func valueType(v dataflow.Value) string {
	switch v.(type) {
	case []int16:
		return "i16s"
	case []int32:
		return "i32s"
	case []float32:
		return "f32s"
	case []float64:
		return "f64s"
	}
	return ""
}

// clientArrivals is n events of a trace as a client would send them: four
// nodes in turn, 100 arrivals a second.
func clientArrivals(tb testing.TB, events []dataflow.Value, src, n int) []wire.ArrivalWire {
	as := make([]wire.ArrivalWire, n)
	for i := range as {
		ev := events[i%len(events)]
		as[i] = wire.ArrivalWire{
			Node: i % 4, Time: float64(i) / 100, Source: src, Type: valueType(ev), Value: wireBytes(tb, ev),
		}
	}
	return as
}

// clientChunks is the body Client.postStream sends after its header for n
// events of a trace: one appendChunk per `per` arrivals.
func clientChunks(tb testing.TB, events []dataflow.Value, src, n, per int) []byte {
	var buf []byte
	as := clientArrivals(tb, events, src, n)
	for i := 0; i < n; i += per {
		var err error
		if buf, err = appendChunk(buf, as[i:min(i+per, n)]); err != nil {
			tb.Fatal(err)
		}
	}
	return buf
}

// ingestSeeds is the corpus both walks are held to: Client-encoded speech
// and EEG chunks, then every off-canonical spelling the walker must hand
// to encoding/json, then one chunk cut at every byte.
func ingestSeeds(tb testing.TB, e *entry) [][]byte {
	src := e.graph.Sources()[0].ID()
	speech := e.traces(wire.TraceSpec{Seed: 1, Seconds: 1})[0].Events
	eeg := localEntry(tb, wire.GraphSpec{App: "eeg", Channels: 1}).traces(wire.TraceSpec{Seed: 1, Seconds: 4})[0].Events
	seeds := [][]byte{
		clientChunks(tb, speech, src, 6, 4),
		clientChunks(tb, eeg, src, 3, 2),
		append(clientChunks(tb, speech[:1], src, 2, 2), `{"snapshot":true}{"arrivals":[{"node":9}]}`...),
		// An unknown field longer than encoding/json's first read, then
		// canonical chunks: the walk resumes on every byte the decoder
		// left.
		append(bytes.Replace(clientChunks(tb, speech, src, 2, 2), []byte("arrivals"), []byte("aRrivals"), 1), clientChunks(tb, speech, src, 2, 2)...),
	}
	one := fmt.Sprintf(`{"node":1,"t":0.5,"source":%d,"type":"i16s","v":[1,-2,3]}`, src)
	for _, s := range []string{
		`{"arrivals":[` + one + `,` + one + `]}`,
		// Keys in another case, duplicated, unknown, escaped.
		`{"arrivals":[{"Node":1,"T":0.5,"SOURCE":%[1]d,"Type":"i16s","V":[1]}]}`,
		`{"Arrivals":[{"node":1}],"arrivals":[{"source":%[1]d,"v":[2]}]}`,
		`{"arrivals":[{"node":1,"node":2,"source":%[1]d,"v":[1]}]}`,
		`{"arrivals":[{"source":%[1]d,"v":[1],"v":[2]}],"arrivals":[{"source":%[1]d,"v":3}]}`,
		`{"arrivals":[{"source":%[1]d,"x":{"a":[1,"]"]},"v":[1]}],"extra":[1,{"b":null}]}`,
		`{"arrivals":[{"source":%[1]d,"type":"i16s","v":[1]}]}`,
		`{"arrivals":[{"node":3,"source":%[1]d,"v":[1]}],"arrivals":[{"source":%[1]d,"v":[4]}]}`,
		`{"arrivals":[{"source":%[1]d,"type":"\n","v":[1]}]}`,
		`{"arrivals":[{"source":%[1]d,"type":"é","v":[1]}]}`,
		// Whitespace between every token.
		" \n{ \"arrivals\" :\t[ { \"node\" : 2 , \"t\" : 1.5 , \"source\" : %[1]d , \"type\" : \"i16s\" , \"v\" : [ 1 , 2 ] } , {\r\"source\":%[1]d,\"v\": 7 } ] } \n",
		// Nulls.
		`{"arrivals":[{"node":null,"t":null,"source":%[1]d,"type":null,"v":null}]}`,
		`{"arrivals":[null]}`,
		`{"arrivals":null}`,
		`{"arrivals":null,"snapshot":null}{"snapshot":false}`,
		// Numbers json reads differently from a plain integer.
		`{"arrivals":[{"node":1e2,"source":%[1]d,"v":[1]}]}`,
		`{"arrivals":[{"node":1.0,"source":%[1]d,"v":[1]}]}`,
		`{"arrivals":[{"node":-0,"t":-0,"source":%[1]d,"v":[1]}]}`,
		`{"arrivals":[{"node":-9223372036854775808,"source":%[1]d,"v":[1]}]}`,
		`{"arrivals":[{"node":9223372036854775808,"source":%[1]d,"v":[1]}]}`,
		`{"arrivals":[{"node":01,"source":%[1]d,"v":[1]}]}`,
		`{"arrivals":[{"source":%[1]d,"t":1e400,"v":[1]}]}`,
		`{"arrivals":[{"source":%[1]d,"t":1E-3,"v":-0.5e+2}]}`,
		`{"arrivals":[{"source":%[1]d,"t":-,"v":[1]}]}`,
		// Values: nested, unterminated, invalid, strings.
		`{"arrivals":[{"source":%[1]d,"v":[[1],[2]]}]}`,
		`{"arrivals":[{"source":%[1]d,"v":{"a":1}}]}`,
		`{"arrivals":[{"source":%[1]d,"v":[1,2`,
		`{"arrivals":[{"source":%[1]d,"v":[1 2]}]}`,
		`{"arrivals":[{"source":%[1]d,"v":[1,]}]}`,
		`{"arrivals":[{"source":%[1]d,"type":"bytes","v":"AAEC"}]}`,
		`{"arrivals":[{"source":%[1]d,"type":"bytes","v":"A\"B"}]}`,
		`{"arrivals":[{"source":%[1]d,"v":true}]}`,
		`{"arrivals":[{"source":%[1]d}]}`,
		`{"arrivals":[{}]}`,
		// Broken chunk structure.
		`{"arrivals":[{"source":%[1]d,"v":[1]},]}`,
		`{"arrivals":[{"source":%[1]d,"v":[1]}}`,
		`{"arrivals":[{"source":%[1]d,"v":[1]} {"source":%[1]d,"v":[1]}]}`,
		`{"arrivals":[{"source":%[1]d,"v":[1],}]}`,
		`{"arrivals":[,]}`,
		`{"arrivals":{"node":1}}`,
		`{"arrivals":"x"}`,
		`{"arrivals":[]}{}{"arrivals":[]}`,
		`{"arrivals":[] "snapshot":true}`,
		`{"snapshot":"true"}`,
		`{"snapshot":1}`,
		`{,}`,
		`{"a":1,}`,
		`[{"arrivals":[]}]`,
		`"x"`,
		`12`,
		`}`,
		"\x00",
		`{"arrivals":[{"source":99999,"v":[1]}]}`,
	} {
		if strings.Contains(s, "%[1]d") {
			s = fmt.Sprintf(s, src)
		}
		seeds = append(seeds, []byte(s))
	}
	chunk := []byte(`{"arrivals":[` + one + `,{"source":` + fmt.Sprint(src) + `,"type":"bytes","v":"AAEC"}]}`)
	for i := range chunk {
		seeds = append(seeds, chunk[:i])
	}
	return seeds
}

// FuzzIngestStream holds the byte walker to the token walk on arbitrary
// bodies after a fixed header: the same offers (node, time bits, source,
// type, value bytes), the same snapshot answer, an error exactly when the
// oracle errs and with the same status — and never a panic.
func FuzzIngestStream(f *testing.F) {
	e := localEntry(f, wire.GraphSpec{App: "speech"})
	for _, s := range ingestSeeds(f, e) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want := runIngest(t, ingestTokens, e, bytes.NewReader(data))
		got := runIngest(t, ingestStream, e, bytes.NewReader(data))
		if d := sameOutcome(got, want); d != "" {
			t.Fatalf("body %q: %s", data, d)
		}
	})
}

// TestIngestStreamSplitReads walks the seed corpus through readers that
// hand the body over one byte, or half a read, at a time: no token or
// value extent may break where a refill falls.
func TestIngestStreamSplitReads(t *testing.T) {
	e := localEntry(t, wire.GraphSpec{App: "speech"})
	for _, data := range ingestSeeds(t, e) {
		want := runIngest(t, ingestTokens, e, bytes.NewReader(data))
		for name, r := range map[string]io.Reader{
			"one-byte": iotest.OneByteReader(bytes.NewReader(data)),
			"half":     iotest.HalfReader(bytes.NewReader(data)),
		} {
			if d := sameOutcome(runIngest(t, ingestStream, e, r), want); d != "" {
				t.Errorf("%s reads of %q: %s", name, data, d)
			}
		}
	}
}

// TestIngestStreamBudget: an arrival or key the budget runs out inside is
// the oracle's answer too — a 413 while the bytes read so far are valid
// JSON, a 400 for a syntax error the token walk would have stopped at.
func TestIngestStreamBudget(t *testing.T) {
	e := localEntry(t, wire.GraphSpec{App: "speech"})
	for _, tc := range []struct {
		prefix string
		status int
	}{
		{`{"arrivals":[{"node":0,`, http.StatusRequestEntityTooLarge},
		{`{"arrivals":[{"node":0,]`, http.StatusBadRequest},
		{`{"arrivals":[],"`, http.StatusRequestEntityTooLarge},
		{`{"arrivals":[],"` + "\n", http.StatusBadRequest},
	} {
		body := func() io.Reader {
			return io.MultiReader(strings.NewReader(tc.prefix), io.LimitReader(spaces{}, maxBodyBytes+64<<10))
		}
		want := runIngest(t, ingestTokens, e, body())
		if statusOf(want.err) != tc.status {
			t.Fatalf("%q + padding: oracle answers %v, want status %d", tc.prefix, want.err, tc.status)
		}
		if d := sameOutcome(runIngest(t, ingestStream, e, body()), want); d != "" {
			t.Errorf("%q + padding: %s", tc.prefix, d)
		}
	}
}

// canonicalBody is a Client-encoded body of speech i16s frames, 64
// arrivals per chunk, after the header.
func canonicalBody(tb testing.TB, e *entry, chunks int) []byte {
	events := e.traces(wire.TraceSpec{Seed: 1, Seconds: 2})[0].Events
	return append([]byte(ingestHeader), clientChunks(tb, events, e.graph.Sources()[0].ID(), 64*chunks, 64)...)
}

// TestIngestStreamAllocs pins the walker's allocations to the request, not
// the arrivals: 64 chunks allocate no more than one.
func TestIngestStreamAllocs(t *testing.T) {
	e := localEntry(t, wire.GraphSpec{App: "speech"})
	allocs := func(chunks int) float64 {
		data := canonicalBody(t, e, chunks)
		return testing.AllocsPerRun(10, func() {
			if _, err := ingestStream(newIngestBody(t, bytes.NewReader(data)), e, nopSession{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := allocs(1), allocs(64)
	if many > one || one > 32 {
		t.Fatalf("allocations per request: %v for 64 arrivals, %v for 4096 — want a constant of at most 32", one, many)
	}
}

// BenchmarkIngestStream walks a canonical body of 4096 speech frames into
// a no-op session: the byte walker, and the token walk it replaced over
// the same bytes.
func BenchmarkIngestStream(b *testing.B) {
	e := localEntry(b, wire.GraphSpec{App: "speech"})
	data := canonicalBody(b, e, 64)
	const arrivals = 64 * 64
	for _, bc := range []struct {
		name string
		walk ingestFunc
	}{{"walker", ingestStream}, {"tokens", ingestTokens}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bc.walk(newIngestBody(b, bytes.NewReader(data)), e, nopSession{}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			n := float64(b.N) * arrivals
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/arrival")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/n, "allocs/arrival")
		})
	}
}
