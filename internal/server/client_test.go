package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"wishbone/internal/runtime"
	"wishbone/internal/wire"
)

// encoderChunk is the oracle of appendChunk: a StreamChunk through a
// json.Encoder, as Client.postStream wrote every chunk before appendChunk.
func encoderChunk(as []wire.ArrivalWire) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(wire.StreamChunk{Arrivals: as})
	return buf.Bytes(), err
}

// checkChunk fails t unless appendChunk, after a prefix, writes the
// Encoder's bytes for as, or errs exactly as the Encoder does.
func checkChunk(t *testing.T, as []wire.ArrivalWire) {
	t.Helper()
	want, werr := encoderChunk(as)
	got, gerr := appendChunk([]byte("prefix"), as)
	switch {
	case werr != nil || gerr != nil:
		if werr == nil || gerr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("%+v: error %v, Encoder %v", as, gerr, werr)
		}
	case !bytes.Equal(got, append([]byte("prefix"), want...)):
		t.Fatalf("%+v:\n got %q\nwant prefix%q", as, got, want)
	}
}

// FuzzAppendChunk holds appendChunk to json.Encoder byte for byte, error
// for error, on chunks of up to two arrivals: shape%4 picks a nil slice,
// an empty one, one arrival or two, and shape&4 a nil first value where
// v0 is empty.
func FuzzAppendChunk(f *testing.F) {
	e := localEntry(f, wire.GraphSpec{App: "speech"})
	for _, seed := range ingestSeeds(f, e) {
		for _, o := range runIngest(f, ingestTokens, e, bytes.NewReader(seed)).offers {
			f.Add(uint8(2), o.node, o.source, math.Float64frombits(o.tBits), 0.0, o.typ, "", []byte(o.raw), []byte("1"))
		}
	}
	for _, tm := range []float64{0, math.Copysign(0, -1), 1e-6, 9.99e-7, -5e-324, 1e-7, 1e20, 1e21, -1e21, 123456789.125, 1e300,
		math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(uint8(3), 1, 2, tm, 0.5, "i16s", "", []byte("[1,2]"), []byte("3"))
	}
	for _, typ := range []string{"", "f64s", "<", ">", "&", `"`, `\`, "é", "\n", "\x7f", "a b", "\xff"} {
		f.Add(uint8(3), 0, 0, 0.25, 0.5, "i16s", typ, []byte("[1]"), []byte("[2]"))
	}
	for _, v := range []string{"", "1", "-0", "00", "01", "1.", ".5", "-", "1e5", "-0.5e+2", "1E-3", "1e", " 1", "1 ",
		"[]", "[ ]", "[1, 2]", "[1,2]", "[1,]", "[,1]", "[-0,1.5e3]", "[1]x", "[[1]]", "[1", "[",
		`"a"`, `"<"`, `"\u2028"`, `{"a":1}`, "null", "true", "tru", "\"\xff\""} {
		f.Add(uint8(3), 4, 5, 1.5, 2.5, "f64s", "f64s", []byte(v), []byte("[-7]"))
		f.Add(uint8(6), 4, 5, 1.5, 2.5, "", "", []byte(v), []byte(v))
	}
	f.Add(uint8(0), 0, 0, 0.0, 0.0, "", "", []byte(nil), []byte(nil))
	f.Add(uint8(1), 0, 0, 0.0, 0.0, "", "", []byte(nil), []byte(nil))
	f.Add(uint8(6), -1, math.MaxInt, 0.0, 0.0, "", "", []byte(nil), []byte("1"))
	f.Fuzz(func(t *testing.T, shape uint8, node, src int, t0, t1 float64, typ0, typ1 string, v0, v1 []byte) {
		if shape&4 != 0 && len(v0) == 0 {
			v0 = nil
		}
		var as []wire.ArrivalWire
		switch shape % 4 {
		case 1:
			as = []wire.ArrivalWire{}
		case 2:
			as = []wire.ArrivalWire{{Node: node, Time: t0, Source: src, Type: typ0, Value: v0}}
		case 3:
			as = []wire.ArrivalWire{
				{Node: node, Time: t0, Source: src, Type: typ0, Value: v0},
				{Node: src, Time: t1, Source: node, Type: typ1, Value: v1},
			}
		}
		checkChunk(t, as)
	})
}

// TestClientChunksWalkerPath pins one grammar at both ends of the stream
// routes: every speech and EEG arrival appendChunk writes on its fast path,
// and the walker reads every one of them by hand, with no fallback to
// encoding/json, into the fields that were sent.
func TestClientChunksWalkerPath(t *testing.T) {
	e := localEntry(t, wire.GraphSpec{App: "speech"})
	src := e.graph.Sources()[0].ID()
	for name, as := range map[string][]wire.ArrivalWire{
		"speech": clientArrivals(t, e.traces(wire.TraceSpec{Seed: 1, Seconds: 2})[0].Events, src, 256),
		"eeg":    clientArrivals(t, localEntry(t, wire.GraphSpec{App: "eeg", Channels: 1}).traces(wire.TraceSpec{Seed: 1, Seconds: 4})[0].Events, src, 256),
	} {
		for i := range as {
			if _, ok := appendArrival(nil, &as[i]); !ok {
				t.Fatalf("%s arrival %d left appendArrival's path: %+v", name, i, as[i])
			}
		}
		chunk, err := appendChunk(nil, as)
		if err != nil {
			t.Fatal(err)
		}
		w := &chunkWalker{body: newIngestBody(t, strings.NewReader(ingestHeader))}
		w.resume(bytes.NewReader(chunk))
		w.pos = len(`{"arrivals":[`)
		for i, a := range as {
			if !w.parse() {
				t.Fatalf("%s arrival %d: the walker hands %q to encoding/json", name, i, w.buf[w.pos:min(w.pos+80, w.end)])
			}
			got := w.aw
			if got.Node != a.Node || math.Float64bits(got.Time) != math.Float64bits(a.Time) || got.Source != a.Source ||
				got.Type != a.Type || !bytes.Equal(got.Value, a.Value) {
				t.Fatalf("%s arrival %d: walker read %+v, sent %+v", name, i, got, a)
			}
			w.pos++ // ',' or the closing ']'
		}
		if string(w.buf[w.pos-1:w.end]) != "]}\n" {
			t.Fatalf("%s: chunk ends %q", name, w.buf[w.pos-1:w.end])
		}
	}
}

// TestStreamClientStopsWriterOnReturn: a server that answers 400 after the
// first chunk, while the client is still writing its body, gets a typed
// error back, and the caller's next is never running after SimulateStream
// has returned. next never ends the trace and counts its calls without a
// lock: under -race a writer left behind is a reported race, and a call
// that starts after the return fails the test.
func TestStreamClientStopsWriterOnReturn(t *testing.T) {
	answered := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
			t.Error(err)
		}
		dec := json.NewDecoder(r.Body)
		var hdr wire.SimulateStreamRequest
		var chunk wire.StreamChunk
		if dec.Decode(&hdr) != nil || dec.Decode(&chunk) != nil {
			t.Error("header and first chunk did not decode")
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(wire.ErrorResponse{Error: "no more", Code: "enough"})
		http.NewResponseController(w).Flush()
		close(answered)
	}))
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, ts.Client())

	var returned, late atomic.Bool
	calls := 0
	next := func() ([]wire.ArrivalWire, bool) {
		if returned.Load() {
			late.Store(true)
		}
		if calls++; calls > 1 {
			<-answered // the rest of the body is written while the answer is on its way
		}
		return []wire.ArrivalWire{{Time: float64(calls), Value: json.RawMessage("[1,2,3]")}}, true
	}
	_, err := client.SimulateStream(context.Background(), wire.SimulateStreamRequest{Nodes: 1}, next)
	returned.Store(true)
	n := calls
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest || apiErr.Code != "enough" {
		t.Fatalf("want a typed 400 %q, got %v", "enough", err)
	}
	if n < 2 {
		t.Fatalf("next called %d times; the test needs the writer past the first chunk", n)
	}
	if late.Load() {
		t.Fatal("next was called after SimulateStream returned")
	}
}

// TestClientStatsTypedError: a non-2xx /v1/stats comes back as an
// *APIError carrying the server's code and message, like every other call.
func TestClientStatsTypedError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || r.URL.Path != "/v1/stats" {
			t.Errorf("%s %s, want GET /v1/stats", r.Method, r.URL.Path)
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":"draining","code":"unavailable"}`)
	}))
	t.Cleanup(ts.Close)
	_, err := NewClient(ts.URL, ts.Client()).Stats(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want *APIError, got %T: %v", err, err)
	}
	if apiErr.StatusCode != http.StatusServiceUnavailable || apiErr.Code != "unavailable" || apiErr.Message != "draining" {
		t.Fatalf("got %+v", *apiErr)
	}
}

// BenchmarkAppendChunk writes 64-arrival chunks of speech i16s frames: by
// hand, and through the json.Encoder appendChunk replaced.
func BenchmarkAppendChunk(b *testing.B) {
	e := localEntry(b, wire.GraphSpec{App: "speech"})
	events := e.traces(wire.TraceSpec{Seed: 1, Seconds: 2})[0].Events
	as := clientArrivals(b, events, e.graph.Sources()[0].ID(), 64)
	chunk, err := encoderChunk(as)
	if err != nil {
		b.Fatal(err)
	}
	var buf []byte
	for _, bc := range []struct {
		name   string
		encode func() error
	}{
		{"appendChunk", func() (err error) { buf, err = appendChunk(buf[:0], as); return err }},
		{"Encoder", func() error { return json.NewEncoder(io.Discard).Encode(wire.StreamChunk{Arrivals: as}) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(chunk)))
			for b.Loop() {
				if err := bc.encode(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(as)), "ns/arrival")
		})
	}
}

// TestClientPostEncodeError pins what a request value that does not encode
// costs a caller: json's own error, not a transport's report of a failed
// body — the contract a post that streams its body would have to keep —
// and a server that answers the next call.
func TestClientPostEncodeError(t *testing.T) {
	_, client := startServer(t, Config{})
	ctx := context.Background()
	in := map[string]float64{"x": math.NaN()}
	_, want := json.Marshal(in)
	var out wire.GraphResponse
	err := client.post(ctx, "/v1/graph", in, &out)
	var uv *json.UnsupportedValueError
	if !errors.As(err, &uv) || want == nil || err.Error() != want.Error() {
		t.Fatalf("post error %v (%T), want json's %v", err, err, want)
	}
	if _, err := client.Graph(ctx, wire.GraphSpec{App: "speech"}); err != nil {
		t.Fatal(err)
	}
}

// SimulateResult is Simulate with the result converted to the in-process
// runtime.Result type (byte-identical to a local runtime.Run — JSON
// float64 round-trips are exact).
func (c *Client) SimulateResult(ctx context.Context, req wire.SimulateRequest) (*runtime.Result, *wire.SimulateResponse, error) {
	resp, err := c.Simulate(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	return wireToResult(resp.Result), resp, nil
}

// SimulateStreamSnapshot is SimulateStream ending in a snapshot instead
// of a result: after the trace generator is exhausted it sends a
// snapshot chunk, so the server freezes the session and returns its
// state instead of simulating to Duration. Feed the returned bytes to a
// later request's Resume field (on this or any other host) to continue.
func (c *Client) SimulateStreamSnapshot(ctx context.Context, req wire.SimulateStreamRequest,
	next func() ([]wire.ArrivalWire, bool)) ([]byte, error) {
	var out wire.SimulateResponse
	if err := c.postStream(ctx, "/v1/simulate/stream", req, next, true, &out); err != nil {
		return nil, err
	}
	if len(out.Snapshot) == 0 {
		return nil, fmt.Errorf("server returned no snapshot")
	}
	return out.Snapshot, nil
}

// ProfileStream profiles a graph against a client-supplied trace: the
// header is sent first, then next is called repeatedly for arrival
// batches (return false when the trace is exhausted), chunked exactly
// like SimulateStream. The server measures operator costs and edge rates
// from these arrivals instead of its synthetic trace.
func (c *Client) ProfileStream(ctx context.Context, req wire.ProfileStreamRequest,
	next func() ([]wire.ArrivalWire, bool)) (*wire.ProfileResponse, error) {
	var out wire.ProfileResponse
	if err := c.postStream(ctx, "/v1/profile/stream", req, next, false, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches the server's metrics snapshot.
func (c *Client) Stats(ctx context.Context) (*Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	var out Snapshot
	if err := c.do(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthy reports whether /healthz answers.
func (c *Client) Healthy(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// wireToResult is resultToWire's inverse.
func wireToResult(w *wire.ResultWire) *runtime.Result { return (*runtime.Result)(w) }
