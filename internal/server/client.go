package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"wishbone/internal/runtime"
	"wishbone/internal/wire"
)

// Client is the Go client for the partition service. The zero value is
// not usable; call NewClient. A Client is safe for concurrent use.
type Client struct {
	base string
	http *http.Client
}

// APIError is a non-2xx response from the service. Code carries the
// machine-readable class when the server set one — "backpressure" means
// a streaming simulation was shed with 429 and may be retried with
// smaller chunks or later.
type APIError struct {
	StatusCode int
	Status     string
	Code       string
	Message    string
}

func (e *APIError) Error() string {
	if e.Message == "" {
		return fmt.Sprintf("server: %s", e.Status)
	}
	if e.Code != "" {
		return fmt.Sprintf("server: %s (%s, code %s)", e.Message, e.Status, e.Code)
	}
	return fmt.Sprintf("server: %s (%s)", e.Message, e.Status)
}

// apiError decodes a non-2xx response body into an *APIError.
func apiError(resp *http.Response) error {
	e := &APIError{StatusCode: resp.StatusCode, Status: resp.Status}
	var er wire.ErrorResponse
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(data, &er) == nil {
		e.Message = er.Error
		e.Code = er.Code
	}
	return e
}

// NewClient returns a client for the service at base (e.g.
// "http://localhost:9090"). httpClient may be nil for http.DefaultClient.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: base, http: httpClient}
}

// post sends a JSON body and decodes the JSON response into out.
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return c.postBytes(ctx, path, body, out)
}

// postBytes sends body as it is and decodes the JSON response into out.
// The body is a bytes.Reader, so the request carries its ContentLength
// and a GetBody that replays it.
func (c *Client) postBytes(ctx context.Context, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	return c.do(req, out)
}

// do sends a JSON request and decodes the 200 response into out; any
// other status comes back as an *APIError.
func (c *Client) do(req *http.Request, out any) error {
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Graph fetches a spec's elaborated structure and content hash.
func (c *Client) Graph(ctx context.Context, spec wire.GraphSpec) (*wire.GraphResponse, error) {
	var out wire.GraphResponse
	if err := c.post(ctx, "/v1/graph", wire.GraphRequest{Graph: spec}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Profile profiles a graph on the server.
func (c *Client) Profile(ctx context.Context, req wire.ProfileRequest) (*wire.ProfileResponse, error) {
	var out wire.ProfileResponse
	if err := c.post(ctx, "/v1/profile", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Partition runs the full AutoPartition loop on the server.
func (c *Client) Partition(ctx context.Context, req wire.PartitionRequest) (*wire.PartitionResponse, error) {
	var out wire.PartitionResponse
	if err := c.post(ctx, "/v1/partition", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Simulate runs a deployment simulation on the server.
func (c *Client) Simulate(ctx context.Context, req wire.SimulateRequest) (*wire.SimulateResponse, error) {
	var out wire.SimulateResponse
	if err := c.post(ctx, "/v1/simulate", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
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

// postStream sends a streaming request body — the header, then one
// StreamChunk per batch next yields (it returns false when the trace is
// exhausted), then a snapshot chunk when snapshot is set — through a pipe,
// so the whole trace never resides in client memory, and decodes the JSON
// response into out. next is never running once postStream has returned:
// a response that comes back while the body is still being written (an
// early 4xx, say) stops the writer, and postStream waits for it.
func (c *Client) postStream(ctx context.Context, path string, header any,
	next func() ([]wire.ArrivalWire, bool), snapshot bool, out any) error {
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		enc := json.NewEncoder(pw)
		err := enc.Encode(header)
		var buf []byte
		for err == nil {
			batch, ok := next()
			if !ok {
				break
			}
			if buf, err = appendChunk(buf[:0], batch); err == nil {
				_, err = pw.Write(buf)
			}
		}
		if err == nil && snapshot {
			err = enc.Encode(wire.StreamChunk{Snapshot: true})
		}
		pw.CloseWithError(err) // a nil error is a plain Close
	}()
	defer func() {
		pr.Close() // fails the writer's next write
		<-done
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, pr)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

// appendChunk appends wire.StreamChunk{Arrivals: as} to b byte for byte as
// a json.Encoder writes it, trailing newline included, or returns the
// error Encode would. Each arrival goes through appendArrival, or, off its
// path, through json.Marshal, whose bytes and errors are the Encoder's.
func appendChunk(b []byte, as []wire.ArrivalWire) ([]byte, error) {
	if as == nil {
		return append(b, `{"arrivals":null}`+"\n"...), nil
	}
	b = append(b, `{"arrivals":[`...)
	for i := range as {
		if i > 0 {
			b = append(b, ',')
		}
		var ok bool
		if b, ok = appendArrival(b, &as[i]); !ok {
			raw, err := json.Marshal(&as[i])
			if err != nil {
				return nil, err
			}
			b = append(b, raw...)
		}
	}
	return append(b, "]}\n"...), nil
}

// appendArrival appends a as encoding/json writes it, if every field is on
// the path the walker reads by hand (docs/service.md, "Streaming body
// framing"): a finite t, a type of printable ASCII that encoding/json does
// not escape, and a value that is a number or a flat array of numbers
// without whitespace, which encoding/json copies unchanged. Otherwise it
// returns b as it was and false.
func appendArrival(b []byte, a *wire.ArrivalWire) ([]byte, bool) {
	if math.IsNaN(a.Time) || math.IsInf(a.Time, 0) || !plainType(a.Type) || !plainValue(a.Value) {
		return b, false
	}
	b = append(b, `{"node":`...)
	b = strconv.AppendInt(b, int64(a.Node), 10)
	b = append(b, `,"t":`...)
	b = appendFloat(b, a.Time)
	b = append(b, `,"source":`...)
	b = strconv.AppendInt(b, int64(a.Source), 10)
	if a.Type != "" {
		b = append(b, `,"type":"`...)
		b = append(b, a.Type...)
		b = append(b, '"')
	}
	b = append(b, `,"v":`...)
	b = append(b, a.Value...)
	return append(b, '}'), true
}

// appendFloat appends a finite f in encoding/json's spelling: the shortest
// 'f' form, or 'e' outside [1e-6, 1e21), with a one-digit negative
// exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	abs, format := math.Abs(f), byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// plainType reports whether encoding/json writes s between its quotes
// unchanged: printable ASCII without '"', '\\' or the HTML characters an
// Encoder escapes.
func plainType(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// plainValue reports whether v is a JSON number, or an array of numbers,
// with no whitespace.
func plainValue(v []byte) bool {
	if len(v) == 0 || v[0] != '[' {
		return number(v) == len(v)
	}
	if string(v) == "[]" {
		return true
	}
	for i := 1; i < len(v); i++ {
		n := number(v[i:])
		if n < 0 {
			return false
		}
		if i += n; i == len(v)-1 && v[i] == ']' {
			return true
		} else if i >= len(v) || v[i] != ',' {
			return false
		}
	}
	return false
}

// SimulateStream runs a streaming-ingestion simulation: the header is
// sent first, then next is called repeatedly for arrival batches (return
// false when the trace is exhausted), each encoded as one chunk of the
// chunked request body — the whole trace never resides in client or
// server memory. Arrivals must be globally nondecreasing in time. next is
// not running once SimulateStream has returned, whatever the outcome.
func (c *Client) SimulateStream(ctx context.Context, req wire.SimulateStreamRequest,
	next func() ([]wire.ArrivalWire, bool)) (*wire.SimulateResponse, error) {
	var out wire.SimulateResponse
	if err := c.postStream(ctx, "/v1/simulate/stream", req, next, false, &out); err != nil {
		return nil, err
	}
	return &out, nil
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

// ShardOpen opens a shard-host session for an origin subset of one
// simulation (see internal/dist for the coordinator that drives these).
func (c *Client) ShardOpen(ctx context.Context, req wire.ShardOpenRequest) (*wire.ShardOpenResponse, error) {
	var out wire.ShardOpenResponse
	if err := c.post(ctx, "/v1/shard/open", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ShardComputeBody runs one window's node phase on an open shard session,
// the request already encoded by wire.AppendShardCompute. After a nil
// error the host has read body whole (it answers only then), so the
// caller may reuse the buffer; after an error the transport may still be
// reading it.
func (c *Client) ShardComputeBody(ctx context.Context, body []byte) (*wire.ShardComputeResponse, error) {
	var out wire.ShardComputeResponse
	if err := c.postBytes(ctx, "/v1/shard/compute", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ShardDeliver replays the held window at the coordinator-priced ratio.
func (c *Client) ShardDeliver(ctx context.Context, req wire.ShardDeliverRequest) error {
	var out struct{}
	return c.post(ctx, "/v1/shard/deliver", req, &out)
}

// ShardCheckpoint returns the host's boundary checkpoint blob without
// ending the session (non-terminal snapshot; see
// wire.ShardCheckpointResponse). The coordinator retains it to restore
// the host on a surviving peer if this one later fails.
func (c *Client) ShardCheckpoint(ctx context.Context, session string) ([]byte, error) {
	var out wire.ShardCheckpointResponse
	if err := c.post(ctx, "/v1/shard/checkpoint", wire.ShardSessionRequest{Session: session}, &out); err != nil {
		return nil, err
	}
	if len(out.Checkpoint) == 0 {
		return nil, fmt.Errorf("server returned no shard checkpoint")
	}
	return out.Checkpoint, nil
}

// ShardClose finishes a shard session and returns its partial counters.
func (c *Client) ShardClose(ctx context.Context, session string) (*wire.ShardCloseResponse, error) {
	var out wire.ShardCloseResponse
	if err := c.post(ctx, "/v1/shard/close", wire.ShardSessionRequest{Session: session}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ShardAbort tears down a shard session without a result.
func (c *Client) ShardAbort(ctx context.Context, session string) error {
	var out struct{}
	return c.post(ctx, "/v1/shard/abort", wire.ShardSessionRequest{Session: session}, &out)
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
