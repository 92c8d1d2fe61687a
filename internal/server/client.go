package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

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
// response into out.
func (c *Client) postStream(ctx context.Context, path string, header any,
	next func() ([]wire.ArrivalWire, bool), snapshot bool, out any) error {
	pr, pw := io.Pipe()
	go func() {
		enc := json.NewEncoder(pw)
		err := enc.Encode(header)
		for err == nil {
			batch, ok := next()
			if !ok {
				break
			}
			err = enc.Encode(wire.StreamChunk{Arrivals: batch})
		}
		if err == nil && snapshot {
			err = enc.Encode(wire.StreamChunk{Snapshot: true})
		}
		pw.CloseWithError(err) // a nil error is a plain Close
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, pr)
	if err != nil {
		pr.CloseWithError(err) // unblock the encoder goroutine
		return err
	}
	return c.do(req, out)
}

// SimulateStream runs a streaming-ingestion simulation: the header is
// sent first, then next is called repeatedly for arrival batches (return
// false when the trace is exhausted), each encoded as one chunk of the
// chunked request body — the whole trace never resides in client or
// server memory. Arrivals must be globally nondecreasing in time.
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

// ShardCompute runs one window's node phase on an open shard session.
func (c *Client) ShardCompute(ctx context.Context, req wire.ShardComputeRequest) (*wire.ShardComputeResponse, error) {
	var out wire.ShardComputeResponse
	if err := c.post(ctx, "/v1/shard/compute", req, &out); err != nil {
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
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("server: %s", resp.Status)
	}
	var out Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
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
