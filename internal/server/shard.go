package server

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	wbruntime "wishbone/internal/runtime"
	"wishbone/internal/wire"
	"wishbone/internal/wvm"
)

// Shard-host mode: the /v1/shard/* endpoints let a coordinator
// (internal/dist) place one simulation's origin shards on this server. A
// shard session is one runtime.ShardHost living across requests — unlike
// every other endpoint, state persists between calls, keyed by the
// session handle /v1/shard/open returns. The coordinator phases each
// session strictly (compute, deliver, compute, ... close), and the
// per-session mutex serializes stray concurrent calls rather than
// corrupting the host.
//
//	POST /v1/shard/open       → build the host for an origin subset
//	POST /v1/shard/compute    → one window's node phase (arrivals in, air + reduce out)
//	POST /v1/shard/deliver    → replay the held window at the priced ratio
//	POST /v1/shard/checkpoint → boundary state blob, session keeps running
//	POST /v1/shard/close      → final partial counters, session ends
//	POST /v1/shard/abort      → tear down without a result
//
// Fault tolerance: compute and deliver carry the coordinator's window
// sequence number, and the session remembers its last sequence (and the
// last compute response) so a coordinator retry whose first attempt
// executed — response lost in flight — is answered from the cache
// instead of re-applied. Lookup failures surface the machine-readable
// code "unknown_session", which the coordinator's retry loop reads as
// "this host lost my state" (restart or drain) and triggers recovery
// rather than pointless retries.

// maxShardSessionsDefault bounds concurrently open shard sessions per
// server (each pins instances for its origins) when Config leaves it 0.
const maxShardSessionsDefault = 256

// shardSession is one open shard host. The per-session mutex serializes
// stray concurrent coordinator calls; graphs themselves (built-ins and
// wscript alike) keep all mutable state in Instance slots, so sessions
// need no cross-request graph lock.
type shardSession struct {
	mu   sync.Mutex
	host *wbruntime.ShardHost

	// At-most-once reply cache for the coordinator's retries of the two
	// non-idempotent calls. Guarded by mu; sequence 0 means "no window
	// seen yet" (the wire field is 1-based).
	lastComputeWin  int64
	lastComputeResp *wire.ShardComputeResponse
	lastDeliverWin  int64
}

// newShardID returns an unguessable session handle.
func newShardID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

func (s *Server) handleShardOpen(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var err error
	var hit bool
	defer func() { s.metrics.Observe("shard_open", time.Since(start), hit, err) }()
	var req wire.ShardOpenRequest
	if err = decode(r, &req); err != nil {
		fail(w, err)
		return
	}
	if err = s.acquireJob(r.Context()); err != nil {
		fail(w, err)
		return
	}
	defer s.releaseJob()
	resp, hit2, err2 := s.shardOpen(&req)
	if hit, err = hit2, err2; err != nil {
		fail(w, err)
		return
	}
	respond(w, resp)
}

func (s *Server) shardOpen(req *wire.ShardOpenRequest) (*wire.ShardOpenResponse, bool, error) {
	plat, err := parsePlatform(req.Platform)
	if err != nil {
		return nil, false, err
	}
	if err := checkSimSize(req.Nodes, req.Duration); err != nil {
		return nil, false, err
	}
	e, entryHit, err := s.getEntry(req.Graph, wvm.Limits{})
	if err != nil {
		return nil, false, err
	}
	if req.GraphHash != "" && req.GraphHash != e.graph.StructuralHash() {
		return nil, false, badRequest("coordinator and host elaborate different graphs from the spec (structural hash mismatch)")
	}
	onNode := make(map[int]bool, e.graph.NumOperators())
	for _, op := range e.graph.Operators() {
		onNode[op.ID()] = false
	}
	for _, id := range req.OnNode {
		if e.graph.ByID(id) == nil {
			return nil, false, badRequest("onNode lists unknown operator %d", id)
		}
		onNode[id] = true
	}
	progs, progHit, err := s.partitionProgramsFor(e, onNode)
	if err != nil {
		return nil, false, err
	}
	cfg := wbruntime.Config{
		Graph:         e.graph,
		OnNode:        onNode,
		Platform:      plat,
		Nodes:         req.Nodes,
		Duration:      req.Duration,
		Seed:          req.Seed,
		Workers:       s.cfg.SimWorkers,
		Shards:        req.Shards,
		NodeProgram:   progs.node,
		ServerProgram: progs.server,
	}
	if len(req.Resume) > 0 && len(req.ResumeHost) > 0 {
		return nil, false, badRequest("resume and resumeHost are mutually exclusive")
	}
	var host *wbruntime.ShardHost
	switch {
	case len(req.ResumeHost) > 0:
		host, err = wbruntime.RestoreShardHostCheckpoint(cfg, req.Origins, req.ResumeHost)
	case len(req.Resume) > 0:
		host, err = wbruntime.RestoreShardHost(cfg, req.Origins, req.Resume)
	default:
		host, err = wbruntime.NewShardHost(cfg, req.Origins)
	}
	if err != nil {
		return nil, false, badRequest("%v", err)
	}
	id, err := newShardID()
	if err != nil {
		host.Abort()
		return nil, false, err
	}
	max := s.cfg.MaxShardSessions
	if max <= 0 {
		max = maxShardSessionsDefault
	}
	s.shardMu.Lock()
	if s.shardClosed {
		s.shardMu.Unlock()
		host.Abort()
		return nil, false, &httpError{code: http.StatusServiceUnavailable, err: fmt.Errorf("server: shutting down")}
	}
	if len(s.shardSessions) >= max {
		s.shardMu.Unlock()
		host.Abort()
		return nil, false, overloaded(fmt.Errorf("server: %d shard sessions already open", max))
	}
	s.shardSessions[id] = &shardSession{host: host}
	s.shardMu.Unlock()
	return &wire.ShardOpenResponse{Session: id, GraphHash: e.key}, entryHit && progHit, nil
}

// shardLookup resolves a session handle; remove also unregisters it
// (close/abort paths — the caller still owns the final host call).
func (s *Server) shardLookup(id string, remove bool) (*shardSession, error) {
	s.shardMu.Lock()
	defer s.shardMu.Unlock()
	ss := s.shardSessions[id]
	if ss == nil {
		// Typed so a coordinator can tell "this host lost my session"
		// (restart/drain → recover the host) from a malformed request.
		return nil, &httpError{
			code: http.StatusBadRequest,
			kind: "unknown_session",
			err:  fmt.Errorf("unknown shard session %q", id),
		}
	}
	if remove {
		delete(s.shardSessions, id)
	}
	return ss, nil
}

func (s *Server) handleShardCompute(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var err error
	defer func() { s.metrics.Observe("shard_compute", time.Since(start), false, err) }()
	var req wire.ShardComputeRequest
	if err = decode(r, &req); err != nil {
		fail(w, err)
		return
	}
	if err = s.acquireJob(r.Context()); err != nil {
		fail(w, err)
		return
	}
	defer s.releaseJob()
	ss, err2 := s.shardLookup(req.Session, false)
	if err = err2; err != nil {
		fail(w, err)
		return
	}
	arrivals := make([]wbruntime.HostArrival, len(req.Arrivals))
	for i, a := range req.Arrivals {
		v, _, err2 := wire.Unmarshal(a.Value)
		if err = err2; err != nil {
			fail(w, badRequest("arrival %d value does not decode: %v", i, err2))
			return
		}
		arrivals[i] = wbruntime.HostArrival{Node: a.Node, Time: a.Time, Source: a.Source, Value: v}
	}
	ss.mu.Lock()
	if req.Window != 0 && req.Window == ss.lastComputeWin && ss.lastComputeResp != nil {
		// Retry of the window we already computed: replay the cached
		// reply rather than double-applying the arrivals.
		resp := ss.lastComputeResp
		ss.mu.Unlock()
		respond(w, resp)
		return
	}
	resp, err2 := ss.host.ComputeWindow(req.Span, arrivals)
	if err = err2; err != nil {
		ss.mu.Unlock()
		fail(w, shardRuntimeError(err))
		return
	}
	if req.Window != 0 {
		ss.lastComputeWin, ss.lastComputeResp = req.Window, resp
	}
	ss.mu.Unlock()
	respond(w, resp)
}

func (s *Server) handleShardDeliver(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var err error
	defer func() { s.metrics.Observe("shard_deliver", time.Since(start), false, err) }()
	var req wire.ShardDeliverRequest
	if err = decode(r, &req); err != nil {
		fail(w, err)
		return
	}
	if err = s.acquireJob(r.Context()); err != nil {
		fail(w, err)
		return
	}
	defer s.releaseJob()
	ss, err2 := s.shardLookup(req.Session, false)
	if err = err2; err != nil {
		fail(w, err)
		return
	}
	ss.mu.Lock()
	if req.Window != 0 && req.Window == ss.lastDeliverWin {
		// Retry of a delivery that already ran: acknowledge without
		// delivering the window twice.
		ss.mu.Unlock()
		respond(w, struct{}{})
		return
	}
	err2 = ss.host.DeliverWindow(req.Ratio)
	if err2 == nil && req.Window != 0 {
		ss.lastDeliverWin = req.Window
	}
	ss.mu.Unlock()
	if err = err2; err != nil {
		fail(w, err)
		return
	}
	respond(w, struct{}{})
}

func (s *Server) handleShardClose(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var err error
	defer func() { s.metrics.Observe("shard_close", time.Since(start), false, err) }()
	var req wire.ShardSessionRequest
	if err = decode(r, &req); err != nil {
		fail(w, err)
		return
	}
	ss, err2 := s.shardLookup(req.Session, true)
	if err = err2; err != nil {
		fail(w, err)
		return
	}
	ss.mu.Lock()
	resp, err2 := ss.host.Close()
	if err2 != nil {
		// The session is already unregistered; abort the host (idempotent)
		// so a failed close can't leak its pinned instances.
		ss.host.Abort()
	}
	ss.mu.Unlock()
	if err = err2; err != nil {
		fail(w, err)
		return
	}
	respond(w, resp)
}

func (s *Server) handleShardSnapshot(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var err error
	defer func() { s.metrics.Observe("shard_snapshot", time.Since(start), false, err) }()
	var req wire.ShardSessionRequest
	if err = decode(r, &req); err != nil {
		fail(w, err)
		return
	}
	ss, err2 := s.shardLookup(req.Session, true)
	if err = err2; err != nil {
		fail(w, err)
		return
	}
	ss.mu.Lock()
	data, err2 := ss.host.Snapshot()
	if err2 != nil {
		// Unregistered above; don't leak the host on a failed freeze.
		ss.host.Abort()
	}
	ss.mu.Unlock()
	if err = err2; err != nil {
		fail(w, err)
		return
	}
	respond(w, &wire.ShardSnapshotResponse{Snapshot: data})
}

func (s *Server) handleShardCheckpoint(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var err error
	defer func() { s.metrics.Observe("shard_checkpoint", time.Since(start), false, err) }()
	var req wire.ShardSessionRequest
	if err = decode(r, &req); err != nil {
		fail(w, err)
		return
	}
	ss, err2 := s.shardLookup(req.Session, false)
	if err = err2; err != nil {
		fail(w, err)
		return
	}
	ss.mu.Lock()
	data, err2 := ss.host.Checkpoint()
	ss.mu.Unlock()
	if err = err2; err != nil {
		fail(w, err)
		return
	}
	respond(w, &wire.ShardCheckpointResponse{Checkpoint: data})
}

func (s *Server) handleShardAbort(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var err error
	defer func() { s.metrics.Observe("shard_abort", time.Since(start), false, err) }()
	var req wire.ShardSessionRequest
	if err = decode(r, &req); err != nil {
		fail(w, err)
		return
	}
	ss, err2 := s.shardLookup(req.Session, true)
	if err = err2; err != nil {
		fail(w, err)
		return
	}
	ss.mu.Lock()
	ss.host.Abort()
	ss.mu.Unlock()
	respond(w, struct{}{})
}

// shardRuntimeError maps VM budget trips to typed 422s and arrival-shaped
// failures to 400s; engine invariants stay 500s.
func shardRuntimeError(err error) error {
	if me := meteringError(err); me != nil {
		return me
	}
	if errors.Is(err, wbruntime.ErrBadArrival) {
		return badRequest("%v", err)
	}
	return err
}

// abortShardSessions tears down every open session (server drain).
func (s *Server) abortShardSessions() {
	s.shardMu.Lock()
	s.shardClosed = true
	sessions := s.shardSessions
	s.shardSessions = make(map[string]*shardSession)
	s.shardMu.Unlock()
	for _, ss := range sessions {
		ss.mu.Lock()
		ss.host.Abort()
		ss.mu.Unlock()
	}
}
