package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	wbruntime "wishbone/internal/runtime"
	"wishbone/internal/wire"
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
//	POST /v1/shard/open       → build the host for an origin subset (fresh, or from a host blob)
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
//
// Leases: every RPC that names a session renews it. A coordinator that
// died without closing leaves its sessions idle; when the table is full,
// the next open aborts the ones idle longer than shardSessionIdle before
// it answers 429, so a vanished coordinator cannot pin the table until
// drain. An evicted handle answers "unknown_session" like any lost one.

// shardSessionIdle is how long a shard session may go without an RPC
// before a full table gives its slot away — far above the coordinator's
// whole retry budget for one call (dist.RetryPolicy: 15 s × 4 attempts),
// so a live run is never evicted between two of its windows.
const shardSessionIdle = 5 * time.Minute

// bodyIdle is how long a request body may go without a byte before its
// read fails with a typed 408 (code "idle"). A streaming route holds a job
// slot from its header to its close, so without it a client that stalls
// mid-upload keeps the slot for as long as it keeps the socket open. The
// bound is on silence, not on the upload's length: it restarts at every
// read of the body.
const bodyIdle = time.Minute

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

	// lastUsed is when the session was opened or last looked up; guarded
	// by Server.shardMu, not mu.
	lastUsed time.Time

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

func (s *Server) shardOpen(ctx context.Context, req *wire.ShardOpenRequest) (*wire.ShardOpenResponse, bool, error) {
	e, cfg, hit, err := s.resolveRun(ctx, &runSpec{
		graph: req.Graph, platform: req.Platform, onNode: req.OnNode,
		nodes: req.Nodes, duration: req.Duration, seed: req.Seed, shards: req.Shards,
	})
	if err != nil {
		return nil, false, err
	}
	if req.GraphHash != "" && req.GraphHash != e.graph.StructuralHash() {
		return nil, false, badRequest("coordinator and host elaborate different graphs from the spec (structural hash mismatch)")
	}
	var host *wbruntime.ShardHost
	if len(req.ResumeHost) > 0 {
		host, err = wbruntime.RestoreShardHost(cfg, req.Origins, req.ResumeHost)
	} else {
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
	now := s.now()
	var idle []*shardSession
	if len(s.shardSessions) >= max {
		for sid, ss := range s.shardSessions {
			if now.Sub(ss.lastUsed) > shardSessionIdle {
				delete(s.shardSessions, sid)
				idle = append(idle, ss)
			}
		}
		s.shardExpired += int64(len(idle))
	}
	full := len(s.shardSessions) >= max
	if !full {
		s.shardSessions[id] = &shardSession{host: host, lastUsed: now}
	}
	s.shardMu.Unlock()
	for _, ss := range idle {
		ss.abort()
	}
	if full {
		host.Abort()
		return nil, false, overloaded(fmt.Errorf("server: %d shard sessions already open", max))
	}
	return &wire.ShardOpenResponse{Session: id, GraphHash: e.key}, hit, nil
}

// abort tears the session's host down (idempotent); the caller has already
// unregistered it.
func (ss *shardSession) abort() {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.host.Abort()
}

// shardLookup resolves a session handle and renews its lease; remove also
// unregisters it (close/abort paths — the caller still owns the final host
// call).
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
	ss.lastUsed = s.now()
	if remove {
		delete(s.shardSessions, id)
	}
	return ss, nil
}

func (s *Server) shardCompute(_ context.Context, req *wire.ShardComputeRequest) (*wire.ShardComputeResponse, bool, error) {
	ss, err := s.shardLookup(req.Session, false)
	if err != nil {
		return nil, false, err
	}
	arrivals := make([]wbruntime.HostArrival, len(req.Arrivals))
	for i, a := range req.Arrivals {
		v, _, err := wire.Unmarshal(a.Value)
		if err != nil {
			return nil, false, badRequest("arrival %d value does not decode: %v", i, err)
		}
		arrivals[i] = wbruntime.HostArrival{Node: a.Node, Time: a.Time, Source: a.Source, Value: v}
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if req.Window != 0 && req.Window == ss.lastComputeWin && ss.lastComputeResp != nil {
		// Retry of the window we already computed: replay the cached
		// reply rather than double-applying the arrivals.
		return ss.lastComputeResp, false, nil
	}
	resp, err := ss.host.ComputeWindow(arrivals)
	if err != nil {
		return nil, false, runtimeError(err)
	}
	if req.Window != 0 {
		ss.lastComputeWin, ss.lastComputeResp = req.Window, resp
	}
	return resp, false, nil
}

func (s *Server) shardDeliver(_ context.Context, req *wire.ShardDeliverRequest) (struct{}, bool, error) {
	ss, err := s.shardLookup(req.Session, false)
	if err != nil {
		return struct{}{}, false, err
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if req.Window != 0 && req.Window == ss.lastDeliverWin {
		// Retry of a delivery that already ran: acknowledge without
		// delivering the window twice.
		return struct{}{}, false, nil
	}
	if err := ss.host.DeliverWindow(req.Ratio); err != nil {
		// The host keeps answering with this failure: a retry must not find
		// the window gone and acknowledge a delivery that never ran.
		return struct{}{}, false, runtimeError(err)
	}
	if req.Window != 0 {
		ss.lastDeliverWin = req.Window
	}
	return struct{}{}, false, nil
}

func (s *Server) shardClose(_ context.Context, req *wire.ShardSessionRequest) (*wire.ShardCloseResponse, bool, error) {
	ss, err := s.shardLookup(req.Session, true)
	if err != nil {
		return nil, false, err
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	resp, err := ss.host.Close()
	if err != nil {
		// The session is already unregistered; abort the host (idempotent)
		// so a failed close can't leak its pinned instances.
		ss.host.Abort()
		return nil, false, runtimeError(err)
	}
	return resp, false, nil
}

func (s *Server) shardCheckpoint(_ context.Context, req *wire.ShardSessionRequest) (*wire.ShardCheckpointResponse, bool, error) {
	ss, err := s.shardLookup(req.Session, false)
	if err != nil {
		return nil, false, err
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	data, err := ss.host.Checkpoint()
	if err != nil {
		return nil, false, runtimeError(err)
	}
	return &wire.ShardCheckpointResponse{Checkpoint: data}, false, nil
}

func (s *Server) shardAbort(_ context.Context, req *wire.ShardSessionRequest) (struct{}, bool, error) {
	ss, err := s.shardLookup(req.Session, true)
	if err != nil {
		return struct{}{}, false, err
	}
	ss.abort()
	return struct{}{}, false, nil
}

// runtimeError maps a session's failure: VM budget trips to typed 422s,
// arrival-shaped failures to 400s; engine invariants stay 500s.
func runtimeError(err error) error {
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
		ss.abort()
	}
}
