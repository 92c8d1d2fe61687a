package dist

import (
	"context"
	"errors"
	"fmt"
	"time"

	"wishbone/internal/runtime"
	"wishbone/internal/server"
)

// Typed error taxonomy for the shard protocol. Every /v1/shard RPC the
// coordinator issues is wrapped in a retry loop (retryRPC) that
// classifies each failure:
//
//   - transient — network errors, per-attempt timeouts, 5xx, 429: retry
//     with capped exponential backoff;
//   - host lost — the peer answers but no longer knows the session
//     ("unknown_session": it restarted, or drained us): no point
//     retrying, the host is down now;
//   - permanent — other 4xx (the coordinator sent something the peer
//     rejects) and parent-context cancellation: not a host failure,
//     retrying or recovering would just repeat it.
//
// Exhausted retries and lost hosts surface as a *HostError matching
// ErrHostDown via errors.Is — the signal runtime.Session's recovery
// treats as "re-open this host's origins elsewhere". Exhausted retries
// additionally match ErrRetryExhausted.

// ErrHostDown marks a peer the coordinator considers lost. Alias of
// runtime.ErrHostDown (the recovery machinery matches the same
// sentinel).
var ErrHostDown = runtime.ErrHostDown

// ErrRetryExhausted marks an RPC that kept failing transiently until the
// retry budget ran out; the wrapped chain keeps the last cause.
var ErrRetryExhausted = errors.New("dist: rpc retry budget exhausted")

// HostError is the typed failure of one shard RPC after retry: which
// peer, which operation, how many attempts, and the final cause.
// errors.Is(err, ErrHostDown) reports whether the coordinator should
// treat the host as lost; errors.Is(err, ErrRetryExhausted) whether the
// retry budget ran out; errors.As recovers the *HostError itself, and
// Unwrap exposes the cause (e.g. a *server.APIError).
type HostError struct {
	URL      string
	Op       string
	Attempts int
	Err      error

	down      bool
	exhausted bool
}

func (e *HostError) Error() string {
	state := ""
	switch {
	case e.exhausted:
		state = " (retries exhausted, host down)"
	case e.down:
		state = " (host down)"
	}
	return fmt.Sprintf("dist: %s on %s failed after %d attempt(s)%s: %v", e.Op, e.URL, e.Attempts, state, e.Err)
}

func (e *HostError) Unwrap() error { return e.Err }

// Is lets the sentinel matches above work through errors.Is.
func (e *HostError) Is(target error) bool {
	switch target {
	case ErrHostDown:
		return e.down
	case ErrRetryExhausted:
		return e.exhausted
	}
	return false
}

// The per-RPC retry schedule: one attempt is bounded by retryTimeout (the
// parent context still applies), an RPC is tried retryAttempts times in
// all, the first call included, and the delay before a retry starts at
// retryBackoff and doubles per retry up to retryMaxBackoff.
const (
	retryTimeout    = 15 * time.Second
	retryAttempts   = 4
	retryBackoff    = 50 * time.Millisecond
	retryMaxBackoff = 2 * time.Second
)

// retryPolicy is one retry schedule. A Coordinator runs defaultRetry;
// fault-injection tests install a faster one.
type retryPolicy struct {
	timeout             time.Duration
	attempts            int
	backoff, maxBackoff time.Duration
}

var defaultRetry = retryPolicy{retryTimeout, retryAttempts, retryBackoff, retryMaxBackoff}

// errClass buckets one RPC failure for the retry loop.
type errClass int

const (
	errTransient errClass = iota
	errHostLost
	errPermanent
)

func classify(err error) errClass {
	var ae *server.APIError
	if errors.As(err, &ae) {
		switch {
		case ae.Code == "unknown_session":
			// The peer is up but forgot the session: it restarted (or
			// reaped us). Retrying cannot help; the session's state is
			// gone and the host must be recovered.
			return errHostLost
		case ae.StatusCode >= 500 || ae.StatusCode == 429:
			return errTransient
		default:
			return errPermanent
		}
	}
	if errors.Is(err, context.Canceled) {
		// The run itself was canceled — not a host failure.
		return errPermanent
	}
	// Everything else — connection refused/reset, per-attempt deadline,
	// truncated response — is a transport fault worth retrying.
	return errTransient
}

// retryRPC runs one shard RPC under schedule p: each attempt gets its own
// timeout context, transient failures back off exponentially (capped), and
// the final failure wraps into a *HostError classified per the taxonomy
// above.
func retryRPC(ctx context.Context, p retryPolicy, url, op string, f func(ctx context.Context) error) error {
	backoff := p.backoff
	for attempt := 1; ; attempt++ {
		actx, cancel := context.WithTimeout(ctx, p.timeout)
		err := f(actx)
		cancel()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			// The parent context died: report the cancellation, not a
			// host failure (recovery must not trigger on our own exit).
			return &HostError{URL: url, Op: op, Attempts: attempt, Err: err}
		}
		switch classify(err) {
		case errHostLost:
			return &HostError{URL: url, Op: op, Attempts: attempt, Err: err, down: true}
		case errPermanent:
			return &HostError{URL: url, Op: op, Attempts: attempt, Err: err}
		}
		if attempt >= p.attempts {
			return &HostError{URL: url, Op: op, Attempts: attempt, Err: err, down: true, exhausted: true}
		}
		select {
		case <-ctx.Done():
			return &HostError{URL: url, Op: op, Attempts: attempt, Err: err}
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > p.maxBackoff {
			backoff = p.maxBackoff
		}
	}
}
