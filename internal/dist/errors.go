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

// RetryPolicy shapes the per-RPC retry loop. The zero value selects the
// defaults noted per field.
type RetryPolicy struct {
	// Timeout bounds one attempt; 0 means 15s. Negative disables the
	// per-attempt bound (the parent context still applies).
	Timeout time.Duration
	// Attempts is the total tries per RPC (first call included); 0 means
	// 4. 1 disables retry.
	Attempts int
	// Backoff is the delay before the first retry, doubling per retry;
	// 0 means 50ms.
	Backoff time.Duration
	// MaxBackoff caps the doubling; 0 means 2s.
	MaxBackoff time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Timeout == 0 {
		p.Timeout = 15 * time.Second
	}
	if p.Attempts <= 0 {
		p.Attempts = 4
	}
	if p.Backoff <= 0 {
		p.Backoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	return p
}

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

// retryRPC runs one shard RPC under policy p (already defaulted): each
// attempt gets its own timeout context, transient failures back off
// exponentially (capped), and the final failure wraps into a *HostError
// classified per the taxonomy above.
func retryRPC(ctx context.Context, p RetryPolicy, url, op string, f func(ctx context.Context) error) error {
	backoff := p.Backoff
	for attempt := 1; ; attempt++ {
		actx, cancel := ctx, context.CancelFunc(func() {})
		if p.Timeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.Timeout)
		}
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
		if attempt >= p.Attempts {
			return &HostError{URL: url, Op: op, Attempts: attempt, Err: err, down: true, exhausted: true}
		}
		select {
		case <-ctx.Done():
			return &HostError{URL: url, Op: op, Attempts: attempt, Err: err}
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > p.MaxBackoff {
			backoff = p.MaxBackoff
		}
	}
}
