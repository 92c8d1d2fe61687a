package dist

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"wishbone/internal/runtime"
	"wishbone/internal/server"
)

func testPolicy() retryPolicy {
	return retryPolicy{timeout: time.Second, attempts: 3, backoff: time.Millisecond, maxBackoff: 4 * time.Millisecond}
}

// TestClassify pins the error taxonomy: which failures retry, which mean
// the host lost our state, and which are the coordinator's own fault.
func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want errClass
	}{
		{&server.APIError{StatusCode: 400, Code: "unknown_session", Message: "x"}, errHostLost},
		{fmt.Errorf("wrapped: %w", &server.APIError{StatusCode: 400, Code: "unknown_session"}), errHostLost},
		{&server.APIError{StatusCode: 500, Message: "boom"}, errTransient},
		{&server.APIError{StatusCode: 503}, errTransient},
		{&server.APIError{StatusCode: 429, Code: "backpressure"}, errTransient},
		{&server.APIError{StatusCode: 400, Message: "bad graph"}, errPermanent},
		{&server.APIError{StatusCode: 422, Code: "fuel_exhausted"}, errPermanent},
		{context.Canceled, errPermanent},
		{fmt.Errorf("read tcp: connection reset by peer"), errTransient},
		{context.DeadlineExceeded, errTransient}, // per-attempt timeout, parent still live
	}
	for i, c := range cases {
		if got := classify(c.err); got != c.want {
			t.Fatalf("case %d (%v): classified %d, want %d", i, c.err, got, c.want)
		}
	}
}

// TestRetryRPCExhaustion: transient failures burn the whole budget, and
// the final error matches both ErrHostDown and ErrRetryExhausted with
// the last cause preserved in the chain.
func TestRetryRPCExhaustion(t *testing.T) {
	calls := 0
	cause := fmt.Errorf("connection refused")
	err := retryRPC(context.Background(), testPolicy(), "http://peer", "compute", func(context.Context) error {
		calls++
		return cause
	})
	if calls != 3 {
		t.Fatalf("made %d attempts, want 3", calls)
	}
	if !errors.Is(err, ErrHostDown) || !errors.Is(err, ErrRetryExhausted) {
		t.Fatalf("exhausted error %v does not match ErrHostDown+ErrRetryExhausted", err)
	}
	if !errors.Is(err, runtime.ErrHostDown) {
		t.Fatal("dist.ErrHostDown must alias runtime.ErrHostDown for the recovery machinery")
	}
	var he *HostError
	if !errors.As(err, &he) {
		t.Fatalf("error %v is not a *HostError", err)
	}
	if he.URL != "http://peer" || he.Op != "compute" || he.Attempts != 3 || !errors.Is(he.Err, cause) {
		t.Fatalf("bad HostError %+v", he)
	}
}

// TestRetryRPCRecovers: a transient blip followed by success returns nil
// after the retry.
func TestRetryRPCRecovers(t *testing.T) {
	calls := 0
	err := retryRPC(context.Background(), testPolicy(), "u", "deliver", func(context.Context) error {
		calls++
		if calls == 1 {
			return &server.APIError{StatusCode: 502, Message: "proxy hiccup"}
		}
		return nil
	})
	if err != nil || calls != 2 {
		t.Fatalf("err=%v calls=%d, want nil after 2 attempts", err, calls)
	}
}

// TestRetryRPCHostLost: unknown_session stops retrying immediately —
// the host is down, but the budget was not exhausted.
func TestRetryRPCHostLost(t *testing.T) {
	calls := 0
	err := retryRPC(context.Background(), testPolicy(), "u", "compute", func(context.Context) error {
		calls++
		return &server.APIError{StatusCode: 400, Code: "unknown_session", Message: "restarted"}
	})
	if calls != 1 {
		t.Fatalf("kept retrying a lost session: %d attempts", calls)
	}
	if !errors.Is(err, ErrHostDown) {
		t.Fatalf("lost session %v does not match ErrHostDown", err)
	}
	if errors.Is(err, ErrRetryExhausted) {
		t.Fatalf("lost session %v wrongly matches ErrRetryExhausted", err)
	}
	var ae *server.APIError
	if !errors.As(err, &ae) || ae.Code != "unknown_session" {
		t.Fatalf("cause lost from chain: %v", err)
	}
}

// TestRetryRPCPermanent: a 4xx the coordinator caused neither retries
// nor declares the host down.
func TestRetryRPCPermanent(t *testing.T) {
	calls := 0
	err := retryRPC(context.Background(), testPolicy(), "u", "open", func(context.Context) error {
		calls++
		return &server.APIError{StatusCode: 400, Message: "structural hash mismatch"}
	})
	if calls != 1 {
		t.Fatalf("retried a permanent failure: %d attempts", calls)
	}
	if errors.Is(err, ErrHostDown) || errors.Is(err, ErrRetryExhausted) {
		t.Fatalf("permanent failure %v classified as host loss", err)
	}
}

// TestRetryRPCParentCancel: the run's own cancellation is not a host
// failure — recovery must not trigger on our own exit.
func TestRetryRPCParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := retryRPC(ctx, testPolicy(), "u", "compute", func(context.Context) error {
		calls++
		cancel()
		return context.Canceled
	})
	if calls != 1 {
		t.Fatalf("retried after parent cancel: %d attempts", calls)
	}
	if errors.Is(err, ErrHostDown) {
		t.Fatalf("parent cancellation %v classified as host down", err)
	}
}
