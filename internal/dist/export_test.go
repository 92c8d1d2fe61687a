package dist

import "time"

// SetRetry replaces c's retry schedule before its first Run: one attempt
// bounded by timeout, attempts tries in all, backoff doubling up to
// maxBackoff. Fault-injection tests run a fast one.
func (c *Coordinator) SetRetry(timeout time.Duration, attempts int, backoff, maxBackoff time.Duration) {
	c.retry = retryPolicy{timeout, attempts, backoff, maxBackoff}
}
