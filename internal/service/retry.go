package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"
)

// RetryPolicy bounds automatic re-execution of transiently failed jobs
// (panics isolated by the pool, injected faults, I/O hiccups). The zero
// value disables retry. Caller errors (4xx validation), context
// cancellation and pool shutdown are never retried: retrying those
// either cannot succeed or would outlive the request.
type RetryPolicy struct {
	// Attempts is the total number of tries including the first;
	// values <= 1 mean a single attempt.
	Attempts int
	// BaseDelay is the backoff before the second attempt; it doubles
	// per retry. Zero retries immediately.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (0 = uncapped).
	MaxDelay time.Duration
}

// permanentError marks an error the retry machinery must not re-run:
// the failure is a property of the request, not of the moment (a peer
// that does not hold a profile, a validation rejection from a remote
// node). Wrapping preserves the cause for errors.Is/As.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so RetryPolicy treats it as non-transient and
// returns it after the first attempt. A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// transientError reports whether err is worth retrying.
func transientError(err error) bool {
	if err == nil {
		return false
	}
	var ae *apiError
	if errors.As(err, &ae) {
		return false
	}
	var pe *permanentError
	if errors.As(err, &pe) {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return !errors.Is(err, ErrPoolClosed)
}

// backoff returns the jittered delay before the given retry (1-based):
// full jitter over an exponentially growing window, so coordinated
// clients that failed together do not retry together.
func (p RetryPolicy) backoff(retry int) time.Duration {
	if p.BaseDelay <= 0 {
		return 0
	}
	d := p.BaseDelay << uint(retry-1)
	if d <= 0 || (p.MaxDelay > 0 && d > p.MaxDelay) {
		d = p.MaxDelay
		if d <= 0 {
			d = p.BaseDelay
		}
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// Run executes fn under the policy: up to Attempts tries with jittered
// exponential backoff between them, counting each retry into retries
// when non-nil. Non-transient errors return immediately: context
// cancellation and Permanent errors are never re-run. Local jobs and
// the cluster tier's per-RPC retries both run through it.
func (p RetryPolicy) Run(ctx context.Context, retries *atomic.Uint64, fn func() error) error {
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for attempt := 1; ; attempt++ {
		err = fn()
		if err == nil || attempt >= attempts || !transientError(err) {
			break
		}
		if retries != nil {
			retries.Add(1)
		}
		if d := p.backoff(attempt); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
		}
	}
	if err != nil && attempts > 1 && transientError(err) {
		return fmt.Errorf("after %d attempts: %w", attempts, err)
	}
	return err
}
