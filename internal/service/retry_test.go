package service

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
)

func TestRetryRecoversTransientFailures(t *testing.T) {
	p := RetryPolicy{Attempts: 3}
	var retries atomic.Uint64
	calls := 0
	err := p.Run(context.Background(), &retries, func() error {
		calls++
		if calls < 3 {
			return fault.ErrInjected
		}
		return nil
	})
	if err != nil || calls != 3 || retries.Load() != 2 {
		t.Errorf("err=%v calls=%d retries=%d", err, calls, retries.Load())
	}
}

func TestRetryExhaustionWrapsError(t *testing.T) {
	p := RetryPolicy{Attempts: 2}
	err := p.Run(context.Background(), nil, func() error { return fault.ErrInjected })
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("cause lost: %v", err)
	}
	if err.Error() == fault.ErrInjected.Error() {
		t.Errorf("exhausted retry should mention the attempt count: %v", err)
	}
}

func TestRetryDoesNotRetryPermanentErrors(t *testing.T) {
	cases := map[string]error{
		"api error":   badRequest("no"),
		"canceled":    context.Canceled,
		"deadline":    context.DeadlineExceeded,
		"pool closed": ErrPoolClosed,
	}
	for name, cause := range cases {
		p := RetryPolicy{Attempts: 5}
		calls := 0
		err := p.Run(context.Background(), nil, func() error { calls++; return cause })
		if calls != 1 {
			t.Errorf("%s: retried a permanent error %d times", name, calls-1)
		}
		if !errors.Is(err, cause) && err.Error() != cause.Error() {
			t.Errorf("%s: error rewritten: %v", name, err)
		}
	}
}

func TestRetryHonoursContextDuringBackoff(t *testing.T) {
	p := RetryPolicy{Attempts: 3, BaseDelay: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- p.Run(ctx, nil, func() error { return fault.ErrInjected })
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry slept through cancellation")
	}
}

func TestRetryBackoffIsBoundedAndGrowing(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	for retry := 1; retry <= 10; retry++ {
		window := min(p.BaseDelay<<uint(retry-1), p.MaxDelay)
		for i := 0; i < 50; i++ {
			d := p.backoff(retry)
			if d < window/2 || d > window {
				t.Fatalf("retry %d: backoff %v outside [%v, %v]", retry, d, window/2, window)
			}
		}
	}
	if (RetryPolicy{}).backoff(1) != 0 {
		t.Error("zero policy should not sleep")
	}
}
