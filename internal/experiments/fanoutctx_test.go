package experiments

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestFanOutCtxCompletesWithoutCancel(t *testing.T) {
	const n = 50
	var calls atomic.Int64
	err := FanOutCtx(context.Background(), 8, n, func(i int) bool {
		calls.Add(1)
		return true
	})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if got := calls.Load(); got != n {
		t.Fatalf("calls = %d, want %d", got, n)
	}
}

func TestFanOutCtxStopsClaimingOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	started := make(chan struct{}, 1)
	err := FanOutCtx(ctx, 2, 10_000, func(i int) bool {
		calls.Add(1)
		select {
		case started <- struct{}{}:
			// First index in: cancel from here so the test needs no
			// background goroutine or sleep.
			cancel()
		default:
			// Every other call waits for the cancel, so no worker can
			// run the sweep to the end before it happens.
			<-ctx.Done()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// In-flight work finished, but the sweep stopped claiming: far
	// fewer than n indices ran.
	if got := calls.Load(); got == 0 || got >= 10_000 {
		t.Fatalf("calls = %d, want a small nonzero prefix", got)
	}
}

func TestFanOutCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	err := FanOutCtx(ctx, 4, 100, func(i int) bool {
		calls.Add(1)
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if got := calls.Load(); got != 0 {
		t.Fatalf("pre-cancelled context still ran %d indices", got)
	}
}

func TestFanOutCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	var calls atomic.Int64
	err := FanOutCtx(ctx, 4, 1_000_000, func(i int) bool {
		calls.Add(1)
		time.Sleep(time.Millisecond)
		return true
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestFanOutCtxEarlyStopReturnsNil(t *testing.T) {
	// fn returning false is the legacy stop signal, not a context
	// cancellation: no error.
	var calls atomic.Int64
	err := FanOutCtx(context.Background(), 1, 100, func(i int) bool {
		calls.Add(1)
		return i < 5
	})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if got := calls.Load(); got != 6 {
		t.Fatalf("calls = %d, want 6", got)
	}
}
