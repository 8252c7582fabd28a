package svc

import (
	"testing"
	"time"
)

// fakeClock drives the breaker's time in tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker(threshold int, cooldown time.Duration) (*Breaker, *fakeClock) {
	b := NewBreaker(threshold, cooldown)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b.now = clk.now
	return b, clk
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker rejected request %d", i)
		}
		b.Failure()
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state after 2/3 failures = %v", b.State())
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state after 3/3 failures = %v", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}
	if got := b.TransToOpen.Load(); got != 1 {
		t.Fatalf("TransToOpen = %d", got)
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatalf("streak did not reset: state = %v", b.State())
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v", b.State())
	}
	clk.advance(1500 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but probe rejected")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	// Only one probe in flight.
	if b.Allow() {
		t.Fatal("second concurrent probe admitted")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("probe success left state %v", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker rejected")
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Failure()
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe rejected")
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("probe failure left state %v", b.State())
	}
	// Cooldown restarted: still rejecting just before it elapses again.
	clk.advance(900 * time.Millisecond)
	if b.Allow() {
		t.Fatal("restarted cooldown did not hold")
	}
	clk.advance(200 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("second probe rejected after restarted cooldown")
	}
}

func TestBreakerRetryAfter(t *testing.T) {
	b, clk := newTestBreaker(1, 10*time.Second)
	if got := b.RetryAfter(); got != time.Second {
		t.Fatalf("closed RetryAfter = %v", got)
	}
	b.Failure()
	if got := b.RetryAfter(); got != 10*time.Second {
		t.Fatalf("open RetryAfter = %v", got)
	}
	// Rounded up to a whole second, never to the nearest: advertising
	// 1 s with 1.4 s left sends a client back into an open breaker.
	for _, c := range []struct{ advance, left, want time.Duration }{
		{8600 * time.Millisecond, 1400 * time.Millisecond, 2 * time.Second},
		{400 * time.Millisecond, time.Second, time.Second},
		{800 * time.Millisecond, 200 * time.Millisecond, time.Second},
	} {
		clk.advance(c.advance)
		if got := b.RetryAfter(); got != c.want {
			t.Fatalf("RetryAfter with %v left = %v, want %v", c.left, got, c.want)
		}
	}
}
