package svc

import (
	"sync"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
)

// BreakerState is the circuit breaker's position.
type BreakerState int32

// Breaker states. Closed admits everything; Open rejects everything
// until the cooldown elapses; HalfOpen admits exactly one probe whose
// outcome decides between Closed and Open.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is the reconfiguration path's circuit breaker: consecutive
// commit failures trip it open, the cooldown de-escalates it to
// half-open, and a successful probe (which in the service is a commit
// that passes the post-commit verification with the watchdog healthy)
// closes it. While open, reconfiguration requests are rejected in
// constant time with Retry-After — a wedged network is not made worse
// by a queue of doomed transactions.
type Breaker struct {
	mu        sync.Mutex
	state     BreakerState
	failures  int
	threshold int
	cooldown  time.Duration
	openedAt  time.Time
	probing   bool
	now       func() time.Time

	// Transitions counts state entries by target state.
	TransToOpen, TransToHalfOpen, TransToClosed metrics.SyncCounter
}

// NewBreaker returns a closed breaker tripping after `threshold`
// consecutive failures and probing again `cooldown` after opening.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether a request may proceed. In half-open state only
// one in-flight probe is admitted; everyone else is rejected until the
// probe resolves.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.setState(BreakerHalfOpen)
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success records a healthy outcome: the failure streak resets and the
// breaker closes from any state.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.probing = false
	if b.state != BreakerClosed {
		b.setState(BreakerClosed)
	}
}

// Failure records a failed commit. A closed breaker trips open at the
// threshold; a half-open probe failure re-opens immediately and
// restarts the cooldown.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	switch b.state {
	case BreakerHalfOpen:
		b.openedAt = b.now()
		b.setState(BreakerOpen)
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.openedAt = b.now()
			b.setState(BreakerOpen)
		}
	}
}

// State returns the current state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// RetryAfter returns how long a rejected caller should wait before
// retrying — the remaining cooldown, rounded up to a whole second.
func (b *Breaker) RetryAfter() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerOpen {
		return time.Second
	}
	left := b.cooldown - b.now().Sub(b.openedAt)
	if left < time.Second {
		left = time.Second
	}
	// Up, never to nearest: a client told 1 s with 1.4 s left comes back
	// into a breaker that is still open.
	return (left + time.Second - 1).Truncate(time.Second)
}

// setState moves to s with telemetry; call with mu held.
func (b *Breaker) setState(s BreakerState) {
	b.state = s
	switch s {
	case BreakerOpen:
		b.TransToOpen.Inc()
	case BreakerHalfOpen:
		b.TransToHalfOpen.Inc()
	case BreakerClosed:
		b.TransToClosed.Inc()
	}
}
