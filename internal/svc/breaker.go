package svc

import (
	"sync"
	"sync/atomic"
	"time"
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
	mu sync.Mutex
	// state is a BreakerState, written under mu; the service registry
	// reads it where it is (BindAtomic), as it does the transitions.
	state     atomic.Int64
	failures  int
	threshold int
	cooldown  time.Duration
	openedAt  time.Time
	probing   bool
	now       func() time.Time

	// Transitions counts state entries by target state.
	TransToOpen, TransToHalfOpen, TransToClosed atomic.Uint64
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
	switch b.State() {
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
	if b.State() != BreakerClosed {
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
	switch b.State() {
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
func (b *Breaker) State() BreakerState { return BreakerState(b.state.Load()) }

// RetryAfter returns how long a rejected caller should wait before
// retrying — the remaining cooldown, rounded up to a whole second.
func (b *Breaker) RetryAfter() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.State() != BreakerOpen {
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
	b.state.Store(int64(s))
	switch s {
	case BreakerOpen:
		b.TransToOpen.Add(1)
	case BreakerHalfOpen:
		b.TransToHalfOpen.Add(1)
	case BreakerClosed:
		b.TransToClosed.Add(1)
	}
}
