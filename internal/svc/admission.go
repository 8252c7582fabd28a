package svc

import (
	"context"
	"errors"

	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
)

// Admission is the service's bounded intake: each request class has a
// concurrency limit (slots actually doing work) and a wait bound
// (requests queued for a slot). Anything beyond the wait bound is shed
// immediately with 429 — the queue can never grow without limit, so
// overload degrades into fast rejections instead of collapse.
//
// Shed order is derivation before reconfiguration: derivations are
// cacheable, retryable, stateless work, while a reconfiguration carries
// a client's intent to change the live network. When the reconfig
// backlog crosses its pressure threshold, derive requests are shed even
// though their own queue has room, returning capacity to the class that
// cannot be replayed from cache.
type Admission struct {
	Derive   *ClassQueue
	Reconfig *ClassQueue
}

// ErrShed marks a request rejected by admission control (HTTP 429).
var ErrShed = errors.New("svc: admission queue full")

// ClassQueue is one request class's bounded queue.
type ClassQueue struct {
	name    string
	slots   chan struct{}
	maxWait int64
	// release frees one slot. It is bound once here: returning the
	// method value q.free from Acquire would allocate per admission.
	release func()

	// Waiting is the live queue depth (acquired but not yet running);
	// DepthHW its high-water mark; Shed the rejections by reason.
	Waiting      metrics.SyncGauge
	DepthHW      metrics.SyncGauge
	ShedFull     metrics.SyncCounter
	ShedPressure metrics.SyncCounter
	ShedDeadline metrics.SyncCounter
}

// NewClassQueue builds a queue admitting `concurrency` simultaneous
// requests with at most `maxWait` more waiting.
func NewClassQueue(name string, concurrency, maxWait int) *ClassQueue {
	if concurrency < 1 {
		concurrency = 1
	}
	if maxWait < 0 {
		maxWait = 0
	}
	q := &ClassQueue{
		name:    name,
		slots:   make(chan struct{}, concurrency),
		maxWait: int64(maxWait),
	}
	q.release = q.free
	return q
}

// NewAdmission wires the two service classes.
func NewAdmission(deriveConc, deriveWait, reconfigWait int) *Admission {
	return &Admission{
		Derive: NewClassQueue("derive", deriveConc, deriveWait),
		// The managed instance serializes commits, so reconfig
		// concurrency is 1 by construction; only the wait bound varies.
		Reconfig: NewClassQueue("reconfig", 1, reconfigWait),
	}
}

// Pressured reports whether the reconfig backlog is deep enough
// (≥ 80% of its wait bound) that derive traffic should be shed first.
func (a *Admission) Pressured() bool {
	return a.Reconfig.maxWait > 0 &&
		a.Reconfig.Waiting.Value()*5 >= a.Reconfig.maxWait*4
}

// Acquire admits the request or rejects it: ErrShed when the queue is
// full (or sheddable under pressure), ctx.Err() when the request's
// deadline expired while waiting. On success the caller must invoke
// the returned release exactly once.
func (q *ClassQueue) Acquire(ctx context.Context, pressured bool) (release func(), err error) {
	if pressured {
		q.ShedPressure.Inc()
		return nil, ErrShed
	}
	// Fast path: a free slot admits without queueing.
	select {
	case q.slots <- struct{}{}:
		return q.release, nil
	default:
	}
	if q.Waiting.Add(1) > q.maxWait {
		q.Waiting.Add(-1)
		q.ShedFull.Inc()
		return nil, ErrShed
	}
	q.DepthHW.SetMax(q.Waiting.Value())
	defer q.Waiting.Add(-1)
	select {
	case q.slots <- struct{}{}:
		return q.release, nil
	case <-ctx.Done():
		q.ShedDeadline.Inc()
		return nil, ctx.Err()
	}
}

func (q *ClassQueue) free() { <-q.slots }

// Depth returns the current wait-queue depth.
func (q *ClassQueue) Depth() int64 { return q.Waiting.Value() }

// MaxWait returns the configured wait bound.
func (q *ClassQueue) MaxWait() int64 { return q.maxWait }
