package svc

import (
	"container/list"
	"context"
	"errors"

	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
)

// Cache is the bounded derivation cache: an LRU over response bodies
// keyed by spec hash, with singleflight semantics — concurrent requests
// for the same key share one computation instead of stampeding the CPU.
// Entries are immutable once ready, so a cached body can be served to
// any number of readers without copying.
type Cache struct {
	mu    chan struct{} // 1-token mutex; acquisition can honor a context
	cap   int
	ll    *list.List               // front = most recent
	items map[string]*list.Element // key → element holding *cacheEntry

	// Hits/Misses/Bypasses/Evictions are the cache's telemetry,
	// readable concurrently.
	Hits, Misses, Bypasses, Evictions metrics.SyncCounter
}

// cacheEntry is one key's slot. ready closes when the leader finishes;
// until then body/err must not be read.
type cacheEntry struct {
	key   string
	ready chan struct{}
	body  []byte
	err   error
}

// errPanicked is what the followers of a panicking compute get.
var errPanicked = errors.New("svc: derivation panicked")

// NewCache returns a cache bounded to capacity entries (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache{
		mu:    make(chan struct{}, 1),
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
	return c
}

// lock acquires the cache mutex unless ctx expires first. A free lock
// is taken without evaluating ctx.Done(): a select evaluates every
// channel operand before it chooses, and a request context's Done arms
// its deadline (see request).
func (c *Cache) lock(ctx context.Context) error {
	select {
	case c.mu <- struct{}{}:
		return nil
	default:
	}
	select {
	case c.mu <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Cache) unlock() { <-c.mu }

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu <- struct{}{}
	defer c.unlock()
	return c.ll.Len()
}

// Get returns the body for key, computing it at most once across
// concurrent callers. hit reports whether the body came from the cache
// (a singleflight follower counts as a hit: it did not pay for the
// computation). A leader whose compute fails removes the entry so the
// error is not cached. ctx bounds the wait, both for the lock and for
// a leader in flight — the computation itself is not cancelled, the
// caller just stops waiting for it.
func (c *Cache) Get(ctx context.Context, key string, compute func() ([]byte, error)) (body []byte, hit bool, err error) {
	if err := c.lock(ctx); err != nil {
		return nil, false, err
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*cacheEntry)
		c.ll.MoveToFront(el)
		c.unlock()
		select {
		case <-e.ready: // resident: no wait, so ctx.Done() stays untouched
		default:
			select {
			case <-e.ready:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		if e.err != nil {
			// The leader failed; report its error without retrying here —
			// the entry is already gone, the next request leads afresh.
			return nil, false, e.err
		}
		c.Hits.Inc()
		return e.body, true, nil
	}

	// Miss: this caller leads. A compute that fails — or panics, which
	// reaches the caller after — removes the entry, so the next request
	// leads afresh instead of waiting on an entry that never resolves.
	e := &cacheEntry{key: key, ready: make(chan struct{}), err: errPanicked}
	el := c.ll.PushFront(e)
	c.items[key] = el
	c.evictLocked()
	c.unlock()
	defer func() {
		close(e.ready)
		if e.err != nil {
			c.remove(key, el)
		}
	}()

	e.body, e.err = compute()
	c.Misses.Inc()
	if e.err != nil {
		return nil, false, e.err
	}
	return e.body, false, nil
}

// Fresh computes the body for key outside the cache (the no-cache
// path), then replaces whatever the cache held so subsequent reads see
// the freshest result.
func (c *Cache) Fresh(ctx context.Context, key string, compute func() ([]byte, error)) ([]byte, error) {
	body, err := compute()
	c.Bypasses.Inc()
	if err != nil {
		return nil, err
	}
	if lockErr := c.lock(ctx); lockErr != nil {
		return body, nil // computed fine; just couldn't refresh the cache
	}
	defer c.unlock()
	e := &cacheEntry{key: key, ready: make(chan struct{}), body: body}
	close(e.ready)
	if el, ok := c.items[key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(e)
		c.evictLocked()
	}
	return body, nil
}

// remove drops key's entry if it still holds el (a later Fresh may
// have replaced it).
func (c *Cache) remove(key string, el *list.Element) {
	c.mu <- struct{}{}
	defer c.unlock()
	if cur, ok := c.items[key]; ok && cur == el {
		c.ll.Remove(el)
		delete(c.items, key)
	}
}

// evictLocked trims the LRU tail down to capacity. Waiters on an
// evicted in-flight entry keep their pointer and resolve normally; the
// entry is just no longer findable.
func (c *Cache) evictLocked() {
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		e := el.Value.(*cacheEntry)
		c.ll.Remove(el)
		delete(c.items, e.key)
		c.Evictions.Inc()
	}
}
