package svc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheSingleflight(t *testing.T) {
	c := NewCache(8)
	var computes atomic.Int64
	gate := make(chan struct{})
	compute := func() ([]byte, error) {
		computes.Add(1)
		<-gate
		return []byte("body"), nil
	}
	const n = 16
	var wg sync.WaitGroup
	results := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _, err := c.Get(context.Background(), "k", compute)
			if err != nil {
				t.Errorf("Get: %v", err)
			}
			results[i] = body
		}(i)
	}
	// Let the stampede pile up behind the leader, then release it.
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("computes = %d, want 1 (singleflight)", got)
	}
	for i, b := range results {
		if !bytes.Equal(b, []byte("body")) {
			t.Fatalf("result %d = %q", i, b)
		}
	}
	if c.Hits.Value() != n-1 || c.Misses.Value() != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits.Value(), c.Misses.Value())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	mk := func(i int) func() ([]byte, error) {
		return func() ([]byte, error) { return []byte(fmt.Sprintf("v%d", i)), nil }
	}
	for i := 0; i < 3; i++ {
		if _, _, err := c.Get(context.Background(), fmt.Sprintf("k%d", i), mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if got := c.Evictions.Value(); got != 1 {
		t.Fatalf("Evictions = %d", got)
	}
	// k0 was least recent — a re-get must recompute (miss).
	miss := c.Misses.Value()
	if _, hit, _ := c.Get(context.Background(), "k0", mk(0)); hit {
		t.Fatal("evicted key served from cache")
	}
	if c.Misses.Value() != miss+1 {
		t.Fatal("re-get of evicted key did not count as a miss")
	}
	// k2 stayed — hit.
	if _, hit, _ := c.Get(context.Background(), "k2", mk(2)); !hit {
		t.Fatal("resident key recomputed")
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache(4)
	boom := errors.New("boom")
	calls := 0
	if _, _, err := c.Get(context.Background(), "k", func() ([]byte, error) {
		calls++
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	body, hit, err := c.Get(context.Background(), "k", func() ([]byte, error) {
		calls++
		return []byte("ok"), nil
	})
	if err != nil || hit || string(body) != "ok" {
		t.Fatalf("retry after error: body=%q hit=%v err=%v", body, hit, err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (error evicted, success recomputed)", calls)
	}
}

// TestCachePanicDoesNotPoisonTheKey: a compute that panics still
// resolves its entry — the panic reaches the leader's caller, and the
// next Get computes afresh instead of waiting on an entry that never
// becomes ready.
func TestCachePanicDoesNotPoisonTheKey(t *testing.T) {
	c := NewCache(4)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("compute's panic did not reach the leader's caller")
			}
		}()
		_, _, _ = c.Get(context.Background(), "k", func() ([]byte, error) { panic("boom") })
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	body, hit, err := c.Get(ctx, "k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || string(body) != "ok" {
		t.Fatalf("after a panicking compute: body=%q hit=%v err=%v", body, hit, err)
	}
}

func TestCacheFollowerDeadline(t *testing.T) {
	c := NewCache(4)
	gate := make(chan struct{})
	go func() {
		_, _, _ = c.Get(context.Background(), "k", func() ([]byte, error) {
			<-gate
			return []byte("slow"), nil
		})
	}()
	time.Sleep(10 * time.Millisecond) // leader in flight
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := c.Get(ctx, "k", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower err = %v, want DeadlineExceeded", err)
	}
	close(gate)
	// The computation itself was not cancelled: the body lands.
	body, hit, err := c.Get(context.Background(), "k", nil)
	if err != nil || !hit || string(body) != "slow" {
		t.Fatalf("post-resolve: body=%q hit=%v err=%v", body, hit, err)
	}
}

func TestCacheFreshReplaces(t *testing.T) {
	c := NewCache(4)
	if _, _, err := c.Get(context.Background(), "k", func() ([]byte, error) {
		return []byte("old"), nil
	}); err != nil {
		t.Fatal(err)
	}
	body, err := c.Fresh(context.Background(), "k", func() ([]byte, error) {
		return []byte("new"), nil
	})
	if err != nil || string(body) != "new" {
		t.Fatalf("Fresh: body=%q err=%v", body, err)
	}
	if got := c.Bypasses.Value(); got != 1 {
		t.Fatalf("Bypasses = %d", got)
	}
	// The cache now serves the fresh body.
	body, hit, err := c.Get(context.Background(), "k", nil)
	if err != nil || !hit || string(body) != "new" {
		t.Fatalf("after Fresh: body=%q hit=%v err=%v", body, hit, err)
	}
	if got := c.Len(); got != 1 {
		t.Fatalf("Len = %d", got)
	}
}
