package buffering

import (
	"strings"
	"testing"
)

func TestPoolResizeGrowShrink(t *testing.T) {
	p := NewPool(4)
	if err := p.Resize(8); err != nil {
		t.Fatal(err)
	}
	if p.Capacity() != 8 {
		t.Fatalf("capacity = %d", p.Capacity())
	}
	// All 8 slots allocatable after the grow.
	for i := 0; i < 8; i++ {
		if _, ok := p.Alloc(64); !ok {
			t.Fatalf("alloc %d failed", i)
		}
	}
	if _, ok := p.Alloc(64); ok {
		t.Fatal("alloc beyond capacity succeeded")
	}
}

func TestPoolResizeRejectsBelowLive(t *testing.T) {
	p := NewPool(8)
	slots := make([]int, 0, 3)
	for i := 0; i < 3; i++ {
		s, _ := p.Alloc(64)
		slots = append(slots, s)
	}
	p.Reserve(2)
	if err := p.Resize(4); err == nil || !strings.Contains(err.Error(), "5 slots live") {
		t.Fatalf("err = %v", err)
	}
	if err := p.Resize(5); err != nil {
		t.Fatal(err)
	}
	// Freeing the original slots still works after the shrink.
	for _, s := range slots {
		p.Free(s)
	}
	if p.InUse() != 0 {
		t.Fatalf("inUse = %d", p.InUse())
	}
}

func TestPoolFreeRetiredSlotPanics(t *testing.T) {
	p := NewPool(4)
	s, _ := p.Alloc(64)
	p.Free(s)
	// Shrink retires free slots; a stale Free of a retired slot is a
	// double-free class error and must panic.
	if err := p.Resize(0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("free of retired slot did not panic")
		}
	}()
	p.Free(s)
}

func TestPoolShrinkThenGrowMintsFreshSlots(t *testing.T) {
	p := NewPool(4)
	if err := p.Resize(2); err != nil {
		t.Fatal(err)
	}
	if err := p.Resize(4); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		s, ok := p.Alloc(64)
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		if seen[s] {
			t.Fatalf("slot %d handed out twice", s)
		}
		seen[s] = true
	}
}

func TestPoolLeak(t *testing.T) {
	p := NewPool(4)
	if got := p.Leak(3); got != 3 {
		t.Fatalf("leaked %d", got)
	}
	if p.InUse() != 3 {
		t.Fatalf("inUse=%d", p.InUse())
	}
	// Leaking more than remains takes what is there.
	if got := p.Leak(5); got != 1 {
		t.Fatalf("second leak = %d", got)
	}
	if _, ok := p.Alloc(64); ok {
		t.Fatal("alloc from fully leaked pool succeeded")
	}
}

func TestQueueResize(t *testing.T) {
	q := NewQueue(4)
	for i := 0; i < 3; i++ {
		if !q.Push(Descriptor{Slot: i}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if err := q.Resize(2); err == nil {
		t.Fatal("shrink below occupancy accepted")
	}
	if err := q.Resize(8); err != nil {
		t.Fatal(err)
	}
	// FIFO order survives the reallocation.
	for i := 0; i < 3; i++ {
		d, ok := q.Pop()
		if !ok || d.Slot != i {
			t.Fatalf("pop %d = (%v, %v)", i, d, ok)
		}
	}
	// New depth is honored.
	for i := 0; i < 8; i++ {
		if !q.Push(Descriptor{Slot: i}) {
			t.Fatalf("push %d failed after grow", i)
		}
	}
	if q.Push(Descriptor{}) {
		t.Fatal("push beyond new depth succeeded")
	}
	if err := q.Resize(0); err == nil {
		t.Fatal("non-positive depth accepted")
	}
}
