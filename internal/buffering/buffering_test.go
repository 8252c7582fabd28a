package buffering

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

func TestPoolAllocFree(t *testing.T) {
	p := NewPool(2)
	s1, ok := p.Alloc(64)
	if !ok {
		t.Fatal("alloc 1 failed")
	}
	s2, ok := p.Alloc(1522)
	if !ok {
		t.Fatal("alloc 2 failed")
	}
	if s1 == s2 {
		t.Fatal("duplicate slot")
	}
	if _, ok := p.Alloc(64); ok {
		t.Fatal("alloc beyond capacity succeeded")
	}
	p.Free(s1)
	if _, ok := p.Alloc(64); !ok {
		t.Fatal("alloc after free failed")
	}
	if p.InUse() != 2 {
		t.Fatalf("InUse = %d, want 2", p.InUse())
	}
}

func TestPoolOversizeFrame(t *testing.T) {
	p := NewPool(4)
	reg := metrics.New()
	p.Instrument(metrics.GaugeFamily{}, metrics.GaugeFamily{}, reg.Counters("fail", ""))
	if _, ok := p.Alloc(SlotBytes + 1); ok {
		t.Fatal("oversize frame allocated")
	}
	if got := reg.CounterValue("fail"); got != 1 {
		t.Fatalf("allocation failures = %d", got)
	}
}

func TestPoolHighWater(t *testing.T) {
	p := NewPool(8)
	slots := []int{}
	for i := 0; i < 5; i++ {
		s, _ := p.Alloc(64)
		slots = append(slots, s)
	}
	for _, s := range slots {
		p.Free(s)
	}
	if p.HighWater() != 5 {
		t.Fatalf("HighWater = %d, want 5", p.HighWater())
	}
	if p.InUse() != 0 {
		t.Fatalf("InUse = %d, want 0", p.InUse())
	}
}

func TestPoolDoubleFreePanics(t *testing.T) {
	p := NewPool(2)
	s, _ := p.Alloc(64)
	p.Free(s)
	defer func() {
		if recover() == nil {
			t.Error("double Free did not panic")
		}
	}()
	p.Free(s)
}

func TestPoolInvalidFreePanics(t *testing.T) {
	p := NewPool(2)
	defer func() {
		if recover() == nil {
			t.Error("invalid Free did not panic")
		}
	}()
	p.Free(7)
}

func TestPoolZeroCapacity(t *testing.T) {
	p := NewPool(0)
	if _, ok := p.Alloc(64); ok {
		t.Fatal("alloc from empty pool succeeded")
	}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(4)
	for i := 0; i < 4; i++ {
		if !q.Push(Descriptor{Slot: i}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if q.Push(Descriptor{Slot: 99}) {
		t.Fatal("push into full queue succeeded")
	}
	for i := 0; i < 4; i++ {
		d, ok := q.Pop()
		if !ok || d.Slot != i {
			t.Fatalf("pop %d = (%+v,%v)", i, d, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

func TestQueueWrapAround(t *testing.T) {
	q := NewQueue(3)
	for round := 0; round < 10; round++ {
		if !q.Push(Descriptor{Slot: round}) {
			t.Fatal("push failed")
		}
		d, ok := q.Pop()
		if !ok || d.Slot != round {
			t.Fatalf("round %d: pop = (%+v,%v)", round, d, ok)
		}
	}
}

func TestQueuePeek(t *testing.T) {
	q := NewQueue(2)
	if _, ok := q.Peek(); ok {
		t.Fatal("peek on empty succeeded")
	}
	q.Push(Descriptor{Slot: 7})
	d, ok := q.Peek()
	if !ok || d.Slot != 7 {
		t.Fatal("peek wrong")
	}
	if q.Len() != 1 {
		t.Fatal("peek consumed the descriptor")
	}
}

func TestQueueHighWater(t *testing.T) {
	q := NewQueue(8)
	q.Push(Descriptor{})
	q.Push(Descriptor{})
	q.Pop()
	q.Push(Descriptor{})
	if q.HighWater() != 2 {
		t.Fatalf("HighWater = %d, want 2", q.HighWater())
	}
}

func TestQueueInvalidDepthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero depth did not panic")
		}
	}()
	NewQueue(0)
}

func TestNegativePoolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative capacity did not panic")
		}
	}()
	NewPool(-1)
}

// Property: the queue preserves FIFO order and never exceeds its depth
// under arbitrary push/pop interleavings.
func TestQueueFIFOProperty(t *testing.T) {
	prop := func(ops []bool, depthRaw uint8) bool {
		depth := int(depthRaw%16) + 1
		q := NewQueue(depth)
		next := 0   // next value to push
		expect := 0 // next value expected from pop
		for _, push := range ops {
			if push {
				if q.Push(Descriptor{Slot: next}) {
					next++
				}
			} else if d, ok := q.Pop(); ok {
				if d.Slot != expect {
					return false
				}
				expect++
			}
			if q.Len() > depth {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the pool never hands out the same slot twice concurrently.
func TestPoolUniqueSlotsProperty(t *testing.T) {
	prop := func(ops []bool, capRaw uint8) bool {
		capacity := int(capRaw % 16)
		p := NewPool(capacity)
		held := map[int]bool{}
		var order []int
		for _, alloc := range ops {
			if alloc {
				if s, ok := p.Alloc(64); ok {
					if held[s] {
						return false
					}
					held[s] = true
					order = append(order, s)
				}
			} else if len(order) > 0 {
				s := order[len(order)-1]
				order = order[:len(order)-1]
				delete(held, s)
				p.Free(s)
			}
			if p.InUse() != len(held) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: HighWater never decreases and always bounds InUse.
func TestPoolHighWaterProperty(t *testing.T) {
	prop := func(ops []bool) bool {
		p := NewPool(16)
		var held []int
		prevHW := 0
		for _, alloc := range ops {
			if alloc {
				if s, ok := p.Alloc(64); ok {
					held = append(held, s)
				}
			} else if len(held) > 0 {
				p.Free(held[len(held)-1])
				held = held[:len(held)-1]
			}
			if p.HighWater() < prevHW || p.HighWater() < p.InUse() {
				return false
			}
			prevHW = p.HighWater()
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolReserveExhausts(t *testing.T) {
	p := NewPool(4)
	s, _ := p.Alloc(64)
	if got := p.Reserve(10); got != 3 {
		t.Fatalf("Reserve took %d slots, want 3 (all remaining)", got)
	}
	if p.Reserved() != 3 {
		t.Fatalf("Reserved = %d, want 3", p.Reserved())
	}
	if _, ok := p.Alloc(64); ok {
		t.Fatal("alloc succeeded while pool reserved-out")
	}
	if p.InUse() != 1 {
		t.Fatalf("reservation leaked into InUse: %d", p.InUse())
	}
	if p.ReleaseReserved() != 3 {
		t.Fatal("ReleaseReserved count wrong")
	}
	if _, ok := p.Alloc(64); !ok {
		t.Fatal("alloc failed after release")
	}
	p.Free(s)
	if p.InUse() != 1 {
		t.Fatalf("InUse = %d, want 1", p.InUse())
	}
}

func TestPoolReserveNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative Reserve did not panic")
		}
	}()
	NewPool(1).Reserve(-1)
}

// referenceFreeVerdict is Free's validation as it was before the
// per-slot mark — the bounds check, the retired check and the scan of
// the whole free list — kept verbatim except that it returns the panic
// message instead of panicking ("" when the Free is accepted).
func referenceFreeVerdict(p *Pool, slot int) string {
	if slot < 0 || slot >= p.created {
		return fmt.Sprintf("buffering: Free of invalid slot %d", slot)
	}
	if p.retired[slot] {
		return fmt.Sprintf("buffering: Free of retired slot %d", slot)
	}
	for _, f := range p.free {
		if f == slot {
			return fmt.Sprintf("buffering: double Free of slot %d", slot)
		}
	}
	return ""
}

// TestPoolFreeMarkMatchesScan drives random Alloc / Free / Reserve /
// ReleaseReserved / Resize / Leak sequences and, after every step, asks
// both the O(1) mark and the old scan about every slot id ever minted
// (plus one either side): same verdict, same message, and a rejected
// Free changes nothing.
func TestPoolFreeMarkMatchesScan(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := sim.NewRand(seed)
		pick := func(n int) int { return int(rng.Uint64() % uint64(n)) }
		p := NewPool(pick(12))
		var held []int
		for step := 0; step < 300; step++ {
			switch pick(10) {
			case 0, 1, 2, 3:
				if s, ok := p.Alloc(64); ok {
					held = append(held, s)
				}
			case 4, 5, 6:
				if len(held) > 0 {
					k := pick(len(held))
					p.Free(held[k])
					held = append(held[:k], held[k+1:]...)
				}
			case 7:
				if pick(2) == 0 {
					p.Reserve(pick(4))
				} else {
					p.ReleaseReserved()
				}
			case 8:
				_ = p.Resize(pick(24)) // a shrink below the live slots is refused; both outcomes are part of the walk
			case 9:
				p.Leak(pick(2))
			}
			if len(p.onFree) != p.created {
				t.Fatalf("seed %d step %d: %d marks for %d minted slots", seed, step, len(p.onFree), p.created)
			}
			for slot := -1; slot <= p.created; slot++ {
				want := referenceFreeVerdict(p, slot)
				if want == "" {
					if p.onFree[slot] {
						t.Fatalf("seed %d step %d: slot %d marked free but not on the free list", seed, step, slot)
					}
					continue // accepted: only the walk above may really free it
				}
				inUse, free := p.InUse(), len(p.free)
				got := func() (msg any) {
					defer func() { msg = recover() }()
					p.Free(slot)
					return nil
				}()
				if got != want {
					t.Fatalf("seed %d step %d: Free(%d) panicked with %v, reference %q", seed, step, slot, got, want)
				}
				if p.InUse() != inUse || len(p.free) != free {
					t.Fatalf("seed %d step %d: rejected Free(%d) changed the pool", seed, step, slot)
				}
			}
		}
	}
}
