// Package buffering models the two memory resources the paper's
// customization targets hardest: the per-queue metadata FIFOs ("queue
// stores packet descriptor") and the per-port packet buffer pools
// ("buffer stores packet payload"). Queue depth and buffer count are
// the parameters of the set_queues / set_buffers customization APIs;
// when either is exhausted the frame is dropped, which is exactly the
// failure mode Table I's Case study probes.
package buffering

import (
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// SlotBytes is the payload capacity of one packet buffer, sized to hold
// an MTU frame (paper §IV.B: "The size of the packet buffer is 2048B").
const SlotBytes = 2048

// Descriptor is the 32-bit metadata word a queue holds for each packet:
// a buffer reference plus bookkeeping. We carry the frame pointer for
// the simulation and the slot index for pool accounting.
type Descriptor struct {
	Frame      *ethernet.Frame
	Slot       int
	EnqueuedAt sim.Time
}

// Pool is a port's packet buffer pool with a fixed number of SlotBytes
// slots.
type Pool struct {
	capacity int
	free     []int  // LIFO free list of slot indices
	onFree   []bool // per minted id: on the free list (Free's double-release check)
	// inUse is the occupancy cell; highWater, the worst-case
	// simultaneous occupancy a dimensioning pass would need, is the
	// high-water cell.
	inUse     int64
	highWater int64
	// reserved holds slots withheld from the free list by a fault
	// injector (transient buffer exhaustion). Reserved slots are
	// neither free nor in use, so leak accounting ignores them.
	reserved []int
	// created is the total number of slot ids ever minted; Resize mints
	// fresh ids on growth instead of reusing retired ones, so a stale
	// Free of a retired slot is always detectable.
	created int
	// retired marks slot ids removed by a shrink; nil until first use.
	retired map[int]bool

	// metFail counts failed allocations; the zero value is a no-op.
	metFail metrics.Counter
}

// NewPool returns a pool of capacity slots.
func NewPool(capacity int) *Pool {
	if capacity < 0 {
		panic("buffering: negative pool capacity")
	}
	p := &Pool{capacity: capacity, free: make([]int, 0, capacity), onFree: make([]bool, capacity), created: capacity}
	for slot := capacity - 1; slot >= 0; slot-- {
		p.push(slot) // pop order 0,1,2,...
	}
	return p
}

// pop takes the top slot off the free list.
func (p *Pool) pop() int {
	slot := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.onFree[slot] = false
	return slot
}

// push puts slot on the free list.
func (p *Pool) push(slot int) {
	p.free = append(p.free, slot)
	p.onFree[slot] = true
}

// Instrument registers the pool's cells with the given label values:
// occupancy reads InUse, highWater reads HighWater, allocFail counts
// failed allocations. Call once at construction time.
func (p *Pool) Instrument(occupancy, highWater metrics.GaugeFamily, allocFail metrics.CounterFamily, vals ...metrics.Value) {
	occupancy.Bind(&p.inUse, vals...)
	highWater.Bind(&p.highWater, vals...)
	p.metFail = allocFail.With(vals...)
}

// Capacity returns the configured number of slots.
func (p *Pool) Capacity() int { return p.capacity }

// InUse returns the number of currently allocated slots.
func (p *Pool) InUse() int { return int(p.inUse) }

// HighWater returns the worst-case simultaneous occupancy seen.
func (p *Pool) HighWater() int { return int(p.highWater) }

// Alloc reserves a slot for a frame of wireBytes. It fails if the frame
// exceeds SlotBytes (a hardware buffer cannot hold it) or the pool is
// exhausted.
func (p *Pool) Alloc(wireBytes int) (slot int, ok bool) {
	if wireBytes > SlotBytes || len(p.free) == 0 {
		p.metFail.Inc()
		return -1, false
	}
	slot = p.pop()
	p.inUse++
	p.highWater = max(p.highWater, p.inUse)
	return slot, true
}

// Free releases a slot back to the pool.
func (p *Pool) Free(slot int) {
	if slot < 0 || slot >= p.created {
		panic(fmt.Sprintf("buffering: Free of invalid slot %d", slot))
	}
	if p.retired[slot] {
		panic(fmt.Sprintf("buffering: Free of retired slot %d", slot))
	}
	if p.onFree[slot] {
		panic(fmt.Sprintf("buffering: double Free of slot %d", slot))
	}
	p.push(slot)
	p.inUse--
}

// Reserve withholds up to n slots from the free list without marking
// them in use — the fault-injection model for transient buffer
// exhaustion (e.g. a babbling internal DMA engine hogging buffers).
// Returns how many slots were actually withheld; allocations competing
// with the reservation fail exactly as on a genuinely full pool.
func (p *Pool) Reserve(n int) int {
	if n < 0 {
		panic("buffering: negative Reserve")
	}
	taken := 0
	for taken < n && len(p.free) > 0 {
		p.reserved = append(p.reserved, p.pop())
		taken++
	}
	return taken
}

// ReleaseReserved returns every reserved slot to the free list and
// reports how many were released.
func (p *Pool) ReleaseReserved() int {
	n := len(p.reserved)
	for _, slot := range p.reserved {
		p.push(slot)
	}
	p.reserved = nil
	return n
}

// Reserved returns how many slots are currently withheld.
func (p *Pool) Reserved() int { return len(p.reserved) }

// Resize changes the pool capacity in place — the live-reconfiguration
// primitive behind set_buffers. Growth mints fresh slot ids; shrink
// retires free slots only, so it fails if the new capacity cannot cover
// the slots currently allocated or reserved. In-flight frames keep
// their (possibly high-numbered) slot ids and Free them normally after
// a shrink.
func (p *Pool) Resize(capacity int) error {
	if capacity < 0 {
		return fmt.Errorf("buffering: negative pool capacity %d", capacity)
	}
	if need := int(p.inUse) + len(p.reserved); capacity < need {
		return fmt.Errorf("buffering: cannot shrink pool to %d: %d slots live (%d in use, %d reserved)",
			capacity, need, p.inUse, len(p.reserved))
	}
	if capacity < p.capacity {
		// The free list holds capacity-inUse-reserved slots, which the
		// check above guarantees is at least the number to retire.
		for i := p.capacity - capacity; i > 0; i-- {
			if p.retired == nil {
				p.retired = make(map[int]bool)
			}
			p.retired[p.pop()] = true
		}
	} else {
		for i := p.capacity; i < capacity; i++ {
			p.onFree = append(p.onFree, false)
			p.push(p.created)
			p.created++
		}
	}
	p.capacity = capacity
	return nil
}

// Leak deliberately loses up to n free slots: they are removed from the
// free list and counted in use, but no owner will ever Free them — the
// fault-injection model for a buffer leak the invariant watchdog must
// catch. Returns how many slots were actually leaked.
func (p *Pool) Leak(n int) int {
	if n < 0 {
		panic("buffering: negative Leak")
	}
	taken := 0
	for taken < n && len(p.free) > 0 {
		p.pop()
		p.inUse++
		taken++
	}
	p.highWater = max(p.highWater, p.inUse)
	return taken
}

// Queue is a fixed-depth FIFO of descriptors: the hardware per-queue
// metadata memory.
type Queue struct {
	depth int
	ring  []Descriptor
	head  int
	count int
	// highWater tracks the worst-case depth reached: the queue's
	// high-water cell.
	highWater int64
}

// NewQueue returns a queue holding at most depth descriptors.
func NewQueue(depth int) *Queue { return &NewQueues(1, depth)[0] }

// NewQueues returns n queues holding at most depth descriptors each,
// their rings carved from one array: a switch's whole queue set in two
// allocations. Resize gives the queue it grows or shrinks a ring of its
// own.
func NewQueues(n, depth int) []Queue {
	if depth <= 0 {
		panic("buffering: non-positive queue depth")
	}
	qs := make([]Queue, n)
	ring := make([]Descriptor, n*depth)
	for i := range qs {
		qs[i] = Queue{depth: depth, ring: ring[i*depth : (i+1)*depth : (i+1)*depth]}
	}
	return qs
}

// Instrument registers the queue's depth high-water cell with the
// given label values.
func (q *Queue) Instrument(highWater metrics.GaugeFamily, vals ...metrics.Value) {
	highWater.Bind(&q.highWater, vals...)
}

// Depth returns the configured capacity.
func (q *Queue) Depth() int { return q.depth }

// Len returns the number of queued descriptors.
func (q *Queue) Len() int { return q.count }

// HighWater returns the worst-case occupancy seen.
func (q *Queue) HighWater() int { return int(q.highWater) }

// Resize changes the queue depth in place, preserving queued
// descriptors in FIFO order — the live-reconfiguration primitive behind
// set_queues. It fails if the current occupancy exceeds the new depth.
func (q *Queue) Resize(depth int) error {
	if depth <= 0 {
		return fmt.Errorf("buffering: non-positive queue depth %d", depth)
	}
	if q.count > depth {
		return fmt.Errorf("buffering: cannot shrink queue to %d: %d descriptors queued", depth, q.count)
	}
	ring := make([]Descriptor, depth)
	for i := 0; i < q.count; i++ {
		ring[i] = q.ring[(q.head+i)%q.depth]
	}
	q.ring = ring
	q.head = 0
	q.depth = depth
	return nil
}

// Push appends d. It reports false (and drops) when the queue is full.
func (q *Queue) Push(d Descriptor) bool {
	if q.count == q.depth {
		return false
	}
	q.ring[(q.head+q.count)%q.depth] = d
	q.count++
	q.highWater = max(q.highWater, int64(q.count))
	return true
}

// Peek returns the head descriptor without removing it.
func (q *Queue) Peek() (Descriptor, bool) {
	if q.count == 0 {
		return Descriptor{}, false
	}
	return q.ring[q.head], true
}

// Pop removes and returns the head descriptor.
func (q *Queue) Pop() (Descriptor, bool) {
	if q.count == 0 {
		return Descriptor{}, false
	}
	d := q.ring[q.head]
	q.ring[q.head] = Descriptor{}
	q.head = (q.head + 1) % q.depth
	q.count--
	return d, true
}
