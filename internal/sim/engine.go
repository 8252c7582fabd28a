package sim

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
)

// Handler is a callback executed when an event fires. It receives the
// engine so it can schedule follow-up events.
type Handler func(e *Engine)

// event is a scheduled callback together with its ordering key. Ties
// between events scheduled for the same instant break on (prio, seq):
// prio is a stable identity assigned by the caller (AtPrio) — zero for
// ordinary events, a unique per-interface index for frame deliveries —
// and seq is the scheduling order. Ordinary events therefore stay FIFO
// in scheduling order, while deliveries order by interface identity,
// which is what lets a partitioned run reproduce the serial execution
// order exactly: an interface index is the same number no matter which
// engine schedules the delivery, whereas a creation seq is not. seq is
// unique, so (at, prio, seq) is a total order and the pop sequence does
// not depend on how the queue files its events.
//
// Popped and canceled events are recycled through the engine's free
// list, and a new pending-depth high water takes its events from a
// block of eventBlock, so steady-state scheduling allocates nothing and
// reaching a depth of d costs d/eventBlock allocations. gen increments
// on every recycle; an EventRef snapshots it so a stale ref can never
// resurrect (or cancel) a reused event.
type event struct {
	at   Time
	prio uint64
	seq  uint64
	fn   Handler
	// next and prev thread the event through its bucket's list.
	next, prev *event
	gen        uint32
	// bucket is where the event waits: 1..63 a radix bucket, 0 the
	// current instant, -1 nowhere (fired or canceled).
	bucket int32
}

// before orders two events at the same instant.
func (a *event) before(b *event) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// compareAtInstant is before as a slices.SortFunc comparison.
func compareAtInstant(a, b *event) int {
	if a.before(b) {
		return -1
	}
	return 1 // keys are unique, so a and b are never equal
}

// EventRef identifies a scheduled event so it can be canceled. The zero
// value refers to no event. A ref is pinned to the scheduling it came
// from: once the event fires or is canceled its slot may be recycled
// for a later scheduling, and the ref (generation-checked) reports
// invalid rather than aliasing the new occupant.
type EventRef struct {
	ev  *event
	gen uint32
}

// Valid reports whether the reference points at a still-pending event.
func (r EventRef) Valid() bool { return r.ev != nil && r.ev.gen == r.gen && r.ev.bucket >= 0 }

// maxTime is the largest instant; NextAt reports it when the engine is idle.
const maxTime = Time(1<<63 - 1)

// Engine is a deterministic discrete-event scheduler. The zero value is
// not ready for use; construct with NewEngine.
//
// The pending events form a monotone radix queue. No event is ever
// scheduled before now, and base — the last instant popped — never
// passes now, so every pending instant is >= base and an event can be
// filed by the highest bit where its instant differs from base: bucket
// k holds the events with bits.Len64(at^base) == k. The events at base
// itself wait in cur, sorted by (prio, seq). When cur runs out, the
// lowest non-empty bucket holds the earliest instant; it becomes base
// and that bucket's events move down to lower buckets or into cur.
type Engine struct {
	now  Time
	base Time
	// cur[head:] are the pending events at base in (prio, seq) order;
	// cur[:head] is the consumed prefix, reused by later inserts.
	cur  []*event
	head int
	// buckets[k] lists the events with bits.Len64(at^base) == k, k in
	// 1..63 (at == base is cur); bit k of mask is set when the list is
	// non-empty.
	buckets [64]*event
	mask    uint64
	pending int
	nextSeq uint64
	stopped bool
	// free recycles fired/canceled event structs so steady-state
	// scheduling is allocation-free. Bounded by the worst concurrent
	// pending-event count, not by total events executed. block is the
	// unused tail of the newest event block, where alloc goes when the
	// free list is dry.
	free  []*event
	block []event
	// Executed counts events run since construction; useful for
	// progress accounting in benchmarks, and the events counter's cell.
	executed uint64

	// metHeapHW tracks the worst pending-event depth; the zero value
	// is a no-op.
	metHeapHW metrics.Gauge
	// Progress hook: fire progressFn every progressEvery events.
	progressEvery uint64
	progressLeft  uint64
	progressFn    func(executed uint64, now Time)
}

// NewEngine returns an engine positioned at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Instrument binds the engine's telemetry: executed's cell reads the
// dispatched-event count Executed reports, heapHW tracks the worst
// pending-event depth. Call once, before Run; passing a nil registry's
// families and handles is safe.
func (e *Engine) Instrument(executed metrics.CounterFamily, heapHW metrics.Gauge) {
	executed.Bind(&e.executed)
	e.metHeapHW = heapHW
}

// SetProgress arranges for fn to be called every `every` dispatched
// events — the hook wall-clock progress reporters build on. A zero
// every or nil fn disables the hook.
func (e *Engine) SetProgress(every uint64, fn func(executed uint64, now Time)) {
	if every == 0 || fn == nil {
		e.progressEvery, e.progressFn = 0, nil
		return
	}
	e.progressEvery = every
	e.progressLeft = every
	e.progressFn = fn
}

// Now returns the current simulated time. During an event callback this
// is the event's scheduled instant.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have been dispatched.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many events are waiting in the queue.
func (e *Engine) Pending() int { return e.pending }

// NextAt returns the earliest pending instant (the largest Time when idle).
func (e *Engine) NextAt() Time {
	if e.head < len(e.cur) {
		return e.base
	}
	if e.mask == 0 {
		return maxTime
	}
	return e.lowest().at
}

// lowest returns the earliest event of the lowest non-empty bucket —
// the earliest pending event when cur is empty. It moves nothing: base
// may only advance to an instant that is about to run, since a bounded
// run can leave the clock short of this one and schedule before it.
func (e *Engine) lowest() *event {
	m := e.buckets[bits.TrailingZeros64(e.mask)]
	for ev := m.next; ev != nil; ev = ev.next {
		if ev.at < m.at {
			m = ev
		}
	}
	return m
}

// file links ev into the list of bucket k.
func (e *Engine) file(ev *event, k int) {
	ev.bucket = int32(k)
	ev.prev, ev.next = nil, e.buckets[k]
	if ev.next != nil {
		ev.next.prev = ev
	}
	e.buckets[k] = ev
	e.mask |= 1 << k
}

// unlink takes ev out of its bucket's list.
func (e *Engine) unlink(ev *event) {
	k := ev.bucket
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		e.buckets[k] = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	}
	if e.buckets[k] == nil {
		e.mask &^= 1 << k
	}
}

// search returns the index in cur[head:] of the first event that does
// not run before ev.
func (e *Engine) search(ev *event) int {
	lo, hi := e.head, len(e.cur)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if e.cur[m].before(ev) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// insertCur places ev, an event at base, in cur: an AtSeq event or a
// prio-0 one can run before events already waiting. A source that
// re-arms at the instant it fires appends on every pop, so a full cur
// first moves its pending events down over the consumed prefix; cur's
// storage stays bounded by the events pending at one instant.
func (e *Engine) insertCur(ev *event) {
	ev.bucket = 0
	q, i := e.cur, e.search(ev)
	if len(q) == cap(q) && e.head > 0 {
		n := copy(q, q[e.head:])
		q, i, e.head = q[:n], i-e.head, 0
	}
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = ev
	e.cur = q
}

// removeCur takes ev, a pending event at base, out of cur.
func (e *Engine) removeCur(ev *event) {
	i := e.search(ev)
	if e.cur = append(e.cur[:i], e.cur[i+1:]...); e.head == len(e.cur) {
		e.cur, e.head = e.cur[:0], 0
	}
}

// front returns the next event to run if its instant is <= limit, or
// nil. When cur is used up and the earliest pending instant is within
// limit, base moves there: the lowest bucket's events are refiled
// under the new base — each lands in a lower bucket or, at base, in cur.
func (e *Engine) front(limit Time) *event {
	if e.head < len(e.cur) {
		if e.base > limit {
			return nil
		}
		return e.cur[e.head]
	}
	if e.mask == 0 {
		return nil
	}
	m := e.lowest()
	if m.at > limit {
		return nil
	}
	k := m.bucket
	list := e.buckets[k]
	e.buckets[k] = nil
	e.mask &^= 1 << k
	e.base = m.at
	for ev := list; ev != nil; {
		next := ev.next
		if ev.at == e.base {
			ev.bucket = 0
			e.cur = append(e.cur, ev)
		} else {
			e.file(ev, bits.Len64(uint64(ev.at^e.base)))
		}
		ev = next
	}
	if len(e.cur) > 1 {
		slices.SortFunc(e.cur, compareAtInstant)
	}
	return e.cur[0]
}

// eventBlock is how many events one allocation provides: tens, so a
// deep queue (the 210-switch mesh holds ≈ 730) costs a few dozen
// allocations and a shallow one wastes at most a block's 2 KB.
const eventBlock = 32

// alloc takes an event struct off the free list or, when the list is
// dry (cold start or a new pending-depth high water), off the current
// block's unused tail, allocating a new block when that is used up.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	if len(e.block) == 0 {
		e.block = make([]event, eventBlock)
	}
	ev := &e.block[0]
	e.block = e.block[1:]
	return ev
}

// recycle returns a popped/canceled event to the free list. The
// closure is cleared eagerly so a parked struct never retains the
// callback's captured state, and the generation bump invalidates every
// outstanding EventRef to this slot.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.bucket = -1
	ev.gen++
	e.free = append(e.free, ev)
}

// At schedules fn to run at the absolute instant at. Scheduling in the
// past (before Now) panics: it indicates a causality bug in the caller.
func (e *Engine) At(at Time, label string, fn Handler) EventRef {
	return e.AtPrio(at, 0, label, fn)
}

// AtPrio schedules fn at the absolute instant at with an explicit
// same-instant tie-break priority. Events at one instant execute in
// (prio, scheduling-order) order; plain At/After events carry prio 0
// and so run before any prioritized event at the same instant. Callers
// use prio as a stable identity (netdev stamps frame deliveries with
// the receiving interface's global index) so execution order at an
// instant is a function of the model, not of which engine scheduled
// the event — the property partitioned runs need to match serial runs
// byte for byte.
func (e *Engine) AtPrio(at Time, prio uint64, label string, fn Handler) EventRef {
	return e.push(at, prio, e.TakeSeq(), label, fn)
}

// TakeSeq takes the next scheduling-order number — the one At would
// stamp on an event scheduled now — without scheduling anything, for a
// source that keeps many timers behind one event (the NIC) to pass AtSeq.
func (e *Engine) TakeSeq() uint64 { return e.TakeSeqs(1) }

// TakeSeqs takes the next n numbers in one call and returns the first,
// for a source that books a long series one event at a time (a flap).
func (e *Engine) TakeSeqs(n uint64) uint64 {
	e.nextSeq += n
	return e.nextSeq - n
}

// AtSeq schedules fn at (at, prio 0, seq) for a seq TakeSeq returned:
// the slot At would have given it then. A taken number may be scheduled
// any time later or never, but never twice at once.
func (e *Engine) AtSeq(at Time, seq uint64, label string, fn Handler) EventRef {
	return e.push(at, 0, seq, label, fn)
}

// push is the one scheduling routine behind At, AtPrio and AtSeq. The
// label only names the event in the panic message.
func (e *Engine) push(at Time, prio, seq uint64, label string, fn Handler) EventRef {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v which is before now %v", label, at, e.now))
	}
	ev := e.alloc()
	ev.at, ev.prio, ev.seq, ev.fn = at, prio, seq, fn
	if k := bits.Len64(uint64(at ^ e.base)); k > 0 {
		e.file(ev, k)
	} else {
		e.insertCur(ev)
	}
	e.pending++
	e.metHeapHW.SetMax(int64(e.pending))
	return EventRef{ev: ev, gen: ev.gen}
}

// After schedules fn to run delay after the current time.
func (e *Engine) After(delay Time, label string, fn Handler) EventRef {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %q", delay, label))
	}
	return e.At(e.now+delay, label, fn)
}

// Cancel removes a pending event. Canceling an already-fired or
// already-canceled event is a no-op and returns false. The canceled
// event's closure is released immediately (and its struct recycled), so
// a canceled timer never pins its captured state.
func (e *Engine) Cancel(r EventRef) bool {
	if !r.Valid() {
		return false
	}
	if r.ev.bucket == 0 {
		e.removeCur(r.ev)
	} else {
		e.unlink(r.ev)
	}
	e.pending--
	e.recycle(r.ev)
	return true
}

// Stop makes the current Run/RunUntil/RunBefore/RunFor call return
// after the in-flight event completes. Pending events remain queued and
// the clock stays at the last executed event's instant — a stopped
// bounded run does NOT jump to its deadline, so Now() always reflects
// how far the simulation actually got. The flag is consumed by the next
// run call (each entry point resets it), so Stop outside a run is a
// no-op.
func (e *Engine) Stop() { e.stopped = true }

// step pops and runs the earliest event if its instant is <= limit. It
// reports false when there is none.
func (e *Engine) step(limit Time) bool {
	ev := e.front(limit)
	if ev == nil {
		return false
	}
	if e.head++; e.head == len(e.cur) {
		e.cur, e.head = e.cur[:0], 0
	}
	e.pending--
	e.now = ev.at
	e.executed++
	if e.progressFn != nil {
		e.progressLeft--
		if e.progressLeft == 0 {
			e.progressLeft = e.progressEvery
			e.progressFn(e.executed, e.now)
		}
	}
	// Recycle before dispatch: the handler's own follow-up scheduling
	// (the self-rescheduling tick every periodic source uses) reuses
	// this very struct, making the steady state allocation-free.
	fn := ev.fn
	e.recycle(ev)
	fn(e)
	return true
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.step(maxTime) {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the
// clock to the deadline. Events scheduled beyond the deadline stay
// queued. If Stop ends the run early the clock is NOT advanced to the
// deadline — it stays at the last executed event so callers can see
// where the run actually stopped.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped && e.step(deadline) {
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

// RunBefore executes events with timestamps strictly before limit, then
// sets the clock to limit. It is the half-open window primitive the
// partitioned scheduler steps with: a conservative window [T, T+W) runs
// via RunBefore(T+W), leaving every event at exactly T+W (including
// cross-partition deliveries arriving at the window edge) for the next
// window. As with RunUntil, an early Stop leaves the clock where the
// run stopped.
func (e *Engine) RunBefore(limit Time) {
	e.stopped = false
	for !e.stopped && e.step(limit-1) {
	}
	if !e.stopped && e.now < limit {
		e.now = limit
	}
}

// RunFor advances the simulation by d from the current instant.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }
