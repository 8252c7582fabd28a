package sim

import (
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
)

// Handler is a callback executed when an event fires. It receives the
// engine so it can schedule follow-up events.
type Handler func(e *Engine)

// event is a scheduled callback. Popped and canceled events are
// recycled through the engine's free list, so steady-state scheduling
// allocates nothing. gen increments on every recycle; an EventRef
// snapshots it so a stale ref can never resurrect (or cancel) a reused
// event.
type event struct {
	fn    Handler
	index int // heap index, -1 once popped or canceled
	label string
	gen   uint32
}

// entry is one slot of the pending-event heap. The ordering key is held
// inline, so a comparison reads the heap's own backing array and never
// chases the event pointer. Ties between events scheduled for the same
// instant break on (prio, seq): prio is a stable identity assigned by
// the caller (AtPrio) — zero for ordinary events, a unique
// per-interface index for frame deliveries — and seq is the scheduling
// order. Ordinary events therefore stay FIFO in scheduling order, while
// deliveries order by interface identity, which is what lets a
// partitioned run reproduce the serial execution order exactly: an
// interface index is the same number no matter which engine schedules
// the delivery, whereas a creation seq is not. seq is unique, so
// (at, prio, seq) is a total order and the pop sequence does not depend
// on the heap's shape or arity.
type entry struct {
	at   Time
	prio uint64
	seq  uint64
	ev   *event
}

func (a *entry) before(b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// arity is the heap's fan-out: four children share a cache line pair
// and halve the depth of a binary heap.
const arity = 4

// siftUp places x at hole i or above, moving later parents down.
func (e *Engine) siftUp(i int, x entry) {
	q := e.queue
	for i > 0 {
		p := (i - 1) / arity
		if !x.before(&q[p]) {
			break
		}
		q[i] = q[p]
		q[i].ev.index = i
		i = p
	}
	q[i] = x
	x.ev.index = i
}

// siftDown places x at hole i or below, moving earlier children up.
func (e *Engine) siftDown(i int, x entry) {
	q := e.queue
	for {
		first := arity*i + 1
		if first >= len(q) {
			break
		}
		c, end := first, min(first+arity, len(q))
		for k := first + 1; k < end; k++ {
			if q[k].before(&q[c]) {
				c = k
			}
		}
		if !q[c].before(&x) {
			break
		}
		q[i] = q[c]
		q[i].ev.index = i
		i = c
	}
	q[i] = x
	x.ev.index = i
}

// remove takes the entry at heap index i out of the queue and refills
// the hole with the last entry.
func (e *Engine) remove(i int) {
	e.queue[i].ev.index = -1
	n := len(e.queue) - 1
	x := e.queue[n]
	e.queue[n] = entry{}
	e.queue = e.queue[:n]
	if i == n {
		return // the removed entry was the last one
	}
	if i > 0 && x.before(&e.queue[(i-1)/arity]) {
		e.siftUp(i, x)
	} else {
		e.siftDown(i, x)
	}
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
func (r EventRef) Valid() bool { return r.ev != nil && r.ev.gen == r.gen && r.ev.index >= 0 }

// Engine is a deterministic discrete-event scheduler. The zero value is
// not ready for use; construct with NewEngine.
type Engine struct {
	now     Time
	queue   []entry // arity-ary min-heap on (at, prio, seq)
	nextSeq uint64
	stopped bool
	// free recycles fired/canceled event structs so steady-state
	// scheduling is allocation-free. Bounded by the worst concurrent
	// pending-event count, not by total events executed.
	free []*event
	// Executed counts events run since construction; useful for
	// progress accounting in benchmarks.
	executed uint64

	// Telemetry handles; zero values are no-ops.
	metExecuted metrics.Counter
	metHeapHW   metrics.Gauge
	// Progress hook: fire progressFn every progressEvery events.
	progressEvery uint64
	progressLeft  uint64
	progressFn    func(executed uint64, now Time)
}

// NewEngine returns an engine positioned at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Instrument binds the engine's telemetry: executed counts every
// dispatched event, heapHW tracks the worst pending-event heap depth.
// Call once, before Run; passing a nil registry's handles is safe.
func (e *Engine) Instrument(executed metrics.Counter, heapHW metrics.Gauge) {
	e.metExecuted = executed
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
func (e *Engine) Pending() int { return len(e.queue) }

// NextAt returns the earliest pending instant (the largest Time when idle).
func (e *Engine) NextAt() Time {
	if len(e.queue) == 0 {
		return 1<<63 - 1
	}
	return e.queue[0].at
}

// alloc takes an event struct off the free list, or heap-allocates one
// when the list is dry (cold start or a new pending-depth high water).
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// recycle returns a popped/canceled event to the free list. The
// closure and label are cleared eagerly so a parked struct never
// retains the callback's captured state, and the generation bump
// invalidates every outstanding EventRef to this slot.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.label = ""
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
func (e *Engine) TakeSeq() uint64 {
	e.nextSeq++
	return e.nextSeq - 1
}

// AtSeq schedules fn at (at, prio 0, seq) for a seq TakeSeq returned:
// the slot At would have given it then. A taken number may be scheduled
// any time later or never, but never twice at once.
func (e *Engine) AtSeq(at Time, seq uint64, label string, fn Handler) EventRef {
	return e.push(at, 0, seq, label, fn)
}

// push is the one scheduling routine behind At, AtPrio and AtSeq.
func (e *Engine) push(at Time, prio, seq uint64, label string, fn Handler) EventRef {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v which is before now %v", label, at, e.now))
	}
	ev := e.alloc()
	ev.fn, ev.label = fn, label
	e.queue = append(e.queue, entry{})
	e.siftUp(len(e.queue)-1, entry{at: at, prio: prio, seq: seq, ev: ev})
	e.metHeapHW.SetMax(int64(len(e.queue)))
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
	e.remove(r.ev.index)
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

// step pops and runs the earliest event. It reports false when the
// queue is empty.
func (e *Engine) step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue[0].ev
	e.now = e.queue[0].at
	e.remove(0)
	e.executed++
	e.metExecuted.Inc()
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
	for !e.stopped && e.step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the
// clock to the deadline. Events scheduled beyond the deadline stay
// queued. If Stop ends the run early the clock is NOT advanced to the
// deadline — it stays at the last executed event so callers can see
// where the run actually stopped.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		if len(e.queue) == 0 || e.queue[0].at > deadline {
			break
		}
		e.step()
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
	for !e.stopped {
		if len(e.queue) == 0 || e.queue[0].at >= limit {
			break
		}
		e.step()
	}
	if !e.stopped && e.now < limit {
		e.now = limit
	}
}

// RunFor advances the simulation by d from the current instant.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }
