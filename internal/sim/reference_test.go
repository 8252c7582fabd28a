package sim

import (
	"container/heap"
	"slices"
	"testing"
)

// The references: the engine's queue as it was before the inline-key
// heap — container/heap over event pointers, ordered by (at, prio, seq)
// — and as it was before the radix queue — a 4-ary heap with the key
// held inline. eventHeap is kept verbatim (only the element type is
// renamed, since the key fields no longer live in event); so are the
// 4-ary heap's entry and sift routines (only the receiver is renamed,
// and the element type, since the heap index no longer lives in
// event). Because (at, prio, seq) is a total order, any correct queue
// must pop in exactly the same sequence as both.
type refEvent struct {
	at    Time
	prio  uint64
	seq   uint64
	index int // heap index, -1 once popped or canceled
	id    int
}

// eventHeap implements container/heap ordered by (at, prio, seq).
type eventHeap []*refEvent

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// quadHeap is the 4-ary heap; its methods are the engine's before the
// radix queue.
type quadHeap struct {
	queue []entry // arity-ary min-heap on (at, prio, seq)
}

// entry is one slot of the pending-event heap. The ordering key is held
// inline, so a comparison reads the heap's own backing array and never
// chases the event pointer.
type entry struct {
	at   Time
	prio uint64
	seq  uint64
	ev   *refEvent
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
func (e *quadHeap) siftUp(i int, x entry) {
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
func (e *quadHeap) siftDown(i int, x entry) {
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
func (e *quadHeap) remove(i int) {
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

// mix64 is SplitMix64's finalizer: the low bits of a wide delta, drawn
// from the script position so a fuzzer's input alone fixes them.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// runHeapScript drives the engine and both references with one script
// and fails on the first divergence. Each step reads an opcode byte and
// an argument byte; the opcode picks a slot. The first eight slots are
// the narrow table: three schedule (AtPrio at now+0..3 with prio 0..2,
// so equal instants and equal prios are the norm), one takes an order
// number without scheduling (TakeSeq) or schedules a number taken
// earlier (AtSeq at now+0..3 — later than numbers handed out since, at
// any instant, or never), two cancel, two pop. A cancel aims at the
// reference heap's head, middle or tail, or at any ref ever issued —
// pending, fired, canceled, or stale with its event struct since reused
// by a later scheduling. A wide script adds two slots: one schedules
// (AtPrio, or AtSeq with a taken number) at a delta of any bit width
// 0..62, so every radix bucket fills; one reads NextAt and runs to a
// bound — RunUntil or RunBefore short of the next event, so the clock
// passes the last instant popped without firing anything, or through
// or up to the instant of one of the first eight pending events,
// firing a batch.
// Pending() is compared after every step, and the script's leftovers
// are popped at the end.
func runHeapScript(t testing.TB, script []byte, wide bool) {
	e := NewEngine()
	var (
		ref     eventHeap
		quad    quadHeap
		seq     uint64
		fired   []int
		issued  []EventRef  // by id
		mirror  []*refEvent // by id, in ref
		mirror4 []*refEvent // by id, in quad
		taken   []uint64    // order numbers taken and not yet scheduled
	)
	// delta draws an offset from now: sel%4, or when wide of bit width
	// w = sel%63 with the lower bits from the script position. Past the
	// largest Time it wraps into the room left.
	delta := func(step int, wide bool, sel int) Time {
		d := uint64(sel % 4)
		if w := sel % 63; wide && w == 0 {
			d = 0
		} else if wide {
			d = 1<<(w-1) | mix64(uint64(step))&(1<<(w-1)-1)
		}
		if room := uint64(maxTime - e.Now()); d > room {
			d %= room + 1
		}
		return Time(d)
	}
	schedule := func(at Time, prio, seq uint64, r EventRef) {
		id := len(issued)
		issued = append(issued, r)
		ev := &refEvent{at: at, prio: prio, seq: seq, id: id}
		heap.Push(&ref, ev)
		mirror = append(mirror, ev)
		ev4 := &refEvent{at: at, prio: prio, seq: seq, id: id}
		quad.queue = append(quad.queue, entry{})
		quad.siftUp(len(quad.queue)-1, entry{at: at, prio: prio, seq: seq, ev: ev4})
		mirror4 = append(mirror4, ev4)
	}
	record := func() Handler {
		id := len(issued)
		return func(*Engine) { fired = append(fired, id) }
	}
	// popRef pops both references, which must agree.
	popRef := func(step int) *refEvent {
		want := heap.Pop(&ref).(*refEvent)
		if got := quad.queue[0]; got.ev.id != want.id || got.at != want.at {
			t.Fatalf("step %d: 4-ary heap head id %d at %v, container/heap id %d at %v",
				step, got.ev.id, got.at, want.id, want.at)
		}
		quad.remove(0)
		return want
	}
	pop := func(step int) {
		want := popRef(step)
		n := len(fired)
		if !e.step(maxTime) || len(fired) != n+1 {
			t.Fatalf("step %d: engine did not fire exactly one event", step)
		}
		if fired[n] != want.id || e.Now() != want.at {
			t.Fatalf("step %d: engine fired id %d at %v, reference id %d at %v",
				step, fired[n], e.Now(), want.id, want.at)
		}
	}
	for step := 0; len(script) >= 2; step++ {
		op, arg := script[0], int(script[1])
		script = script[2:]
		slots := 8
		if wide {
			slots = 10
		}
		switch int(op) % slots {
		case 0, 1, 2:
			at, prio := e.Now()+delta(step, false, arg), uint64(arg/4%3)
			schedule(at, prio, seq, e.AtPrio(at, prio, "x", record()))
			seq++
		case 3:
			if arg%2 == 0 || len(taken) == 0 {
				if got := e.TakeSeq(); got != seq {
					t.Fatalf("step %d: TakeSeq = %d, reference %d", step, got, seq)
				}
				taken = append(taken, seq)
				seq++
				continue
			}
			k := arg / 8 % len(taken)
			at, num := e.Now()+delta(step, false, arg/2), taken[k]
			taken = append(taken[:k], taken[k+1:]...)
			schedule(at, 0, num, e.AtSeq(at, num, "x", record()))
		case 8:
			at := e.Now() + delta(step, true, arg/2)
			if arg%2 == 0 || len(taken) == 0 {
				prio := uint64(op / 10 % 3)
				schedule(at, prio, seq, e.AtPrio(at, prio, "x", record()))
				seq++
				break
			}
			k := int(op/10) % len(taken)
			num := taken[k]
			taken = append(taken[:k], taken[k+1:]...)
			schedule(at, 0, num, e.AtSeq(at, num, "x", record()))
		case 4, 5:
			if len(issued) == 0 {
				continue
			}
			id := arg / 4 % len(issued)
			if n := len(ref); n > 0 && arg%4 < 3 {
				id = ref[[]int{0, n / 2, n - 1}[arg%4]].id
			}
			want := mirror[id].index >= 0
			if want {
				heap.Remove(&ref, mirror[id].index)
				quad.remove(mirror4[id].index)
			}
			if valid := issued[id].Valid(); valid != want {
				t.Fatalf("step %d: ref %d Valid = %v, reference pending = %v", step, id, valid, want)
			}
			if got := e.Cancel(issued[id]); got != want {
				t.Fatalf("step %d: Cancel(ref %d) = %v, reference %v", step, id, got, want)
			}
		case 9:
			now, next := e.Now(), maxTime
			if len(ref) > 0 {
				next = ref[0].at
			}
			if got := e.NextAt(); got != next {
				t.Fatalf("step %d: NextAt = %v, reference %v", step, got, next)
			}
			// until: the last instant the run may fire; bound: where it
			// leaves the clock.
			until, bound, n := now, now, len(fired)
			// A run past next ends at the instant of the j-th earliest
			// pending event, j < 8, so it fires a batch and leaves the
			// rest pending; an idle engine runs a wide delta instead.
			d := delta(step, true, arg/4)
			end := now + d
			if len(ref) > 0 {
				ats := make([]Time, len(ref))
				for i, ev := range ref {
					ats[i] = ev.at
				}
				slices.Sort(ats)
				end = ats[min(arg/4%8, len(ats)-1)]
			}
			switch arg % 4 {
			case 0: // RunUntil short of next
				if next == now {
					continue
				}
				until = now + d%(next-now)
				bound = until
				e.RunUntil(bound)
			case 1: // RunBefore at most at next
				if next == now {
					continue
				}
				until = now + d%(next-now)
				bound = until + 1
				e.RunBefore(bound)
			case 2: // RunUntil through end
				until = end
				bound = until
				e.RunUntil(bound)
			default: // RunBefore end, which stays pending
				if end == now {
					continue
				}
				until = end - 1
				bound = end
				e.RunBefore(bound)
			}
			for k := n; len(ref) > 0 && ref[0].at <= until; k++ {
				want := popRef(step)
				if k >= len(fired) || fired[k] != want.id {
					t.Fatalf("step %d: run to %v fired %v, reference next id %d at %v",
						step, bound, fired[n:], want.id, want.at)
				}
				n++
			}
			if len(fired) != n {
				t.Fatalf("step %d: run to %v fired %d events beyond the reference", step, bound, len(fired)-n)
			}
			if e.Now() != bound {
				t.Fatalf("step %d: run to %v left the clock at %v", step, bound, e.Now())
			}
		default:
			if len(ref) > 0 {
				pop(step)
			}
		}
		if e.Pending() != len(ref) || len(quad.queue) != len(ref) {
			t.Fatalf("step %d: Pending = %d, references %d and %d", step, e.Pending(), len(ref), len(quad.queue))
		}
	}
	for len(ref) > 0 {
		pop(-1)
	}
	if e.step(maxTime) {
		t.Fatal("engine still had events after the reference drained")
	}
}

// TestHeapOrderMatchesReference runs 25 narrow scripts, where events
// crowd a few instants, then the same 25 scripts wide.
func TestHeapOrderMatchesReference(t *testing.T) {
	for _, wide := range []bool{false, true} {
		for seed := uint64(1); seed <= 25; seed++ {
			rng := NewRand(seed)
			script := make([]byte, 2*4000)
			for i := range script {
				script[i] = byte(rng.Uint64())
			}
			runHeapScript(t, script, wide)
		}
	}
}

func FuzzHeapOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 4, 4, 0, 6, 0, 0, 1, 4, 12, 6, 0}, false)
	f.Add([]byte{1, 9, 2, 9, 3, 9, 0, 9, 5, 1, 5, 2, 5, 0, 7, 0, 7, 0}, false)
	// Wide deltas: events about 2^61, 2^40, 2^20 and 1 ns out; a pop; a
	// run about 2^18 on, short of the next; a number taken and scheduled
	// 2^36 out; a run through the third pending instant, firing three;
	// a pop.
	f.Add([]byte{8, 124, 8, 82, 8, 42, 8, 2, 7, 0, 9, 76, 3, 0, 8, 73, 9, 10, 7, 0}, true)
	f.Fuzz(func(t *testing.T, script []byte, wide bool) { runHeapScript(t, script, wide) })
}
