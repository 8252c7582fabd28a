package sim

import (
	"container/heap"
	"testing"
)

// The reference: the engine's queue as it was before the inline-key
// heap — container/heap over event pointers, ordered by (at, prio, seq).
// eventHeap is kept verbatim (only the element type is renamed, since
// the key fields no longer live in event). Because (at, prio, seq) is a
// total order, any correct heap must pop in exactly this sequence.
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

// runHeapScript drives the engine and the reference with one script and
// fails on the first divergence. Each step reads an opcode byte and an
// argument byte: three in eight opcodes schedule (AtPrio at now+0..3
// with prio 0..2, so equal instants and equal prios are the norm), one
// takes an order number without scheduling (TakeSeq) or schedules a
// number taken earlier (AtSeq at now+0..3 — later than numbers handed
// out since, at any instant, or never), a quarter cancel, a quarter pop.
// A cancel aims at the reference heap's head,
// middle or tail, or at any ref ever issued — pending, fired, canceled,
// or stale with its event struct since reused by a later scheduling.
// Pending() is compared after every step, and the script's leftovers
// are popped at the end.
func runHeapScript(t testing.TB, script []byte) {
	e := NewEngine()
	var (
		ref    eventHeap
		seq    uint64
		fired  []int
		issued []EventRef  // by id
		mirror []*refEvent // by id
		taken  []uint64    // order numbers taken and not yet scheduled
	)
	schedule := func(at Time, prio, seq uint64, r EventRef) {
		ev := &refEvent{at: at, prio: prio, seq: seq, id: len(issued)}
		issued = append(issued, r)
		heap.Push(&ref, ev)
		mirror = append(mirror, ev)
	}
	pop := func(step int) {
		want := heap.Pop(&ref).(*refEvent)
		n := len(fired)
		if !e.step() || len(fired) != n+1 {
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
		switch op % 8 {
		case 0, 1, 2:
			id := len(issued)
			at, prio := e.Now()+Time(arg%4), uint64(arg/4%3)
			schedule(at, prio, seq, e.AtPrio(at, prio, "x", func(*Engine) { fired = append(fired, id) }))
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
			id, k := len(issued), arg/8%len(taken)
			at, num := e.Now()+Time(arg/2%4), taken[k]
			taken = append(taken[:k], taken[k+1:]...)
			schedule(at, 0, num, e.AtSeq(at, num, "x", func(*Engine) { fired = append(fired, id) }))
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
			}
			if valid := issued[id].Valid(); valid != want {
				t.Fatalf("step %d: ref %d Valid = %v, reference pending = %v", step, id, valid, want)
			}
			if got := e.Cancel(issued[id]); got != want {
				t.Fatalf("step %d: Cancel(ref %d) = %v, reference %v", step, id, got, want)
			}
		default:
			if len(ref) > 0 {
				pop(step)
			}
		}
		if e.Pending() != len(ref) {
			t.Fatalf("step %d: Pending = %d, reference %d", step, e.Pending(), len(ref))
		}
	}
	for len(ref) > 0 {
		pop(-1)
	}
	if e.step() {
		t.Fatal("engine still had events after the reference drained")
	}
}

func TestHeapOrderMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		rng := NewRand(seed)
		script := make([]byte, 2*4000)
		for i := range script {
			script[i] = byte(rng.Uint64())
		}
		runHeapScript(t, script)
	}
}

func FuzzHeapOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 4, 4, 0, 6, 0, 0, 1, 4, 12, 6, 0})
	f.Add([]byte{1, 9, 2, 9, 3, 9, 0, 9, 5, 1, 5, 2, 5, 0, 7, 0, 7, 0})
	f.Fuzz(func(t *testing.T, script []byte) { runHeapScript(t, script) })
}
