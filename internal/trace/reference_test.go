package trace

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// The reference: the flight recorder as it was while its ring held
// whole Events (64 bytes with a string header per slot), kept verbatim
// under the name refFlight. Flight now stores pointer-free 24-byte
// records and expands them on read; every reader must return what this
// one returns.

// refFlight is the always-on flight recorder: a fixed-capacity ring of the
// most recent dataplane events, kept cheap enough to leave enabled in
// every run (one mutexed copy into a preallocated ring slot, zero
// allocations after construction — the same philosophy as the engine's
// generation-counted free list). Where Recorder stores a complete trace
// for offline analysis and is opt-in, refFlight keeps only the recent past
// so that a deadline miss, a watchdog degradation or an injected fault
// can dump the events leading up to it.
//
// Unlike the rest of the dataplane, refFlight is safe for concurrent use:
// the simulation thread records while the telemetry server reads
// snapshots and streams increments.
type refFlight struct {
	mu  sync.Mutex
	buf []Event
	// seq counts events ever recorded; it is the generation cursor for
	// Since and tells readers how much history the ring has dropped.
	seq uint64
}

// newRefFlight builds a recorder holding the last capacity events.
func newRefFlight(capacity int) *refFlight {
	if capacity <= 0 {
		panic("trace: non-positive flight recorder capacity")
	}
	return &refFlight{buf: make([]Event, capacity)}
}

// Record stores one event, overwriting the oldest when the ring is
// full. Nil-safe so dataplanes can call it unconditionally.
func (fl *refFlight) Record(ev Event) {
	if fl == nil {
		return
	}
	fl.mu.Lock()
	fl.buf[fl.seq%uint64(len(fl.buf))] = ev
	fl.seq++
	fl.mu.Unlock()
}

// Cap returns the ring capacity.
func (fl *refFlight) Cap() int {
	if fl == nil {
		return 0
	}
	return len(fl.buf)
}

// Seq returns the total number of events ever recorded. Events with
// ordinal < Seq()-Cap() have been overwritten.
func (fl *refFlight) Seq() uint64 {
	if fl == nil {
		return 0
	}
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return fl.seq
}

// Len returns how many events the ring currently holds.
func (fl *refFlight) Len() int {
	if fl == nil {
		return 0
	}
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return fl.len()
}

func (fl *refFlight) len() int {
	if fl.seq < uint64(len(fl.buf)) {
		return int(fl.seq)
	}
	return len(fl.buf)
}

// Snapshot copies the retained events oldest-first.
func (fl *refFlight) Snapshot() []Event {
	if fl == nil {
		return nil
	}
	fl.mu.Lock()
	defer fl.mu.Unlock()
	n := fl.len()
	out := make([]Event, n)
	start := fl.seq - uint64(n)
	for i := 0; i < n; i++ {
		out[i] = fl.buf[(start+uint64(i))%uint64(len(fl.buf))]
	}
	return out
}

// SnapshotFlow copies the retained events of one flow, oldest-first —
// the "offending span chain" a deadline-miss dump wants.
func (fl *refFlight) SnapshotFlow(flowID uint32) []Event {
	if fl == nil {
		return nil
	}
	fl.mu.Lock()
	defer fl.mu.Unlock()
	n := fl.len()
	start := fl.seq - uint64(n)
	var out []Event
	for i := 0; i < n; i++ {
		ev := fl.buf[(start+uint64(i))%uint64(len(fl.buf))]
		if ev.FlowID == flowID {
			out = append(out, ev)
		}
	}
	return out
}

// Since appends the events recorded after cursor to buf (oldest-first)
// and returns the extended slice plus the new cursor — the streaming
// read primitive for the telemetry server's event feed. If the ring has
// wrapped past cursor the overwritten events are skipped; the caller
// can detect the gap by comparing next-cursor deltas against the
// returned length.
func (fl *refFlight) Since(cursor uint64, buf []Event) (out []Event, next uint64) {
	if fl == nil {
		return buf, cursor
	}
	fl.mu.Lock()
	defer fl.mu.Unlock()
	n := fl.len()
	oldest := fl.seq - uint64(n)
	if cursor < oldest {
		cursor = oldest
	}
	for ; cursor < fl.seq; cursor++ {
		buf = append(buf, fl.buf[cursor%uint64(len(fl.buf))])
	}
	return buf, fl.seq
}

// sameEvents is reflect.DeepEqual for event slices (nil and empty
// differ), without its cost: the test compares ~10 M events.
func sameEvents(a, b []Event) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// TestFlightMatchesReference drives the compact ring and the reference
// with one seeded stream of representable events — all four kinds,
// ports and queues from −1 up, a few details repeated and a fresh one
// now and then — and requires every reader to agree after every step,
// at capacities that wrap many times.
func TestFlightMatchesReference(t *testing.T) {
	if size := unsafe.Sizeof(record{}); size != 24 {
		t.Fatalf("a ring slot is %d bytes, want 24", size)
	}
	for _, capacity := range []int{1, 7, 1024} {
		rng := sim.NewRand(uint64(capacity))
		pick := func(n int) int { return int(rng.Uint64() % uint64(n)) }
		got, want := NewFlight(capacity), newRefFlight(capacity)
		details := []string{"", "", "", "queue-full", "no-route", "resume"}
		var cursor, refCursor uint64
		var buf, refBuf []Event
		steps := 5*capacity + 50
		for i := 0; i < steps; i++ {
			ev := Event{
				At: sim.Time(rng.Uint64() >> 1), Kind: Kind(pick(4)),
				Switch: pick(300) - 1, Port: pick(10) - 1, Queue: pick(10) - 1,
				FlowID: uint32(pick(5)), Seq: uint32(rng.Uint64()),
				Detail: details[pick(len(details))],
			}
			if pick(40) == 0 && len(details) < 100 {
				ev.Detail = fmt.Sprintf("fresh-%d", i)
				details = append(details, ev.Detail)
			}
			got.Record(ev)
			want.Record(ev)
			if got.Seq() != want.Seq() || got.Len() != want.Len() || got.Cap() != want.Cap() {
				t.Fatalf("cap %d step %d: seq/len/cap %d/%d/%d, reference %d/%d/%d", capacity, i,
					got.Seq(), got.Len(), got.Cap(), want.Seq(), want.Len(), want.Cap())
			}
			if g, w := got.Snapshot(), want.Snapshot(); !sameEvents(g, w) {
				t.Fatalf("cap %d step %d: Snapshot\n got %+v\nwant %+v", capacity, i, g, w)
			}
			flow := uint32(pick(6)) // 5 never occurs: both must return nil
			if g, w := got.SnapshotFlow(flow), want.SnapshotFlow(flow); !sameEvents(g, w) {
				t.Fatalf("cap %d step %d: SnapshotFlow(%d)\n got %+v\nwant %+v", capacity, i, flow, g, w)
			}
			// A reader that polls now and then: often enough to follow the
			// ring, seldom enough to fall behind it, and once from a cursor
			// far older than anything retained.
			if pick(3) == 0 || i == steps-1 {
				if i == steps-1 {
					cursor, refCursor = 1, 1
				}
				buf, cursor = got.Since(cursor, buf[:0])
				refBuf, refCursor = want.Since(refCursor, refBuf[:0])
				if cursor != refCursor || !sameEvents(buf, refBuf) {
					t.Fatalf("cap %d step %d: Since → cursor %d, %d events; reference %d, %d",
						capacity, i, cursor, len(buf), refCursor, len(refBuf))
				}
			}
		}
	}
}

// TestFlightSaturatesWhatARecordCannotHold: out-of-range fields clamp
// to the record's range, and the 256th distinct detail reads back as
// "?" — never as another event's string — while the first 255 keep
// reading back exactly.
func TestFlightSaturatesWhatARecordCannotHold(t *testing.T) {
	fl := NewFlight(1024)
	fl.Record(Event{Kind: 1 << 20, Switch: 1 << 40, Port: 4000, Queue: -4000})
	fl.Record(Event{Kind: -3, Switch: -1 << 40, Port: -129, Queue: 128})
	want := []Event{
		{Kind: 255, Switch: 1<<31 - 1, Port: 127, Queue: -128},
		{Kind: 0, Switch: -1 << 31, Port: -128, Queue: 127},
	}
	if got := fl.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("saturation:\n got %+v\nwant %+v", got, want)
	}
	for i := 0; i < 300; i++ { // "" is the first of the 255
		fl.Record(Event{FlowID: 9, Seq: uint32(i), Detail: fmt.Sprintf("reason-%d", i)})
	}
	fl.Record(Event{FlowID: 9, Seq: 300, Detail: "reason-7"})
	for _, ev := range fl.SnapshotFlow(9) {
		want := fmt.Sprintf("reason-%d", ev.Seq)
		switch {
		case ev.Seq == 300:
			want = "reason-7"
		case ev.Seq >= 254:
			want = "?"
		}
		if ev.Detail != want {
			t.Fatalf("event %d reads back detail %q, want %q", ev.Seq, ev.Detail, want)
		}
	}
}
