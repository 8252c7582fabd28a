package trace

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sort"
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

// The second reference: the opt-in packet recorder the dataplane used to
// write every event into besides the flight ring, with the residence
// aggregation and Chrome export that read it, kept verbatim under the
// names refRecorder, refPacketKey and refResidences. It kept the first
// Limit events where the ring keeps the newest; fed the ring's retained
// suffix, it must agree with what now reads the ring.

// refPacketKey identifies one packet across hops.
type refPacketKey struct {
	FlowID uint32
	Seq    uint32
}

// refRecorder accumulates events. The zero value is ready to use; a nil
// *refRecorder ignores all records, so dataplanes can call it
// unconditionally.
type refRecorder struct {
	events   []Event
	byPacket map[refPacketKey][]int
	// Limit bounds stored events (0 = unlimited). Beyond it new events
	// are counted but not stored.
	Limit   int
	dropped uint64
	// droppedKind breaks the truncation down per event kind so Filter
	// callers can tell exactly how incomplete their view is.
	droppedKind map[Kind]uint64
}

// Record appends one event.
func (r *refRecorder) Record(ev Event) {
	if r == nil {
		return
	}
	if r.Limit > 0 && len(r.events) >= r.Limit {
		r.dropped++
		if r.droppedKind == nil {
			r.droppedKind = make(map[Kind]uint64)
		}
		r.droppedKind[ev.Kind]++
		return
	}
	if r.byPacket == nil {
		r.byPacket = make(map[refPacketKey][]int)
	}
	idx := len(r.events)
	r.events = append(r.events, ev)
	k := refPacketKey{FlowID: ev.FlowID, Seq: ev.Seq}
	r.byPacket[k] = append(r.byPacket[k], idx)
}

// Len returns the number of stored events.
func (r *refRecorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Truncated returns how many events exceeded Limit.
func (r *refRecorder) Truncated() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Complete reports whether the recorder holds every event it was
// offered. When false, Packet and Filter views are missing events and
// absence of evidence is not evidence of absence.
func (r *refRecorder) Complete() bool { return r.Truncated() == 0 }

// DroppedOfKind returns how many events of the given kind were lost to
// truncation — the exact deficit of a Filter(kind) result.
func (r *refRecorder) DroppedOfKind(kind Kind) uint64 {
	if r == nil {
		return 0
	}
	return r.droppedKind[kind]
}

// Events returns all stored events in record order.
func (r *refRecorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Packet returns a packet's events in record (time) order. When the
// recorder is truncated (Complete() == false) the journey may be
// missing its tail: callers reconstructing per-hop invariants must
// check Truncated() before treating a short chain as a drop.
func (r *refRecorder) Packet(flowID, seq uint32) []Event {
	if r == nil {
		return nil
	}
	idxs := r.byPacket[refPacketKey{FlowID: flowID, Seq: seq}]
	out := make([]Event, len(idxs))
	for i, idx := range idxs {
		out[i] = r.events[idx]
	}
	return out
}

// Filter returns stored events matching kind. A counting pass sizes
// the result exactly, so the append loop never reallocates — traces
// run to millions of events and the doubling copies dominated.
// DroppedOfKind(kind) tells how many matching events truncation lost
// from the result.
func (r *refRecorder) Filter(kind Kind) []Event {
	if r == nil {
		return nil
	}
	n := 0
	for _, ev := range r.events {
		if ev.Kind == kind {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	for _, ev := range r.events {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// refResidences pairs each enqueue with the next transmission start of the
// same packet on the same switch/port and aggregates per (switch, port,
// queue). Dropped packets contribute nothing.
func refResidences(rec *refRecorder) []Residence {
	if rec == nil {
		return nil
	}
	type key struct{ sw, port, queue int }
	agg := make(map[key]*Residence)
	for pk := range rec.byPacket {
		evs := rec.Packet(pk.FlowID, pk.Seq)
		// Events are in record (time) order; walk matching pairs.
		for i := 0; i < len(evs); i++ {
			if evs[i].Kind != KindEnqueue {
				continue
			}
			enq := evs[i]
			for j := i + 1; j < len(evs); j++ {
				tx := evs[j]
				if tx.Kind != KindTxStart || tx.Switch != enq.Switch || tx.Port != enq.Port {
					continue
				}
				k := key{enq.Switch, enq.Port, enq.Queue}
				a, ok := agg[k]
				if !ok {
					a = &Residence{Switch: enq.Switch, Port: enq.Port, Queue: enq.Queue}
					agg[k] = a
				}
				d := tx.At - enq.At
				a.Count++
				a.Sum += d
				if d > a.Max {
					a.Max = d
				}
				break
			}
		}
	}
	out := make([]Residence, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Max != out[j].Max {
			return out[i].Max > out[j].Max
		}
		if out[i].Switch != out[j].Switch {
			return out[i].Switch < out[j].Switch
		}
		return out[i].Port < out[j].Port
	})
	return out
}

// WriteChrome exports every stored event as a thread-scoped instant
// event: pid = switch, tid = port, name = event kind. The output loads
// directly into chrome://tracing or Perfetto; the traceEvents array
// holds exactly Len() entries (no metadata records), and the top-level
// truncatedEvents field carries Truncated() so tooling can cross-check
// completeness against the recorder.
func (r *refRecorder) WriteChrome(w io.Writer) error {
	out := chromeTrace{
		DisplayTimeUnit: "ns",
		TraceEvents:     []chromeEvent{},
		TruncatedEvents: r.Truncated(),
	}
	if r != nil {
		out.TraceEvents = make([]chromeEvent, 0, len(r.events))
		for _, ev := range r.events {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name:  ev.Kind.String(),
				Cat:   "dataplane",
				Phase: "i",
				TS:    float64(ev.At) / 1e3,
				PID:   ev.Switch,
				TID:   ev.Port,
				Scope: "t",
				Args: chromeArgs{
					Flow: ev.FlowID, Seq: ev.Seq,
					Queue: ev.Queue, Detail: ev.Detail,
				},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
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
			all := want.Snapshot()
			if g := got.Snapshot(capacity); !sameEvents(g, all) {
				t.Fatalf("cap %d step %d: Snapshot\n got %+v\nwant %+v", capacity, i, g, all)
			}
			flow := uint32(pick(6)) // 5 never occurs: both must return nil
			if g, w := got.SnapshotFlow(flow, capacity), want.SnapshotFlow(flow); !sameEvents(g, w) {
				t.Fatalf("cap %d step %d: SnapshotFlow(%d)\n got %+v\nwant %+v", capacity, i, flow, g, w)
			}
			// A bounded read is the reference's newest suffix.
			last := pick(capacity + 2)
			suffix := all[len(all)-min(last, len(all)):]
			if g := got.Snapshot(last); !slices.Equal(g, suffix) {
				t.Fatalf("cap %d step %d: Snapshot(%d)\n got %+v\nwant %+v", capacity, i, last, g, suffix)
			}
			var w []Event
			for _, ev := range suffix {
				if ev.FlowID == flow {
					w = append(w, ev)
				}
			}
			if g := got.SnapshotFlow(flow, last); !sameEvents(g, w) {
				t.Fatalf("cap %d step %d: SnapshotFlow(%d, %d)\n got %+v\nwant %+v", capacity, i, flow, last, g, w)
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
// to the record's range — Switch and Port at int16, Queue at int8, Kind
// at uint8 — values inside it, port 200 of a star core among them, read
// back exactly, and the 256th distinct detail reads back as "?" — never
// as another event's string — while the first 255 keep reading back
// exactly.
func TestFlightSaturatesWhatARecordCannotHold(t *testing.T) {
	fl := NewFlight(1024)
	fl.Record(Event{Kind: 1 << 20, Switch: 1 << 40, Port: 40000, Queue: -4000})
	fl.Record(Event{Kind: -3, Switch: -1 << 40, Port: -40000, Queue: 128})
	fl.Record(Event{Kind: KindTxStart, Switch: 1 << 15, Port: -1<<15 - 1, Queue: -129})
	exact := []Event{
		{Kind: KindEnqueue, Switch: 0, Port: 200, Queue: 7},
		{Kind: KindDrop, Switch: 1<<15 - 1, Port: -1 << 15, Queue: 127},
		{Kind: KindIngress, Switch: -1 << 15, Port: 1<<15 - 1, Queue: -128},
	}
	for _, ev := range exact {
		fl.Record(ev)
	}
	want := append([]Event{
		{Kind: 255, Switch: 1<<15 - 1, Port: 1<<15 - 1, Queue: -128},
		{Kind: 0, Switch: -1 << 15, Port: -1 << 15, Queue: 127},
		{Kind: KindTxStart, Switch: 1<<15 - 1, Port: -1 << 15, Queue: -128},
	}, exact...)
	if got := fl.Snapshot(fl.Cap()); !reflect.DeepEqual(got, want) {
		t.Fatalf("saturation:\n got %+v\nwant %+v", got, want)
	}
	for i := 0; i < 300; i++ { // "" is the first of the 255
		fl.Record(Event{FlowID: 9, Seq: uint32(i), Detail: fmt.Sprintf("reason-%d", i)})
	}
	fl.Record(Event{FlowID: 9, Seq: 300, Detail: "reason-7"})
	for _, ev := range fl.SnapshotFlow(9, fl.Cap()) {
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

// traceStream is a seeded random event stream over a few packets,
// switches, ports and queues: repeated enqueues of one packet, drops,
// transmission starts with no enqueue before them and "resume"
// transmission starts after a preemption all occur often.
func traceStream(seed uint64, n int) []Event {
	rng := sim.NewRand(seed)
	pick := func(n int) int { return int(rng.Uint64() % uint64(n)) }
	details := []string{"", "queue-full", "no-route"}
	evs := make([]Event, n)
	at := sim.Time(0)
	for i := range evs {
		at += sim.Time(pick(3)) * sim.Microsecond
		ev := Event{
			At: at, Kind: Kind(pick(4)), Switch: pick(3), Port: pick(3) - 1, Queue: pick(3),
			FlowID: uint32(pick(4)), Seq: uint32(pick(3)),
		}
		switch ev.Kind {
		case KindDrop:
			ev.Detail = details[pick(len(details))]
		case KindTxStart:
			if pick(4) == 0 {
				ev.Detail = "resume"
			}
		}
		evs[i] = ev
	}
	return evs
}

// TestTraceMatchesReference feeds seeded streams, shorter and longer
// than the ring, to the flight recorder and requires what reads it to
// agree with the kept recorder fed the ring's retained suffix:
// Residences cell for cell once the reference's partial order is made
// total, and WriteChrome byte for byte when the reference was also
// offered — and refused — the overwritten count of events.
func TestTraceMatchesReference(t *testing.T) {
	total := func(a, b Residence) int {
		return cmp.Or(cmp.Compare(b.Max, a.Max), cmp.Compare(a.Switch, b.Switch),
			cmp.Compare(a.Port, b.Port), cmp.Compare(a.Queue, b.Queue))
	}
	for _, capacity := range []int{1, 16, 256} {
		for _, n := range []int{0, 1, capacity / 2, capacity, capacity + 1, 8 * capacity} {
			for seed := uint64(1); seed <= 4; seed++ {
				fl := NewFlight(capacity)
				for _, ev := range traceStream(seed*1000+uint64(n), n) {
					fl.Record(ev)
				}
				kept := fl.Snapshot(fl.Cap())
				lost := fl.Seq() - uint64(len(kept))
				ref := &refRecorder{Limit: len(kept)}
				for _, ev := range kept {
					ref.Record(ev)
				}
				for i := uint64(0); i < lost; i++ {
					ref.Record(Event{Kind: KindDrop})
				}
				// The reference holds exactly the ring's view, and refused
				// exactly what the ring overwrote.
				drops := 0
				for _, ev := range kept {
					if ev.Kind == KindDrop {
						drops++
					}
				}
				if ref.Len() != len(kept) || !slices.Equal(ref.Events(), kept) || ref.Complete() != (lost == 0) ||
					ref.DroppedOfKind(KindDrop) != lost || len(ref.Filter(KindDrop)) != drops {
					t.Fatalf("cap %d n %d seed %d: reference not fed the ring's view", capacity, n, seed)
				}

				want := refResidences(ref)
				slices.SortFunc(want, total)
				if got := Residences(kept); !slices.Equal(got, want) {
					t.Fatalf("cap %d n %d seed %d: Residences\n got %v\nwant %v", capacity, n, seed, got, want)
				}
				var got, wantJSON bytes.Buffer
				if err := WriteChrome(&got, kept, lost); err != nil {
					t.Fatal(err)
				}
				if err := ref.WriteChrome(&wantJSON); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), wantJSON.Bytes()) {
					t.Fatalf("cap %d n %d seed %d: WriteChrome\n got %s\nwant %s", capacity, n, seed, got.Bytes(), wantJSON.Bytes())
				}
			}
		}
	}
}
