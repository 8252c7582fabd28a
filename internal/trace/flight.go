package trace

import (
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// Flight is the always-on flight recorder: a fixed-capacity ring of the
// most recent dataplane events, kept cheap enough to leave enabled in
// every run (a field-by-field store into a preallocated ring slot, no
// lock and zero allocations after construction — the same philosophy
// as the engine's generation-counted free list). It is the dataplane's
// only event store: the capacity decides how much of the recent past it
// holds — enough for a deadline miss, a watchdog degradation or an
// injected fault to dump the events leading up to it, or, sized up, the
// most recent million for offline analysis. When the ring is full the
// oldest event goes.
//
// Like the rest of the dataplane, a Flight belongs to its engine's
// simulation thread, and every method is a call on that thread. Another
// goroutine reads a copy the writer hands over between records
// (CopyFrom, under the reader's lock: obs.Server's /events feed).
//
// A ring slot is a 24-byte record without pointers (an Event is 64,
// with a string header), so the ring is small and the collector never
// scans it; readers get Events back. A field the record cannot hold
// saturates: Switch and Port at the int16 range, Queue at int8, Kind
// at 0..255. A recorder tells 255 distinct Detail strings apart; an
// event bringing one more reads back with the detail "?".
type Flight struct {
	buf []record
	// seq counts events ever recorded; it is the generation cursor for
	// Since and tells readers how much history the ring has dropped.
	seq uint64
	// details[:known] are the Detail strings seen ("" first); a record
	// stores the index, unknownDetail when the table was full.
	details [unknownDetail + 1]string
	known   int
}

const unknownDetail = 255

// record is the stored form of an Event.
type record struct {
	at           sim.Time
	flow, seq    uint32
	sw, port     int16
	queue        int8
	kind, detail uint8
}

// detailIndex interns d; with the table full it returns unknownDetail.
func (fl *Flight) detailIndex(d string) uint8 {
	i := 0
	for i < fl.known && fl.details[i] != d {
		i++
	}
	if i == fl.known && i < unknownDetail {
		fl.details[i] = d
		fl.known++
	}
	return uint8(i)
}

// event expands the record at ordinal i.
func (fl *Flight) event(i uint64) Event {
	r := &fl.buf[i%uint64(len(fl.buf))]
	return Event{At: r.at, Kind: Kind(r.kind), Switch: int(r.sw), Port: int(r.port),
		Queue: int(r.queue), FlowID: r.flow, Seq: r.seq, Detail: fl.details[r.detail]}
}

// NewFlight builds a recorder holding the last capacity events.
func NewFlight(capacity int) *Flight {
	if capacity <= 0 {
		panic("trace: non-positive flight recorder capacity")
	}
	fl := &Flight{buf: make([]record, capacity), known: 1}
	fl.details[unknownDetail] = "?"
	return fl
}

// Record stores one event, overwriting the oldest when the ring is
// full. Nil-safe so dataplanes can call it unconditionally.
func (fl *Flight) Record(ev Event) {
	fl.Put(ev.At, ev.Kind, ev.Switch, ev.Port, ev.Queue, ev.FlowID, ev.Seq, ev.Detail)
}

// Put is Record with the event's fields as arguments, so a dataplane
// builds no Event per record.
func (fl *Flight) Put(at sim.Time, kind Kind, sw, port, queue int, flow, seq uint32, detail string) {
	if fl == nil {
		return
	}
	// Field by field: a record literal is built bytewise on the stack and
	// copied with wide loads, which stalls on store forwarding.
	r := &fl.buf[fl.seq%uint64(len(fl.buf))]
	r.at, r.flow, r.seq = at, flow, seq
	r.sw = int16(min(max(sw, -1<<15), 1<<15-1))
	r.port = int16(min(max(port, -1<<15), 1<<15-1))
	r.queue = int8(min(max(queue, -128), 127))
	r.kind = uint8(min(max(kind, 0), 255))
	r.detail = 0 // details[0] is ""
	if detail != "" {
		r.detail = fl.detailIndex(detail)
	}
	fl.seq++
}

// Cap returns the ring capacity.
func (fl *Flight) Cap() int {
	if fl == nil {
		return 0
	}
	return len(fl.buf)
}

// Seq returns the total number of events ever recorded. Events with
// ordinal < Seq()-Cap() have been overwritten.
func (fl *Flight) Seq() uint64 {
	if fl == nil {
		return 0
	}
	return fl.seq
}

// Len returns how many events the ring currently holds.
func (fl *Flight) Len() int {
	if fl == nil {
		return 0
	}
	return fl.len()
}

func (fl *Flight) len() int {
	if fl.seq < uint64(len(fl.buf)) {
		return int(fl.seq)
	}
	return len(fl.buf)
}

// Snapshot copies the newest min(last, Len()) events oldest-first;
// Snapshot(Cap()) copies all the ring holds.
func (fl *Flight) Snapshot(last int) []Event {
	if fl == nil {
		return nil
	}
	n := min(last, fl.len())
	out := make([]Event, n)
	start := fl.seq - uint64(n)
	for i := 0; i < n; i++ {
		out[i] = fl.event(start + uint64(i))
	}
	return out
}

// SnapshotFlow copies one flow's events among the newest last,
// oldest-first — the "offending span chain" a deadline-miss dump wants.
func (fl *Flight) SnapshotFlow(flowID uint32, last int) []Event {
	if fl == nil {
		return nil
	}
	var out []Event
	for i := fl.seq - uint64(min(last, fl.len())); i < fl.seq; i++ {
		if fl.buf[i%uint64(len(fl.buf))].flow == flowID {
			out = append(out, fl.event(i))
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
func (fl *Flight) Since(cursor uint64, buf []Event) (out []Event, next uint64) {
	if fl == nil {
		return buf, cursor
	}
	if oldest := fl.seq - uint64(fl.len()); cursor < oldest {
		cursor = oldest
	}
	for ; cursor < fl.seq; cursor++ {
		buf = append(buf, fl.event(cursor))
	}
	return buf, fl.seq
}

// CopyFrom brings fl, a ring of src's capacity, up to date with src by
// copying what src recorded since the last call, at the same ordinals:
// Seq and Since cursors carry over. Call it on src's writer goroutine.
func (fl *Flight) CopyFrom(src *Flight) {
	n := uint64(len(src.buf))
	for i := max(fl.seq, src.seq-uint64(src.len())); i < src.seq; {
		k := i % n
		c := min(src.seq-i, n-k) // up to the end of the ring
		copy(fl.buf[k:k+c], src.buf[k:k+c])
		i += c
	}
	copy(fl.details[fl.known:src.known], src.details[fl.known:src.known])
	fl.known, fl.seq = src.known, src.seq
}
