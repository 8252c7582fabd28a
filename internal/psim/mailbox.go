package psim

import (
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// RemoteReceiver schedules a cross-partition frame delivery onto the
// receiving partition's engine. netdev.Ifc implements it.
type RemoteReceiver interface {
	ScheduleRemoteDelivery(f *ethernet.Frame, at, wire sim.Time)
}

// Message is one frame in flight across a partition boundary: the
// receiving interface, the frame, its precomputed arrival instant and
// the final fragment's wire time (the attribution hop closure needs
// it). The arrival instant is what makes drain-then-run conservative:
// At is always ≥ the next window's start, so scheduling it never
// violates the receiving engine's causality check.
type Message struct {
	To    RemoteReceiver
	Frame *ethernet.Frame
	At    sim.Time
	Wire  sim.Time
}

// Mailbox is the bounded SPSC channel one directed cut link posts its
// deliveries through. It carries no locks or atomics: the barrier
// protocol is its synchronization. The producer (the sending
// partition's worker) posts only during run phases, the consumer (the
// receiving partition's worker) drains only during drain phases, and
// every phase change passes through a barrier, which establishes the
// happens-before edge between the producer's writes and the consumer's
// reads. The fixed-capacity ring is the steady-state path; a burst
// beyond capacity spills to an overflow slice (never dropped) that
// drains after the ring, preserving post order.
type Mailbox struct {
	ring     []Message
	n        int
	overflow []Message
	posts    uint64 // consumer-side: messages ever drained
	hw       int    // consumer-side: most messages one Drain found
}

// NewMailbox returns a mailbox with the given ring capacity.
func NewMailbox(capacity int) *Mailbox {
	if capacity < 1 {
		capacity = 1
	}
	return &Mailbox{ring: make([]Message, capacity)}
}

// Post appends one message. Producer-side only (run phase).
func (m *Mailbox) Post(msg Message) {
	if m.n < len(m.ring) {
		m.ring[m.n] = msg
		m.n++
		return
	}
	m.overflow = append(m.overflow, msg)
}

// Drain consumes every posted message in post order (ring first, then
// overflow — the ring is always older) and schedules it on the
// receiving engine. Consumer-side only (drain phase). Message slots
// are cleared so a parked mailbox never pins frame payloads.
func (m *Mailbox) Drain() {
	m.posts += uint64(m.Len())
	m.hw = max(m.hw, m.Len())
	for i := 0; i < m.n; i++ {
		msg := &m.ring[i]
		msg.To.ScheduleRemoteDelivery(msg.Frame, msg.At, msg.Wire)
		*msg = Message{}
	}
	m.n = 0
	for i := range m.overflow {
		msg := &m.overflow[i]
		msg.To.ScheduleRemoteDelivery(msg.Frame, msg.At, msg.Wire)
		*msg = Message{}
	}
	m.overflow = m.overflow[:0]
}

// Len reports how many messages are pending.
func (m *Mailbox) Len() int { return m.n + len(m.overflow) }
