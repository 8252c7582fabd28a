// Package tsnnic models the paper's network tester: a Zynq-based NIC
// ("TSNNic") that injects user-defined TS/RC/BE flows into the TSN
// network and, at the receive side, hands frames to the analyzer.
//
// Each NIC has a strict-priority MAC with one FIFO per traffic class,
// so a periodic TS injection is never stuck behind a queued background
// frame for more than one MTU time. TS flows fire at offset + k·period
// (the offset comes from the ITP planner); RC and BE flows are paced at
// their configured rate.
package tsnnic

import (
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/analyzer"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/frer"
	"github.com/tsnbuilder/tsnbuilder/internal/netdev"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// NIC is one tester endpoint.
type NIC struct {
	HostID int

	engine *sim.Engine
	ifc    *netdev.Ifc

	// Strict-priority MAC FIFOs indexed by class (TS > RC > BE). A FIFO
	// holds its frames at [head:]; popping clears the slot and an
	// emptied FIFO rewinds, so the backing array is reused and never
	// pins a transmitted frame.
	fifos [3]struct {
		frames []*ethernet.Frame
		head   int
	}
	// drainFn is drain bound once, for Transmit's completion callback.
	drainFn func()

	// Collector receives frames arriving at this NIC; shared collectors
	// across NICs are allowed (one "analyzer" box).
	Collector *analyzer.Collector

	// sent counts transmitted frames per flow. FRER flows count each
	// sequence number once: the member-stream replica is redundancy,
	// not offered load.
	sent map[uint32]uint64
	seq  map[uint32]uint32

	// replicate maps flow ID → alternate VID for 802.1CB talker-side
	// replication; replicas counts the extra member-stream frames.
	replicate map[uint32]uint16
	replicas  uint64

	// recovery, when set, is the listener-side 802.1CB sequence
	// recovery run on every arriving frame before the collector.
	recovery *frer.Table

	// stopAt bounds generation (0 = unbounded).
	stopAt sim.Time
}

// New creates a NIC for hostID on engine with the given line rate.
func New(engine *sim.Engine, hostID int, rate ethernet.Rate, col *analyzer.Collector) *NIC {
	n := &NIC{
		HostID:    hostID,
		engine:    engine,
		Collector: col,
		sent:      make(map[uint32]uint64),
		seq:       make(map[uint32]uint32),
	}
	n.ifc = netdev.NewIfc(engine, fmt.Sprintf("nic%d", hostID), n, rate)
	n.drainFn = n.drain
	return n
}

// Ifc returns the NIC's physical interface for cabling.
func (n *NIC) Ifc() *netdev.Ifc { return n.ifc }

// SetStopTime bounds flow generation: no frame is enqueued at or after
// t. Zero means unbounded.
func (n *NIC) SetStopTime(t sim.Time) { n.stopAt = t }

// Sent returns per-flow transmit counts (live map; read-only use).
func (n *NIC) Sent() map[uint32]uint64 { return n.sent }

// SetReplication enables 802.1CB talker-side replication for flow id:
// every injected frame is duplicated onto a member stream tagged
// altVID, which the network forwards along a disjoint path.
func (n *NIC) SetReplication(id uint32, altVID uint16) {
	if n.replicate == nil {
		n.replicate = make(map[uint32]uint16)
	}
	n.replicate[id] = altVID
}

// SetRecovery installs the listener-side sequence-recovery table:
// arriving frames of registered streams pass the 802.1CB vector
// recovery function; eliminated duplicates and rogues are reported to
// the collector as such, never as deliveries.
func (n *NIC) SetRecovery(t *frer.Table) { n.recovery = t }

// Recovery returns the listener's sequence-recovery table (nil when
// FRER is not in use).
func (n *NIC) Recovery() *frer.Table { return n.recovery }

// Replicas returns how many member-stream duplicates this talker
// emitted.
func (n *NIC) Replicas() uint64 { return n.replicas }

// Receive implements netdev.Receiver: arriving frames pass sequence
// recovery (when configured) and then go to the analyzer collector.
func (n *NIC) Receive(f *ethernet.Frame, on *netdev.Ifc) {
	if n.recovery != nil {
		switch n.recovery.Accept(f.FlowID, f.Seq) {
		case frer.Duplicate:
			if n.Collector != nil {
				n.Collector.NoteDuplicate(f.FlowID)
			}
			return
		case frer.Rogue:
			if n.Collector != nil {
				n.Collector.NoteRogue(f.FlowID)
			}
			return
		}
	}
	if n.Collector != nil {
		n.Collector.Record(f, n.engine.Now())
	}
}

// classIndex orders FIFOs: 0 = TS (highest), 1 = RC, 2 = BE.
func classIndex(c ethernet.Class) int {
	switch c {
	case ethernet.ClassTS:
		return 0
	case ethernet.ClassRC:
		return 1
	default:
		return 2
	}
}

// drain starts the next transmission if the MAC is idle, strict
// priority across the class FIFOs. It is also the MAC's completion
// handler: the interface clears its in-flight frame before calling it.
func (n *NIC) drain() {
	if n.ifc.InFlight() != nil {
		return
	}
	for ci := range n.fifos {
		q := &n.fifos[ci]
		if len(q.frames) == 0 {
			continue
		}
		f := q.frames[q.head]
		q.frames[q.head] = nil
		if q.head++; q.head == len(q.frames) {
			q.frames, q.head = q.frames[:0], 0
		}
		// Stamp the tester timestamp when the frame actually hits the
		// wire: queueing inside the tester is not network latency. The
		// attribution span anchors at the same instant so its buckets
		// sum exactly to the analyzer's latency.
		f.SentAt = n.engine.Now()
		f.Span.Begin(f.SentAt)
		n.ifc.Transmit(f, n.drainFn)
		return
	}
}

// zeros backs every injected frame's payload: the tester sends zero
// bytes, and payloads are immutable in flight (see the ethernet payload
// ownership contract), so all frames share them.
var zeros [ethernet.MaxFrameBytes]byte

// inject enqueues one frame of spec into the MAC.
func (n *NIC) inject(spec *flows.Spec) {
	seq := n.seq[spec.ID]
	n.seq[spec.ID] = seq + 1
	n.sent[spec.ID]++
	size := ethernet.PayloadForWireSize(spec.WireSize)
	f := &ethernet.Frame{
		Dst:       ethernet.HostMAC(spec.DstHost),
		Src:       ethernet.HostMAC(spec.SrcHost),
		VID:       spec.VID,
		PCP:       spec.PCP,
		EtherType: ethernet.TypeTSN,
		Payload:   zeros[:size:size], // capacity clipped: an append cannot reach the shared array
		FlowID:    spec.ID,
		Seq:       seq,
		Class:     spec.Class,
	}
	q := &n.fifos[classIndex(spec.Class)]
	q.frames = append(q.frames, f)
	// 802.1CB replication: the member stream is the same frame (same
	// FlowID, same sequence number) tagged with the alternate VID, so
	// the network's forwarding tables steer it onto the disjoint path.
	// It serializes back-to-back behind the primary and is NOT counted
	// in sent: the analyzer's loss accounting is per logical frame.
	if altVID, ok := n.replicate[spec.ID]; ok {
		r := f.CloneHeader() // re-tags the VID, a header field; payload is shared
		r.VID = altVID
		q.frames = append(q.frames, r)
		n.replicas++
	}
	n.drain()
}

// StartFlow schedules spec's generation. TS flows fire at
// Offset + k·Period; RC/BE flows are paced at their rate starting at
// Offset.
func (n *NIC) StartFlow(spec *flows.Spec) {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if spec.SrcHost != n.HostID {
		panic(fmt.Sprintf("tsnnic: flow %d src host %d started on NIC %d",
			spec.ID, spec.SrcHost, n.HostID))
	}
	interval := spec.FrameInterval()
	burst := spec.BurstFrames()
	var tick func(e *sim.Engine)
	tick = func(e *sim.Engine) {
		if n.stopAt > 0 && e.Now() >= n.stopAt {
			return
		}
		for i := 0; i < burst; i++ {
			n.inject(spec)
		}
		e.After(interval, "flow-tick", tick)
	}
	n.engine.At(n.engine.Now()+spec.Offset, "flow-start", tick)
}
