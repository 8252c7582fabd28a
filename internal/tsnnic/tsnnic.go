// Package tsnnic models the paper's network tester: a Zynq-based NIC
// ("TSNNic") that injects user-defined TS/RC/BE flows into the TSN
// network and, at the receive side, hands frames to the analyzer.
//
// Each NIC has a strict-priority MAC with one FIFO per traffic class,
// so a periodic TS injection is never stuck behind a queued background
// frame for more than one MTU time. TS flows fire at offset + k·period
// (the offset comes from the ITP planner); RC and BE flows are paced at
// their configured rate.
//
// A NIC keeps one pending engine event however many flows it generates:
// the flows' timers sit in its own min-heap, the engine event is armed
// for the head, and each timer carries the order number a per-flow
// engine timer would have been stamped with, so the engine executes the
// same (instant, order) sequence — DESIGN §11, "One timer per NIC".
//
// A NIC is where a frame ends unless a switch dropped it: Receive returns
// every frame to the engine's ethernet.Pool, from which inject draws (a
// switch returns what it drops there too), and a flow's generator state
// is a row admitted before it starts, its class FIFO backed at the same
// time, so steady traffic allocates neither per frame nor per flow
// (DESIGN §11, "Copy-light frames" and "What a run allocates").
package tsnnic

import (
	"fmt"
	"slices"

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
	// pool gives inject its frames and takes back what Receive consumed:
	// the engine's once SetPool has run, the NIC's own until then.
	pool *ethernet.Pool
	own  ethernet.Pool

	// Strict-priority MAC FIFOs indexed by class (TS > RC > BE). A FIFO
	// holds its frames at [head:]; popping clears the slot and an
	// emptied FIFO rewinds, so the backing array is reused and never
	// pins a transmitted frame. Admit backs a class's FIFO with room for
	// one tick of its largest flow; only frames that meet in the FIFO
	// beyond that grow it.
	fifos [3]struct {
		frames []*ethernet.Frame
		head   int
	}
	// drainFn is drain bound once, for Transmit's completion callback.
	drainFn func()

	// Collector receives frames arriving at this NIC; shared collectors
	// across NICs are allowed (one "analyzer" box).
	Collector *analyzer.Collector

	// flows are the generator rows, one per admitted flow. sched is the
	// injection schedule: a binary min-heap of the started flows' timers
	// on (at, order), with room for every row. armed is the one engine
	// event, set for sched[0]; fireFn is fire bound once.
	flows  []flow
	sched  []timer
	armed  sim.EventRef
	fireFn sim.Handler

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
	}
	n.pool = &n.own
	n.ifc = netdev.NewIfc(engine, fmt.Sprintf("nic%d", hostID), n, rate)
	n.ifc.SetPool(n.pool)
	n.drainFn = n.drain
	n.fireFn = n.fire
	return n
}

// Ifc returns the NIC's physical interface for cabling.
func (n *NIC) Ifc() *netdev.Ifc { return n.ifc }

// SetStopTime bounds flow generation: no frame is enqueued at or after
// t. Zero means unbounded.
func (n *NIC) SetStopTime(t sim.Time) { n.stopAt = t }

// Sent returns a snapshot of the per-flow transmit counts.
func (n *NIC) Sent() map[uint32]uint64 {
	out := make(map[uint32]uint64, len(n.flows))
	for i := range n.flows {
		if fl := &n.flows[i]; fl.sent > 0 {
			out[fl.spec.ID] += fl.sent
		}
	}
	return out
}

// SetPool replaces the NIC's own pool by p, its engine's: what a
// talker injects comes back at a listener (another NIC) or a wire.
func (n *NIC) SetPool(p *ethernet.Pool) { n.pool = p; n.ifc.SetPool(p) }

// SetRecovery installs the listener-side sequence-recovery table:
// arriving frames of registered streams pass the 802.1CB vector
// recovery function; eliminated duplicates and rogues are reported to
// the collector as such, never as deliveries.
func (n *NIC) SetRecovery(t *frer.Table) { n.recovery = t }

// Receive implements netdev.Receiver: arriving frames pass sequence
// recovery (when configured) and then go to the analyzer collector. A
// frame ends here: however it is accounted, it returns to the pool.
func (n *NIC) Receive(f *ethernet.Frame, on *netdev.Ifc) {
	verdict := frer.Pass
	if n.recovery != nil {
		verdict = n.recovery.Accept(f.FlowID, f.Seq)
	}
	switch {
	case n.Collector == nil:
	case verdict == frer.Duplicate:
		n.Collector.NoteDuplicate(f)
	case verdict == frer.Rogue:
		n.Collector.NoteRogue(f)
	default:
		n.Collector.Record(f, n.engine.Now())
	}
	n.pool.Put(f)
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
	if n.ifc.InFlight() {
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

// flow is one generator row: everything a tick needs, resolved at
// admission, and its counters. A FRER flow counts each sequence number
// once in sent: the member-stream replica is redundancy, not offered load.
type flow struct {
	spec     *flows.Spec
	interval sim.Time
	burst    int32 // frames per tick; int32 and this order keep a row at 56 B
	payload  int32 // bytes
	dst, src ethernet.MAC
	row      uint32 // stamped into every frame as ethernet.Frame.Row
	seq      uint32
	started  bool // false until the start instant has fired
	sent     uint64
}

// timer is one schedule entry for row f; order is the engine's order
// number, taken where a per-flow engine timer would have been scheduled.
type timer struct {
	at    sim.Time
	order uint64
	f     int
}

func (a *timer) before(b *timer) bool {
	return a.at < b.at || a.at == b.at && a.order < b.order
}

// inject enqueues one frame of f into the MAC.
func (n *NIC) inject(f *flow) {
	spec := f.spec
	fr := n.pool.Get()
	*fr = ethernet.Frame{
		Dst:       f.dst,
		Src:       f.src,
		VID:       spec.VID,
		PCP:       spec.PCP,
		EtherType: ethernet.TypeTSN,
		Payload:   zeros[:f.payload:f.payload], // capacity clipped: an append cannot reach the shared array
		FlowID:    spec.ID,
		Seq:       f.seq,
		Class:     spec.Class,
		Row:       f.row,
	}
	f.seq++
	f.sent++
	q := &n.fifos[classIndex(spec.Class)]
	q.frames = append(q.frames, fr)
	// 802.1CB replication: the member stream is the same frame (same
	// FlowID, same sequence number) tagged with the alternate VID, so
	// the network's forwarding tables steer it onto the disjoint path.
	// It serializes back-to-back behind the primary and is NOT counted
	// in sent: the analyzer's loss accounting is per logical frame.
	if spec.FRER {
		r := n.pool.Get()
		*r = *fr // payload is shared; the VID is a header field
		r.VID = spec.AltVID
		q.frames = append(q.frames, r)
	}
	n.drain()
}

// Reserve makes room for k more rows and their timers, so admitting and
// starting k flows allocates nothing more.
func (n *NIC) Reserve(k int) {
	n.flows = slices.Grow(n.flows, k)
	n.sched = slices.Grow(n.sched, max(0, len(n.flows)+k-len(n.sched)))
}

// Admit gives spec a generator row on this NIC and returns it for Start.
// Every frame of the flow carries row as its ethernet.Frame.Row: the
// listener's row for the flow plus one, or 0 when none was assigned. A
// FRER spec is replicated onto its AltVID member stream.
func (n *NIC) Admit(spec *flows.Spec, row uint32) int {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if spec.SrcHost != n.HostID {
		panic(fmt.Sprintf("tsnnic: flow %d src host %d started on NIC %d",
			spec.ID, spec.SrcHost, n.HostID))
	}
	tick := spec.BurstFrames()
	if spec.FRER {
		tick *= 2 // the member-stream replica queues behind each frame
	}
	q := &n.fifos[classIndex(spec.Class)]
	q.frames = slices.Grow(q.frames, tick)
	n.flows = append(n.flows, flow{
		spec:     spec,
		interval: spec.FrameInterval(),
		burst:    int32(spec.BurstFrames()),
		payload:  int32(ethernet.PayloadForWireSize(spec.WireSize)),
		dst:      ethernet.HostMAC(spec.DstHost),
		src:      ethernet.HostMAC(spec.SrcHost),
		row:      row,
	})
	return len(n.flows) - 1
}

// Start registers admitted row f to start at the absolute instant at,
// as StartFlow called from an engine event at that instant would.
func (n *NIC) Start(f int, at sim.Time) { n.add(f, at, false) }

// StartFlow admits spec without a listener row and starts its generation
// now: TS flows fire at Offset + k·Period; RC/BE flows are paced at
// their rate starting at Offset.
func (n *NIC) StartFlow(spec *flows.Spec) {
	n.add(n.Admit(spec, 0), n.engine.Now()+spec.Offset, true)
}

// add puts row f's timer on the schedule at `at` under a fresh order
// number; a new head moves the engine event.
func (n *NIC) add(f int, at sim.Time, started bool) {
	n.flows[f].started = started
	t := timer{at: at, order: n.engine.TakeSeq(), f: f}
	n.sched = append(n.sched, t)
	i := len(n.sched) - 1
	for ; i > 0 && t.before(&n.sched[(i-1)/2]); i = (i - 1) / 2 {
		n.sched[i] = n.sched[(i-1)/2]
	}
	n.sched[i] = t
	if i == 0 {
		n.engine.Cancel(n.armed)
		n.arm()
	}
}

// arm schedules the engine event for the head under the head's number.
func (n *NIC) arm() {
	if len(n.sched) > 0 {
		n.armed = n.engine.AtSeq(n.sched[0].at, n.sched[0].order, "nic-timer", n.fireFn)
	}
}

// fire runs the head timer. A flow's first firing is its start: nothing
// is injected and the timer moves to now + Offset. Later firings inject
// one burst and move one interval on, or retire the timer once
// generation has stopped. The new number is taken after the injections
// (after Transmit scheduled txdone and the delivery), where a
// self-rescheduling timer took it.
func (n *NIC) fire(e *sim.Engine) {
	t, now := n.sched[0], e.Now()
	f := &n.flows[t.f]
	switch {
	case !f.started:
		f.started = true
		t.at, t.order = now+f.spec.Offset, e.TakeSeq()
	case n.stopAt > 0 && now >= n.stopAt:
		last := len(n.sched) - 1
		t, n.sched[last] = n.sched[last], timer{}
		n.sched = n.sched[:last]
	default:
		for range f.burst {
			n.inject(f)
		}
		t.at, t.order = now+f.interval, e.TakeSeq()
	}
	// Sift t down from the root (a retired head's place goes to the last timer).
	q, i := n.sched, 0
	for c := 1; c < len(q); c = 2*i + 1 {
		if c+1 < len(q) && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&t) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if len(q) > 0 {
		q[i] = t
	}
	n.arm()
}
