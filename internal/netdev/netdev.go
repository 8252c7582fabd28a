// Package netdev is the physical layer of the testbed: full-duplex
// point-to-point Ethernet interfaces joined by links with a line rate
// and a propagation delay. Switches and TSNNic endpoints implement
// Receiver and exchange frames through Ifc values, with store-and-
// forward delivery and wire occupancy that includes preamble and
// inter-frame gap.
package netdev

import (
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// Receiver consumes frames arriving on an interface it owns.
type Receiver interface {
	Receive(f *ethernet.Frame, on *Ifc)
}

// Ifc is one direction-agnostic Ethernet interface. Transmission is
// exclusive: the owner must wait for the completion callback before
// transmitting again, as a MAC would.
type Ifc struct {
	Name   string
	engine *sim.Engine
	owner  Receiver
	rate   ethernet.Rate
	prop   sim.Time
	peer   *Ifc

	// The transmission occupying the wire. Serialization is exclusive,
	// so one set of fields (not a handle per transmit) describes it;
	// txFrame is nil when the MAC is idle.
	txFrame           *ethernet.Frame
	txWireBytes       int // bytes still to serialize when this (fragment) began
	txStarted         sim.Time
	txDeliver, txDone sim.EventRef // the pending arrival and completion
	txOnDone          func()
	// inbound holds the frames launched toward this interface that
	// have not arrived yet, oldest first; every arrival event pops one.
	inbound wireFIFO
	pool    *ethernet.Pool // takes back what that wire loses; nil: the collector does
	// Handlers bound once at construction, so scheduling an arrival or
	// a completion allocates nothing.
	arriveFn, doneFn sim.Handler

	busyUntil sim.Time
	// sniff, when set, observes every frame delivered to this
	// interface (a mirror-port tap), ahead of the owner.
	sniff func(*ethernet.Frame, sim.Time)

	// deliverPrio is this interface's stable global index, stamped as
	// the same-instant tie-break priority on every delivery event
	// arriving here. Two deliveries to one interface can never tie (the
	// wire serializes them), so at any instant the priority totally
	// orders all deliveries — by interface identity rather than by
	// scheduling order, which is what lets a partitioned run execute
	// same-instant deliveries in exactly the serial order. Zero (unset)
	// degrades to plain FIFO tie-breaking.
	deliverPrio uint64
	// remotePost, when set, reroutes this interface's deliveries across
	// a partition boundary: instead of scheduling the delivery on the
	// sender's engine, the transmit path hands (frame, arrival instant,
	// final-fragment wire time) to the hook, which mails it to the
	// receiving partition for ScheduleRemoteDelivery. Cut links carry no
	// fault injection or impairments (the partitioned testbed rejects
	// them), so the delivery-time fault checks are skipped on this path.
	remotePost func(f *ethernet.Frame, at, wire sim.Time)

	// Link state. down is symmetric across the cable (both ends are
	// flipped together); epoch increments on every down transition so
	// frames serialized before an outage are dropped at delivery time
	// even if the link has flapped back up by then.
	down  bool
	epoch uint64

	// Egress impairments for the i→peer direction, evaluated at
	// delivery time: lossProb drops the frame outright, corruptProb
	// models a bit error the receiver discards as an FCS failure.
	lossProb    float64
	corruptProb float64
	impairRng   *sim.Rand

	mLinkDown metrics.Counter
	mLoss     metrics.Counter
	mCorrupt  metrics.Counter
}

// NewIfc creates an interface owned by owner at the given line rate.
func NewIfc(engine *sim.Engine, name string, owner Receiver, rate ethernet.Rate) *Ifc {
	if rate <= 0 {
		panic("netdev: non-positive rate")
	}
	i := &Ifc{Name: name, engine: engine, owner: owner, rate: rate}
	i.arriveFn, i.doneFn = i.arrive, i.done
	i.inbound.ring = i.inbound.first[:]
	return i
}

// CableDelay is the propagation delay of every cable the testbed lays
// (100 ns ≈ 20 m), and the one schedule synthesis assumes.
const CableDelay = 100 * sim.Nanosecond

// Connect joins a and b with a cable of the given propagation delay.
func Connect(a, b *Ifc, prop sim.Time) {
	if a.peer != nil || b.peer != nil {
		panic(fmt.Sprintf("netdev: %s or %s already connected", a.Name, b.Name))
	}
	if prop < 0 {
		panic("netdev: negative propagation delay")
	}
	a.peer, b.peer = b, a
	a.prop, b.prop = prop, prop
}

// SetPool gives the interface its engine's frame pool: a frame lost on
// the wire toward it (link down or flapped, loss, corruption) ends there.
func (i *Ifc) SetPool(p *ethernet.Pool) { i.pool = p }

// Rate returns the line rate.
func (i *Ifc) Rate() ethernet.Rate { return i.rate }

// SetLink changes the administrative/physical state of the cable this
// interface is attached to. Both ends change together, as with a real
// cable pull. Taking the link down does NOT interrupt the local MAC:
// an in-flight transmission keeps occupying the wire and its onDone
// completion still fires exactly once at the normal time — only the
// delivery to the peer is suppressed. This guarantees a fault can
// never strand a busy interface or double-fire a completion.
//
// Idempotent: setting the current state again is a no-op.
func (i *Ifc) SetLink(up bool) {
	if i.peer == nil {
		panic(fmt.Sprintf("netdev: %s SetLink with no cable", i.Name))
	}
	if up != i.down { // already in the requested state
		return
	}
	i.down, i.peer.down = !up, !up
	if !up {
		i.epoch++
		i.peer.epoch++
	}
}

// SetImpairment configures probabilistic loss and bit corruption for
// frames transmitted from this interface toward its peer. Corrupted
// frames are discarded by the receiver (FCS check), so both impairments
// surface as drops; they are counted separately. rng must be non-nil
// when either probability is positive, and should be dedicated to this
// interface so fault scenarios stay deterministic.
func (i *Ifc) SetImpairment(lossProb, corruptProb float64, rng *sim.Rand) {
	if (lossProb > 0 || corruptProb > 0) && rng == nil {
		panic(fmt.Sprintf("netdev: %s impairment without rng", i.Name))
	}
	if lossProb < 0 || lossProb > 1 || corruptProb < 0 || corruptProb > 1 {
		panic(fmt.Sprintf("netdev: %s impairment probability out of [0,1]", i.Name))
	}
	i.lossProb, i.corruptProb, i.impairRng = lossProb, corruptProb, rng
}

// ClearImpairment removes any configured loss/corruption.
func (i *Ifc) ClearImpairment() { i.lossProb, i.corruptProb, i.impairRng = 0, 0, nil }

// InstrumentLink binds per-reason drop counters for frames lost on the
// i→peer direction of the link (link-down, probabilistic loss, bit
// corruption). Zero-value counters are no-ops.
func (i *Ifc) InstrumentLink(linkDown, loss, corrupt metrics.Counter) {
	i.mLinkDown, i.mLoss, i.mCorrupt = linkDown, loss, corrupt
}

// Peer returns the interface at the other end of the cable.
func (i *Ifc) Peer() *Ifc { return i.peer }

// SetDeliverPrio assigns this interface's stable global index, used as
// the same-instant tie-break priority for deliveries arriving here.
// The testbed assigns indexes in build order (switch ports first, then
// NICs in sorted host order, 1-based) so the numbering is identical in
// serial and partitioned builds.
func (i *Ifc) SetDeliverPrio(p uint64) { i.deliverPrio = p }

// SetRemotePost installs the cut-link hook: deliveries transmitted
// from this interface are handed to fn instead of being scheduled on
// the local engine. The receiving partition replays them through the
// peer's ScheduleRemoteDelivery. Pass nil to restore local delivery.
func (i *Ifc) SetRemotePost(fn func(f *ethernet.Frame, at, wire sim.Time)) { i.remotePost = fn }

// ScheduleRemoteDelivery schedules a frame arriving from the peer
// across a partition boundary onto this (receiving) interface's
// engine, at the precomputed arrival instant with this interface's
// delivery priority — byte-for-byte the same dispatch the serial
// engine would have performed. wire is the final fragment's
// serialization time, needed to close the latency-attribution hop.
// The mailbox drains one direction in launch order, so the frame joins
// the same inbound FIFO a local launch would. Partitioned runs carry
// neither faults nor impairments (validated at build), so the arrival
// checks never fire on a cut link; the launch epoch is this end's own,
// which the cable keeps equal to the sender's.
func (i *Ifc) ScheduleRemoteDelivery(f *ethernet.Frame, at, wire sim.Time) {
	i.inbound.push(inFlight{frame: f, epoch: i.epoch, wire: wire})
	i.engine.AtPrio(at, i.deliverPrio, "deliver", i.arriveFn)
}

// Busy reports whether a transmission is occupying the wire now.
func (i *Ifc) Busy() bool { return i.engine.Now() < i.busyUntil }

// FreeAt returns when the current transmission (if any) releases the
// wire.
func (i *Ifc) FreeAt() sim.Time { return i.busyUntil }

// Transmit serializes f onto the wire starting now. onDone (may be nil)
// fires when the interface is free again — after the frame plus
// inter-frame gap. The peer receives the frame store-and-forward: after
// full serialization plus propagation.
//
// Transmit transfers ownership: f belongs to the wire from this call
// until the peer's Receive gets that same pointer (or a successful
// Abort hands it back). The caller must not read or write f after the
// call; a sender that needs the frame again clones it first.
//
// Transmitting while Busy panics: the MAC layer above must serialize.
func (i *Ifc) Transmit(f *ethernet.Frame, onDone func()) {
	i.Resume(f, f.WireBytes(), onDone)
}

// Resume continues an aborted frame: it serializes the wireBytes still
// to go (a fragment, below the frame's full size) and delivers the full
// original frame when they complete. Like Transmit, it hands f to the
// wire.
func (i *Ifc) Resume(f *ethernet.Frame, wireBytes int, onDone func()) {
	if i.peer == nil {
		panic(fmt.Sprintf("netdev: %s transmit with no cable", i.Name))
	}
	now := i.engine.Now()
	if now < i.busyUntil {
		panic(fmt.Sprintf("netdev: %s transmit while busy until %v", i.Name, i.busyUntil))
	}
	wire := ethernet.TxTime(wireBytes, i.rate)
	occupancy := ethernet.TxTime(wireBytes+ethernet.OverheadBytes, i.rate)
	i.busyUntil = now + occupancy

	i.txFrame, i.txWireBytes, i.txStarted, i.txOnDone = f, wireBytes, now, onDone
	if i.remotePost != nil {
		// Cut link: the receiving partition schedules the delivery on
		// its own engine. No local arrival event exists, so Abort()
		// cannot cancel it — the partitioned testbed rejects
		// preemption-enabled designs for exactly this reason.
		i.remotePost(f, now+wire+i.prop, wire)
		i.txDeliver = sim.EventRef{}
	} else {
		i.peer.inbound.push(inFlight{frame: f, epoch: i.epoch, wire: wire})
		i.txDeliver = i.engine.AtPrio(now+wire+i.prop, i.peer.deliverPrio, "deliver", i.peer.arriveFn)
	}
	i.txDone = i.engine.After(occupancy, "txdone", i.doneFn)
}

// InFlight reports whether the MAC holds a transmission: true until its
// completion event has run, whereas Busy is already false at that
// instant. It does not say which frame: on a short cable the frame
// arrives, and may be recycled, before the sender's completion.
func (i *Ifc) InFlight() bool { return i.txFrame != nil }

// done fires when the wire is free again (frame plus inter-frame gap).
func (i *Ifc) done(*sim.Engine) {
	i.txFrame = nil
	if i.txOnDone != nil {
		i.txOnDone()
	}
}

// inFlight is one frame between launch and arrival.
type inFlight struct {
	frame *ethernet.Frame
	epoch uint64   // the link epoch at launch
	wire  sim.Time // the final fragment's serialization time
}

// wireFIFO is the queue of frames in flight in one direction of a
// cable. A FIFO suffices because arrivals on one wire are strictly
// ordered: a frame arrives at start + wire + prop, and the next start
// is at least one occupancy (wire + preamble + gap) later. Its depth is
// 1 on a short cable and grows with prop/occupancy on a long or fast
// one, so it is a ring (of power-of-two length), not a field. Its first
// ring is the one slot inside the interface: enough while a frame's
// occupancy outlasts the cable's propagation (CableDelay at 1 Gb/s), and
// push grows it the first time a longer or faster cable holds two.
type wireFIFO struct {
	ring    []inFlight
	head, n int
	first   [1]inFlight
}

func (q *wireFIFO) push(x inFlight) {
	if q.n == len(q.ring) {
		grown := make([]inFlight, max(2*q.n, 2))
		for k := 0; k < q.n; k++ {
			grown[k] = q.ring[(q.head+k)&(q.n-1)]
		}
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = x
	q.n++
}

// pop removes the oldest entry, dropTail the newest; both clear the
// slot so the ring never pins a frame that left the wire.
func (q *wireFIFO) pop() inFlight {
	x := q.ring[q.head]
	q.ring[q.head] = inFlight{}
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return x
}

func (q *wireFIFO) dropTail() {
	q.n--
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = inFlight{}
}

// arrive is the one delivery handler: it runs on the receiving
// interface at each arrival instant and takes the oldest in-flight
// frame off the wire. Link faults and impairments of the sending
// direction are applied here, at delivery time, so the transmitting
// MAC's timing is never perturbed.
func (i *Ifc) arrive(e *sim.Engine) {
	in, tx := i.inbound.pop(), i.peer
	// The epoch check catches a down/up flap between serialization and
	// arrival: a frame launched before (or during) an outage is lost
	// even if the link is back up now.
	var lost *metrics.Counter
	switch {
	case tx.down || tx.epoch != in.epoch:
		lost = &tx.mLinkDown
	case tx.lossProb > 0 && tx.impairRng.Float64() < tx.lossProb:
		lost = &tx.mLoss
	case tx.corruptProb > 0 && tx.impairRng.Float64() < tx.corruptProb:
		// Bit error on the wire: the receiver's FCS check fails
		// and the MAC discards the frame silently.
		lost = &tx.mCorrupt
	}
	if lost != nil {
		lost.Inc()
		if i.pool != nil {
			i.pool.Put(in.frame)
		}
		return
	}
	// Close the latency-attribution hop: propagation plus this
	// (final) fragment's serialization; the remainder since the last
	// boundary books as residence at the transmitting node.
	in.frame.Span.OnDeliver(e.Now(), i.prop, in.wire)
	if i.sniff != nil {
		i.sniff(in.frame, e.Now())
	}
	i.owner.Receive(in.frame, i)
}

// fragOverheadBytes is the extra on-wire cost of each additional
// 802.3br fragment: renewed preamble/SFD, fragment header and mCRC.
const fragOverheadBytes = 24

// minFragmentBytes is the smallest legal non-final fragment.
const minFragmentBytes = 64

// Abort interrupts the transmission at the current instant (802.3br
// preemption): the partial fragment's wire time is already spent, the
// delivery is suppressed — the frame comes off the wire and back to the
// caller — and the remaining bytes (plus the per-fragment overhead) are
// returned for a later Resume. ok is false when the MAC is idle or the
// frame is too far along (or too early) to preempt legally; the wire
// then keeps the frame.
func (i *Ifc) Abort() (f *ethernet.Frame, remainingBytes int, ok bool) {
	if i.txFrame == nil {
		return nil, 0, false
	}
	now := i.engine.Now()
	elapsed := now - i.txStarted
	sentBytes := int(int64(elapsed) * int64(i.rate) / (8 * int64(sim.Second)))
	remaining := i.txWireBytes - sentBytes
	if sentBytes < minFragmentBytes || remaining < minFragmentBytes {
		return nil, 0, false
	}
	if !i.engine.Cancel(i.txDeliver) || !i.engine.Cancel(i.txDone) {
		return nil, 0, false
	}
	// The canceled arrival was the newest launch on this wire.
	i.peer.inbound.dropTail()
	f, i.txFrame = i.txFrame, nil
	// The wire frees after the fragment's mCRC + IFG.
	i.busyUntil = now + ethernet.TxTime(ethernet.OverheadBytes, i.rate)
	return f, remaining + fragOverheadBytes, true
}

// SetSniffer installs a receive-side tap: fn observes every frame
// delivered to this interface, before the owner consumes it (an end
// station recycles what it receives). fn must not keep the pointer.
func (i *Ifc) SetSniffer(fn func(*ethernet.Frame, sim.Time)) { i.sniff = fn }
