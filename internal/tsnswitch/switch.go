package tsnswitch

import (
	"fmt"
	"math/bits"

	"github.com/tsnbuilder/tsnbuilder/internal/buffering"
	"github.com/tsnbuilder/tsnbuilder/internal/clock"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/filter"
	"github.com/tsnbuilder/tsnbuilder/internal/forward"
	"github.com/tsnbuilder/tsnbuilder/internal/gate"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/netdev"
	"github.com/tsnbuilder/tsnbuilder/internal/shaper"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/trace"
)

// Switch is one TSN switch instance.
type Switch struct {
	cfg    Config
	engine *sim.Engine
	// Clock is the local synchronized clock driving Gate Ctrl. It
	// defaults to a perfect clock; the testbed replaces it with the
	// gPTP-disciplined one.
	Clock *clock.Clock

	fwd   *forward.Engine
	flt   *filter.Engine
	ports []*Port

	// frames takes back every frame the switch stops carrying — a drop,
	// the original of a multicast replication, a loss on a port's wire —
	// and gives the replicas: the engine's pool once SetPool has run.
	frames *ethernet.Pool
	own    ethernet.Pool

	// Flight, when non-nil, receives per-packet dataplane events into
	// the ring-buffer flight recorder.
	Flight *trace.Flight

	// stats holds the rx, tx and drop counters' cells.
	stats Stats
	// degrade is the graceful-degradation level the watchdog drives
	// (and exports); enqueue sheds lower classes at admission while it
	// is raised.
	degrade DegradeLevel
	// Handles of the counts only telemetry reads, resolved once at
	// construction; the zero values are no-ops.
	metResidence metrics.Histogram
	metPreempt   metrics.Counter
}

// emit records a trace event into the flight recorder, if any.
func (sw *Switch) emit(kind trace.Kind, port, queue int, f *ethernet.Frame, detail string) {
	sw.Flight.Put(sw.engine.Now(), kind, sw.cfg.ID, port, queue, f.FlowID, f.Seq, detail)
}

// Port is one enabled TSN port with its exclusive queue set, buffer
// pool, gate tables and CBS bank (Fig. 4).
type Port struct {
	sw  *Switch
	id  int
	ifc *netdev.Ifc

	queues []buffering.Queue
	pool   *buffering.Pool
	// gates[dirIn] and gates[dirOut] are Gate Ctrl's two directions.
	gates [2]portGate
	bank  *shaper.Bank

	// metEnq has one admitted-frames counter per queue; always sized
	// len(queues) so the enqueue path indexes it unconditionally.
	metEnq []metrics.Counter

	// shapeBlockedAt[q] is the engine instant the egress scheduler first
	// found queue q blocked solely by CBS credit (gate open, frames
	// waiting); zero when not blocked. Consumed — and clamped against
	// the head frame's actual wait — when the queue next pops, to
	// attribute shaper hold time in the frame's latency span.
	shapeBlockedAt []sim.Time

	transmitting bool
	retryPending bool
	busy         gate.Mask // bit q set while queue q holds a frame
	// The in-flight transmission's queue and buffer slot, and a
	// preempted frame awaiting resumption (nil, or held).
	txQueue   int
	txBufSlot int
	suspended *suspendedTx
	// Handlers bound once in New, so starting a transmission or arming
	// a retry allocates nothing; with preemption enabled, New also makes
	// the suspended-frame record and the post-cut gap's handler.
	txDoneFn func()
	retryFn  sim.Handler
	held     *suspendedTx
	gapFn    sim.Handler
}

// Gate directions; dirNames are their "dir" label values.
const dirIn, dirOut = 0, 1

var dirNames = [2]string{"in", "out"}

// portGate is one direction of a port's Gate Ctrl: the installed list
// and — lists being immutable and freely shared — its cursor and the
// rollover accounting, which belong to the (port, direction): rollovers
// are counted up to seen, the slot index at the last observation's
// local time seenAt.
type portGate struct {
	*gate.GCL
	// cur is the entry occurrence at the last local time looked up;
	// the list is looked up again only once time leaves it, forward or
	// backward (a clock step). The empty cursor covers no instant.
	cur    gate.Interval
	roll   metrics.Counter
	seen   int64
	seenAt sim.Time
}

// install replaces the list, empties the cursor and re-anchors the
// count on the new grid: at the last observation, or at the list's base
// when that is later. So a list installed at its own base
// (construction, rebase_slot) counts from that instant; one whose grid
// is already running (a gate-close replacement, a rollback's restored
// lists) continues the count.
func (d *portGate) install(g *gate.GCL) {
	d.GCL, d.cur, d.seen = g, gate.Interval{}, g.SlotIndex(max(d.seenAt, g.Base()))
}

// at returns the entry occurrence covering local time t.
func (d *portGate) at(t sim.Time) *gate.Interval {
	if t < d.cur.From || t >= d.cur.To {
		d.cur = d.IntervalAt(t)
	}
	return &d.cur
}

// observe counts the rollovers up to local time t — forward progress
// only: a clock step backwards re-anchors without decrementing — and
// returns the mask in effect then.
func (d *portGate) observe(t sim.Time) gate.Mask {
	c := d.at(t)
	if d.roll.Active() {
		if c.Slot > d.seen {
			d.roll.Add(uint64(c.Slot - d.seen))
		}
		d.seen, d.seenAt = c.Slot, t
	}
	return c.Mask
}

// TimeToBoundary is the list's, answered from the cursor.
func (d *portGate) TimeToBoundary(t sim.Time) sim.Time { return d.at(t).To - t }

// suspendedTx is a preempted frame: its descriptor plus the bytes (and
// fragment overhead) still to serialize.
type suspendedTx struct {
	desc      buffering.Descriptor
	queue     int
	remaining int
}

// New builds a switch from cfg on engine. Panics on invalid config
// (construction is generator output; a bad config is a programming
// error upstream).
func New(engine *sim.Engine, cfg Config) *Switch {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sw := &Switch{
		cfg:    cfg,
		engine: engine,
		Clock:  clock.New(0, 0),
		fwd:    forward.New(cfg.UnicastSize, cfg.MulticastSize),
		flt:    filter.New(cfg.ClassSize, cfg.MeterSize, cfg.QueuesPerPort),
	}
	sw.frames = &sw.own
	// SMS mode: one pool shared by every port; default: exclusive
	// per-port pools (Fig. 4).
	var shared *buffering.Pool
	if cfg.SharedBufferNum > 0 {
		shared = buffering.NewPool(cfg.SharedBufferNum)
	}
	in, out := cfg.CQF.Pair(cfg.SlotSize, cfg.TSQueueA, cfg.TSQueueB)
	// Per-port state comes in one array per kind for the whole switch;
	// each port's queue-indexed slices are carved from them.
	nq := cfg.QueuesPerPort
	ports := make([]Port, cfg.Ports)
	queues := buffering.NewQueues(cfg.Ports*nq, cfg.QueueDepth)
	metEnq := make([]metrics.Counter, cfg.Ports*nq)
	blocked := make([]sim.Time, cfg.Ports*nq)
	sw.ports = make([]*Port, cfg.Ports)
	for p := range ports {
		pool := shared
		if pool == nil {
			pool = buffering.NewPool(cfg.BuffersPerPort)
		}
		lo, hi := p*nq, (p+1)*nq
		port := &ports[p]
		*port = Port{
			sw:             sw,
			id:             p,
			pool:           pool,
			bank:           shaper.NewBank(cfg.CBSMapSize, cfg.CBSSize),
			queues:         queues[lo:hi:hi],
			metEnq:         metEnq[lo:hi:hi],
			shapeBlockedAt: blocked[lo:hi:hi],
		}
		port.gates[dirIn].install(in)
		port.gates[dirOut].install(out)
		port.ifc = netdev.NewIfc(engine, fmt.Sprintf("sw%d.p%d", cfg.ID, p), port, cfg.RateFor(p))
		port.ifc.SetPool(sw.frames)
		port.txDoneFn, port.retryFn = port.txDone, port.retry
		if cfg.EnablePreemption {
			port.held, port.gapFn = new(suspendedTx), port.gapEnd
		}
		sw.ports[p] = port
	}
	sw.resolveInstruments(cfg.Metrics)
	return sw
}

// ID returns the switch identifier.
func (sw *Switch) ID() int { return sw.cfg.ID }

// SetPool replaces the switch's own frame pool by p, its engine's: a
// frame the switch or its ports' wires end was drawn there by a NIC.
func (sw *Switch) SetPool(p *ethernet.Pool) {
	sw.frames = p
	for _, port := range sw.ports {
		port.ifc.SetPool(p)
	}
}

// Config returns the resource specification the switch was built with.
func (sw *Switch) Config() Config { return sw.cfg }

// Port returns port p's handle.
func (sw *Switch) Port(p int) *Port {
	if p < 0 || p >= len(sw.ports) {
		panic(fmt.Sprintf("tsnswitch: port %d out of range (%d ports)", p, len(sw.ports)))
	}
	return sw.ports[p]
}

// Ifc returns the physical interface of port p, for cabling.
func (sw *Switch) Ifc(p int) *netdev.Ifc { return sw.Port(p).ifc }

// Stats returns a copy of the dataplane counters.
func (sw *Switch) Stats() Stats { return sw.stats }

// Forward returns the Packet Switch stage for control-plane
// programming.
func (sw *Switch) Forward() *forward.Engine { return sw.fwd }

// Filter returns the Ingress Filter stage for control-plane
// programming.
func (sw *Switch) Filter() *filter.Engine { return sw.flt }

// Bank returns port p's CBS bank for control-plane programming.
func (sw *Switch) Bank(p int) *shaper.Bank { return sw.Port(p).bank }

// Pool returns the port's buffer pool (shared across ports in SMS
// mode) for occupancy inspection.
func (p *Port) Pool() *buffering.Pool { return p.pool }

// SetPortSchedules replaces port p's in/out gate control lists — how
// the control plane loads a synthesized 802.1Qbv list instead of the
// default CQF pair. The entry count must fit the configured gate table
// size; one list may serve both directions and any number of ports.
func (sw *Switch) SetPortSchedules(p int, in, out *gate.GCL) error {
	if in == nil || out == nil {
		return fmt.Errorf("tsnswitch: nil schedule")
	}
	if in.Size() > sw.cfg.GateSize || out.Size() > sw.cfg.GateSize {
		return fmt.Errorf("tsnswitch: schedule of %d/%d entries exceeds gate table size %d",
			in.Size(), out.Size(), sw.cfg.GateSize)
	}
	port := sw.Port(p)
	port.gates[dirIn].install(in)
	port.gates[dirOut].install(out)
	return nil
}

// PortSchedules returns port p's current in/out gate control lists, so
// a caller replacing them (reconfiguration, fault injection) can
// restore the originals afterwards.
func (sw *Switch) PortSchedules(p int) (in, out *gate.GCL) {
	port := sw.Port(p)
	return port.gates[dirIn].GCL, port.gates[dirOut].GCL
}

// localTime returns the Gate Ctrl time base: the synchronized local
// clock reading.
func (sw *Switch) localTime() sim.Time { return sw.Clock.Now(sw.engine.Now()) }

// Receive implements netdev.Receiver on Port: frames arriving on any
// port enter the shared ingress pipeline.
func (p *Port) Receive(f *ethernet.Frame, on *netdev.Ifc) {
	p.sw.ingress(f)
}

// drop counts and traces f as dropped for reason r at (port, queue),
// then returns it to the pool: the switch carries it no further.
func (sw *Switch) drop(r DropReason, port, queue int, f *ethernet.Frame) {
	sw.stats.Drops[r]++
	sw.emit(trace.KindDrop, port, queue, f, r.String())
	sw.frames.Put(f)
}

// ingress runs Packet Switch and Ingress Filter, then hands the frame
// to each output port's enqueue stage.
func (sw *Switch) ingress(f *ethernet.Frame) {
	sw.stats.RxFrames++
	sw.emit(trace.KindIngress, -1, -1, f, "")
	outPorts, ok := sw.fwd.Resolve(f)
	if !ok {
		sw.drop(DropNoRoute, -1, -1, f)
		return
	}
	v := sw.flt.Process(f, sw.engine.Now())
	if !v.Conform {
		sw.drop(DropMeter, -1, -1, f)
		return
	}
	multicast, forwarded := outPorts&(outPorts-1) != 0, false
	for ; outPorts != 0; outPorts &= outPorts - 1 {
		op := bits.TrailingZeros32(outPorts)
		if op >= len(sw.ports) {
			sw.stats.Drops[DropNoRoute]++
			continue
		}
		// Multicast replication copies the header only (the payload is
		// immutable in flight) into a pool frame; the common unicast
		// case moves the frame through untouched.
		g := f
		if multicast {
			g = sw.frames.Get()
			*g = *f
		} else {
			forwarded = true
		}
		sw.ports[op].enqueue(g, v.QueueID)
	}
	if !forwarded { // replicated, or its one port does not exist
		sw.frames.Put(f)
	}
}

// enqueue applies Gate Ctrl's ingress gate and the queue/buffer
// admission of Fig. 4, then kicks the egress scheduler.
func (p *Port) enqueue(f *ethernet.Frame, queueID int) {
	sw := p.sw
	local := sw.localTime()
	// CQF redirects TS frames to whichever pair queue is accepting
	// this slot; other queues are admitted iff their in-gate is open.
	qid := gate.EnqueueTarget(p.gates[dirIn].observe(local), queueID, sw.cfg.TSQueueA, sw.cfg.TSQueueB)
	if qid < 0 {
		sw.drop(DropGateClosed, p.id, queueID, f)
		return
	}
	// Graceful degradation: under buffer pressure shed BE (and, one
	// level up, RC) frames before they consume a buffer. TS frames are
	// never shed here.
	if sw.degrade > DegradeOff && f.Class != ethernet.ClassTS {
		if f.Class == ethernet.ClassBE || sw.degrade >= DegradeShedRC {
			sw.drop(DropDegraded, p.id, qid, f)
			return
		}
	}
	slot, ok := p.pool.Alloc(f.BufferBytes())
	if !ok {
		sw.drop(DropBufferFull, p.id, qid, f)
		return
	}
	if !p.queues[qid].Push(buffering.Descriptor{Frame: f, Slot: slot, EnqueuedAt: sw.engine.Now()}) {
		p.pool.Free(slot)
		sw.drop(DropQueueFull, p.id, qid, f)
		return
	}
	p.busy = p.busy.With(qid)
	p.metEnq[qid].Inc()
	sw.emit(trace.KindEnqueue, p.id, qid, f, "")
	p.maybePreempt(qid)
	p.tryTransmit()
}

// isExpress reports whether queue q carries express (TS) traffic.
func (p *Port) isExpress(q int) bool {
	return q == p.sw.cfg.TSQueueA || q == p.sw.cfg.TSQueueB
}

// maybePreempt interrupts an in-flight preemptable frame when an
// express frame just became ready (802.1Qbu). The express frame must
// actually be transmittable now — gate open and inside its guard
// window — or the preemption would idle the wire for nothing.
func (p *Port) maybePreempt(arrivedQueue int) {
	sw := p.sw
	if !sw.cfg.EnablePreemption || !p.transmitting {
		return
	}
	if p.isExpress(p.txQueue) || !p.isExpress(arrivedQueue) {
		return
	}
	if p.suspended != nil {
		return // one suspended frame at a time (802.3br)
	}
	local := sw.localTime()
	q, ok := p.selectQueue(local)
	if !ok || !p.isExpress(q) {
		return
	}
	frame, remaining, ok := p.ifc.Abort()
	if !ok {
		return // too early or too late in the frame to cut legally
	}
	sw.metPreempt.Inc()
	*p.held = suspendedTx{
		desc:      buffering.Descriptor{Frame: frame, Slot: p.txBufSlot},
		queue:     p.txQueue,
		remaining: remaining,
	}
	p.suspended = p.held
	// The wire stays occupied for the fragment's mCRC + IFG; the port
	// frees (and the express frame starts) once it clears. transmitting
	// stays true until then so re-entrant tryTransmit calls no-op.
	sw.engine.After(max(0, p.ifc.FreeAt()-sw.engine.Now()), "preempt-gap", p.gapFn)
}

// gapEnd frees the port once a cut fragment's mCRC and gap have cleared
// the wire.
func (p *Port) gapEnd(*sim.Engine) {
	p.transmitting = false
	p.tryTransmit()
}

// selectQueue implements Egress Sched: strict priority (highest queue
// index first) over queues that are non-empty, whose egress gate is
// open, whose CBS (if any) has non-negative credit, and — for the
// CQF-gated TS queues — whose head frame fits in the remaining slot
// (length-aware guard band).
func (p *Port) selectQueue(local sim.Time) (int, bool) {
	sw := p.sw
	for ready := p.busy & p.gates[dirOut].observe(local); ready != 0; {
		q := bits.Len16(uint16(ready)) - 1
		ready &^= 1 << q
		if cbs := p.bank.For(q); cbs != nil && !cbs.Eligible(sw.engine.Now()) {
			// The only blocker is shaper credit: stamp the onset so the
			// hold shows up as Shape (not Queue) in the frame's span.
			if p.shapeBlockedAt[q] == 0 {
				p.shapeBlockedAt[q] = sw.engine.Now()
			}
			continue
		}
		if q == sw.cfg.TSQueueA || q == sw.cfg.TSQueueB {
			head, _ := p.queues[q].Peek()
			if ethernet.FrameTxTime(head.Frame, sw.cfg.RateFor(p.id)) > p.gates[dirOut].TimeToBoundary(local) {
				// Guard band: the frame would overrun the slot.
				continue
			}
		}
		return q, true
	}
	return 0, false
}

// tryTransmit starts one transmission if the port is idle and a queue
// is eligible; otherwise it arms a retry at the next slot boundary.
// A suspended (preempted) frame resumes as soon as no express frame is
// ready.
func (p *Port) tryTransmit() {
	if p.transmitting {
		return
	}
	sw := p.sw
	local := sw.localTime()
	q, ok := p.selectQueue(local)
	if p.suspended != nil && (!ok || !p.isExpress(q)) {
		p.resumeSuspended()
		return
	}
	if !ok {
		p.armRetry(local)
		return
	}
	d, _ := p.queues[q].Pop()
	empty := p.queues[q].Len() == 0
	if empty {
		p.busy &^= 1 << q
	}
	p.claimWait(q, local, d)
	if cbs := p.bank.For(q); cbs != nil {
		cbs.OnSend(sw.engine.Now(), int64(d.Frame.WireBytes())*8,
			ethernet.FrameTxTime(d.Frame, sw.cfg.RateFor(p.id)))
		if empty {
			cbs.OnEmpty(sw.engine.Now())
		}
	}
	p.transmitting = true
	p.txQueue = q
	sw.metResidence.Observe(int64(sw.engine.Now() - d.EnqueuedAt))
	sw.emit(trace.KindTxStart, p.id, q, d.Frame, "")
	p.txBufSlot = d.Slot
	p.ifc.Transmit(d.Frame, p.txDoneFn)
}

// txDone runs when the wire is free again: the transmitted frame's
// buffer returns to the pool and the egress scheduler picks again.
func (p *Port) txDone() {
	p.pool.Free(p.txBufSlot)
	p.sw.stats.TxFrames++
	p.transmitting = false
	p.tryTransmit()
}

// maxGateScan bounds the analytic gate-wait walk: past this many
// boundaries the remainder books as queue wait. With CQF's two-entry
// schedules 64 boundaries span 32 cycles — far beyond any wait a
// healthy configuration produces.
const maxGateScan = 64

// gateWait returns the gate-schedule share of a wait over the local
// window [from, to): time the egress gate of queue q was closed, plus —
// for the CQF TS queues — the length-aware guard band (the last `need`
// of an open interval the gate closed again before `to`, which the
// frame could not use). It reads the list, not the port's rollover
// cursor, so probing past instants perturbs nothing.
func (p *Port) gateWait(q int, from, to, need sim.Time) sim.Time {
	if to <= from {
		return 0
	}
	guard, out := p.isExpress(q), p.gates[dirOut].GCL
	var wait sim.Time
	t := from
	for i := 0; i < maxGateScan && t < to; i++ {
		in := out.IntervalAt(t)
		next := min(in.To, to)
		if !in.Mask.Open(q) {
			wait += next - t
		} else if guard && in.To < to { // the gate closed again before to
			wait += min(need, next-t)
		}
		t = next
	}
	return wait
}

// claimWait attributes the popped frame's wait at this hop: the gate
// share is computed analytically from the schedule, the shaper share
// from the CBS-blocked stamp; both are clamped so their sum never
// exceeds the actual wait, leaving the remainder (HOL blocking, busy
// wire, preemption gaps) to the span's queue bucket at delivery. The
// local/engine time bases drift by the synchronized clock's rate error
// (< 1e-4), negligible against any wait worth attributing.
func (p *Port) claimWait(q int, local sim.Time, d buffering.Descriptor) {
	sw := p.sw
	blockedAt := p.shapeBlockedAt[q]
	p.shapeBlockedAt[q] = 0
	if !d.Frame.Span.Active() {
		return
	}
	wait := sw.engine.Now() - d.EnqueuedAt
	if wait <= 0 {
		return
	}
	g := min(p.gateWait(q, local-wait, local, ethernet.FrameTxTime(d.Frame, sw.cfg.RateFor(p.id))), wait)
	var s sim.Time
	if blockedAt > 0 {
		s = sw.engine.Now() - max(blockedAt, d.EnqueuedAt) // a block predating the frame counts from its enqueue
	}
	s = min(s, wait-g)
	if g > 0 || s > 0 {
		d.Frame.Span.Claim(g, s)
	}
}

// resumeSuspended continues a preempted frame's remaining fragment.
func (p *Port) resumeSuspended() {
	sw := p.sw
	s := p.suspended
	p.suspended = nil
	p.transmitting = true
	p.txQueue = s.queue
	sw.emit(trace.KindTxStart, p.id, s.queue, s.desc.Frame, "resume")
	p.txBufSlot = s.desc.Slot
	p.ifc.Resume(s.desc.Frame, s.remaining, p.txDoneFn)
}

// armRetry schedules a re-evaluation at the next gate slot boundary if
// any queue holds a frame. Gates are the only time-dependent blockers
// besides CBS credit; CBS-blocked queues are also re-checked then (the
// slot is far longer than any credit recovery of interest).
func (p *Port) armRetry(local sim.Time) {
	if p.retryPending || p.busy == 0 {
		return
	}
	p.retryPending = true
	// Convert the local-time distance to the boundary into engine time.
	// The synchronized clock's rate error is < 1e-4, i.e. < 7 ns over a
	// 65 µs slot — far below the guard band — so the distance is used
	// as-is, plus 1 ns to land strictly inside the next slot.
	delay := p.gates[dirOut].TimeToBoundary(local) + 1
	p.sw.engine.After(delay, "port-retry", p.retryFn)
}

func (p *Port) retry(*sim.Engine) {
	p.retryPending = false
	p.tryTransmit()
}

// QueueHighWater returns the worst-case occupancy of queue q on port
// portID, the dimensioning signal of §III.C.
func (sw *Switch) QueueHighWater(portID, q int) int {
	return sw.Port(portID).queues[q].HighWater()
}
