// Package gptp implements the Time Sync function template of
// TSN-Builder: a generalized Precision Time Protocol (IEEE 802.1AS)
// model with the three submodules the paper names in Fig. 5 —
// collection of clock time (PHY timestamping of Sync/Follow_Up and
// Pdelay exchanges), calculation of correction time (offset and link
// delay arithmetic) and clock correction (phase step + frequency trim
// servo).
//
// As in 802.1AS, time propagates hop by hop from a grandmaster over a
// spanning tree: every time-aware system measures the delay of the link
// to its upstream neighbor with the peer-delay mechanism and
// disciplines its local oscillator to the neighbor's clock. PTP frames
// are timestamped at the PHY and never cross the switching fabric, so
// the model delivers them directly over each link rather than through
// the simulated dataplane; this mirrors hardware behaviour.
package gptp

import (
	"github.com/tsnbuilder/tsnbuilder/internal/clock"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// Protocol timings and PHY parameters of the paper's prototype: 125 MHz
// timestamping on 1 Gbps links with sub-50 ns precision as the target.
const (
	// SyncInterval is the time between Sync messages on each master
	// port. 802.1AS defaults to 125 ms; the prototype syncs faster to
	// converge quickly after power-up.
	SyncInterval = 32 * sim.Millisecond
	// pdelayInterval is the time between peer-delay measurements.
	pdelayInterval = 250 * sim.Millisecond
	// stepThreshold is the offset magnitude above which the servo steps
	// the clock phase instead of slewing.
	stepThreshold = sim.Microsecond
	// timestampJitter is the half-width of the uniform PHY timestamp
	// error. The paper's FPGA timestamps at 125 MHz, i.e. 8 ns
	// granularity (clock.Granularity125MHz) with a few ns of sampling
	// jitter.
	timestampJitter = 4 * sim.Nanosecond
	// msgWireBytes is the on-wire size of a PTP message (header +
	// body + FCS), serialized at 1 Gbps.
	msgWireBytes = 90
	// syncReceiptTimeout is the silence after which EnableAutoFailover
	// declares an upstream path dead: 802.1AS's default of three sync
	// intervals.
	syncReceiptTimeout = 3 * SyncInterval
)

// Node is one time-aware system (switch or end station).
type Node struct {
	ID    int
	Clock *clock.Clock

	ports    []*Port
	upstream *Port // port toward the grandmaster; nil on the GM

	// priority is the BMCA system identity; alive gates all protocol
	// activity (holdover when false).
	priority PriorityVector
	alive    bool

	// Servo state.
	synced     bool
	lastOffset sim.Time
	// Stats; syncCount and stepCount are the sync and step counters'
	// cells.
	syncCount  uint64
	stepCount  uint64
	lastCorrAt sim.Time

	// metOffset is the offset gauge; the zero value is a no-op.
	metOffset metrics.Gauge
}

// Port is one gPTP-capable port of a node.
type Port struct {
	owner *Node
	peer  *Port
	dom   *Domain
	// trueDelay is the physical propagation delay of the attached link.
	trueDelay sim.Time
	// measuredDelay is the pdelay mechanism's current estimate.
	measuredDelay sim.Time
	hasDelay      bool
	rng           *sim.Rand
	// seq numbers outgoing event messages.
	seq uint16

	// The exchanges this port starts: a peer-delay measurement of its
	// link and, while it is master toward its peer, a two-step sync. A
	// kind's interval is far longer than its exchange, so at most one of
	// each is ever in flight.
	pdelay, sync exchange
	// Handlers bound once in Connect, so a tick or a message arrival
	// allocates nothing.
	pdelayTickFn, reqArriveFn, turnFn, respArriveFn sim.Handler
	syncTickFn, syncArriveFn, followUpArriveFn      sim.Handler
}

// exchange is one in-flight protocol exchange: the timestamps its later
// steps need and the frame its messages cross the codec in, one at a
// time (each message arrives before the next is sent).
type exchange struct {
	pending bool
	t1, t2  sim.Time
	frame   ethernet.Frame
	body    [msgBodyBytes]byte
}

// begin marks the exchange in flight; a second one of the same kind
// while it is would overwrite its state.
func (x *exchange) begin(kind string) {
	if x.pending {
		panic("gptp: " + kind + " exchange started while one is in flight")
	}
	x.pending = true
}

// send marshals msg into the exchange's frame and schedules arrive
// after the link latency; arrive reads it back through receive, so
// every protocol exchange crosses the real codec.
func (d *Domain) send(from *Port, x *exchange, msg Message, label string, arrive sim.Handler) {
	from.seq++
	msg.Seq = from.seq
	msg.encode(&x.frame, x.body[:], d.srcMAC(from.owner))
	d.engine.After(d.msgDelay(from), label, arrive)
}

// receive decodes the message in flight in the exchange's frame.
func (x *exchange) receive() Message {
	m, err := decode(&x.frame)
	if err != nil {
		panic(err) // codec breakage is a programming error
	}
	return m
}

// Domain is a gPTP domain: a set of nodes joined by point-to-point
// links with one grandmaster.
type Domain struct {
	engine *sim.Engine
	nodes  []*Node
	gm     *Node
	seed   uint64

	// metRoleChanges counts sync-tree rebuilds that moved a node's
	// upstream port (BMCA re-elections, failovers, initial build).
	metRoleChanges metrics.Counter
}

// NewDomain creates an empty domain running on engine.
func NewDomain(engine *sim.Engine) *Domain {
	return &Domain{engine: engine, seed: 0x67707470}
}

// AddNode registers a time-aware system whose oscillator has the given
// intrinsic drift and initial phase offset.
func (d *Domain) AddNode(id int, drift clock.PPB, initialOffset sim.Time) *Node {
	c := clock.New(drift, initialOffset)
	c.SetGranularity(clock.Granularity125MHz)
	n := &Node{
		ID: id, Clock: c, alive: true,
		// Default identity: free-running clock class, ID from the node
		// number (from the MAC in hardware).
		priority: PriorityVector{Priority1: 246, ClockClass: 248, ClockID: uint64(id) + 1},
	}
	d.nodes = append(d.nodes, n)
	return n
}

// Instrument registers per-node telemetry in reg: a signed
// offset-from-upstream gauge (ns), sync and phase-step counters per
// node, which read the counts Stats reports, and a domain-wide BMCA
// role-change counter. Call after every AddNode; a nil registry is a
// no-op.
func (d *Domain) Instrument(reg *metrics.Registry) {
	offset := reg.Gauges("tsn_gptp_offset_ns", "last sync offset sample from the upstream clock, nanoseconds", "node")
	syncs := reg.Counters("tsn_gptp_syncs_total", "sync corrections applied", "node")
	steps := reg.Counters("tsn_gptp_steps_total", "phase steps (gross corrections) applied", "node")
	for _, n := range d.nodes {
		node := metrics.Int(n.ID)
		n.metOffset = offset.With(node)
		syncs.Bind(&n.syncCount, node)
		steps.Bind(&n.stepCount, node)
	}
	d.metRoleChanges = reg.Counters("tsn_gptp_role_changes_total",
		"sync-tree rebuilds that changed some node's upstream port").With()
}

// srcMAC derives the node's protocol source address.
func (d *Domain) srcMAC(n *Node) ethernet.MAC { return ethernet.SwitchMAC(n.ID) }

// Nodes returns the registered nodes in insertion order.
func (d *Domain) Nodes() []*Node { return d.nodes }

// Connect joins a and b with a full-duplex link of the given
// propagation delay and returns the two port endpoints.
func (d *Domain) Connect(a, b *Node, delay sim.Time) (*Port, *Port) {
	if delay < 0 {
		panic("gptp: negative link delay")
	}
	d.seed = d.seed*6364136223846793005 + 1442695040888963407
	pa := d.newPort(a, delay)
	d.seed = d.seed*6364136223846793005 + 1442695040888963407
	pb := d.newPort(b, delay)
	pa.peer, pb.peer = pb, pa
	a.ports = append(a.ports, pa)
	b.ports = append(b.ports, pb)
	return pa, pb
}

// newPort makes one end of a link, its handlers bound.
func (d *Domain) newPort(n *Node, delay sim.Time) *Port {
	p := &Port{owner: n, dom: d, trueDelay: delay, rng: sim.NewRand(d.seed)}
	p.pdelayTickFn, p.reqArriveFn, p.turnFn, p.respArriveFn = p.pdelayTick, p.reqArrive, p.turn, p.respArrive
	p.syncTickFn, p.syncArriveFn, p.followUpArriveFn = p.syncTick, p.syncArrive, p.followUpArrive
	return p
}

// SetGrandmaster designates gm as the domain's time source and builds
// the sync spanning tree (BFS over links) assigning each other node its
// upstream port. It also gives gm an administratively preferred BMCA
// identity so a later election confirms the choice.
func (d *Domain) SetGrandmaster(gm *Node) {
	gm.priority.Priority1 = 128
	gm.priority.ClockClass = 6
	if err := d.assume(gm); err != nil {
		panic(err)
	}
}

// Grandmaster returns the domain's time source.
func (d *Domain) Grandmaster() *Node { return d.gm }

// Start schedules the protocol: immediate pdelay measurements on every
// port, then periodic Sync transmission on every master port (ports
// whose peer considers them upstream).
func (d *Domain) Start() {
	if d.gm == nil {
		panic("gptp: Start before SetGrandmaster")
	}
	for _, n := range d.nodes {
		for _, p := range n.ports {
			// Every port measures its link delay and ticks a periodic
			// Sync opportunity; the role check happens at fire time, so
			// re-election (BMCA failover) takes effect without
			// rescheduling.
			d.engine.After(0, "pdelay", p.pdelayTickFn)
			d.engine.After(SyncInterval, "sync", p.syncTickFn)
		}
	}
}

// msgDelay returns the wire latency of one PTP message over port p:
// serialization + propagation.
func (d *Domain) msgDelay(p *Port) sim.Time {
	return ethernet.TxTime(msgWireBytes+ethernet.OverheadBytes, ethernet.Gbps) + p.trueDelay
}

// timestamp models PHY timestamping at instant now on port p: the local
// clock reading, quantized, plus uniform sampling jitter.
func (d *Domain) timestamp(p *Port, now sim.Time) sim.Time {
	return p.owner.Clock.Timestamp(now) + p.rng.Time(2*timestampJitter+1) - timestampJitter
}

// --- Peer delay measurement (Pdelay_Req / Pdelay_Resp) ---

// pdelayTick measures the link delay and re-arms itself.
func (p *Port) pdelayTick(*sim.Engine) {
	p.dom.measurePdelay(p)
	p.dom.engine.After(pdelayInterval, "pdelay", p.pdelayTickFn)
}

// measurePdelay starts p's exchange: it timestamps a Pdelay_Req out (t1);
// the peer timestamps it in (t2, reqArrive) and its Pdelay_Resp out
// after a turnaround (t3, turn); p timestamps that in (t4, respArrive).
func (d *Domain) measurePdelay(p *Port) {
	if !p.owner.alive || !p.peer.owner.alive {
		return
	}
	x := &p.pdelay
	x.begin("pdelay")
	x.t1 = d.timestamp(p, d.engine.Now()) // initiator tx timestamp
	// Pdelay_Req crosses the wire through the codec.
	d.send(p, x, Message{Type: MsgPdelayReq}, "ptp:Pdelay_Req", p.reqArriveFn)
}

func (p *Port) reqArrive(e *sim.Engine) {
	x := &p.pdelay
	x.receive()
	x.t2 = p.dom.timestamp(p.peer, e.Now()) // responder rx
	// Responder turnaround: a small processing time.
	e.After(2*sim.Microsecond, "pdelay-turn", p.turnFn)
}

func (p *Port) turn(e *sim.Engine) {
	x := &p.pdelay
	t3 := p.dom.timestamp(p.peer, e.Now()) // responder tx
	// Pdelay_Resp carries the turnaround (t3 − t2) as its correction,
	// the condensed one-message form.
	resp := Message{Type: MsgPdelayResp, OriginTS: x.t2, Correction: int64(t3 - x.t2)}
	p.dom.send(p.peer, x, resp, "ptp:Pdelay_Resp", p.respArriveFn)
}

func (p *Port) respArrive(e *sim.Engine) {
	x := &p.pdelay
	m := x.receive()
	x.pending = false
	t4 := p.dom.timestamp(p, e.Now()) // initiator rx
	// Mean path delay per IEEE 1588: ((t4-t1)-(t3-t2))/2.
	delay := ((t4 - x.t1) - sim.Time(m.Correction)) / 2
	if delay < 0 {
		delay = 0
	}
	// Exponentially average successive measurements: a static error in
	// the delay estimate biases every downstream clock, so smoothing it
	// matters more than smoothing the per-sync offset samples.
	if p.hasDelay {
		p.measuredDelay = (3*p.measuredDelay + delay) / 4
	} else {
		p.measuredDelay = delay
		p.hasDelay = true
	}
}

// --- Sync / Follow_Up propagation ---

// syncTick offers a Sync on p and re-arms itself.
func (p *Port) syncTick(*sim.Engine) {
	p.dom.sendSync(p)
	p.dom.engine.After(SyncInterval, "sync", p.syncTickFn)
}

// sendSync emits one two-step Sync from master port: the Sync is
// timestamped on egress (t1) and a Follow_Up carrying t1 trails it.
// Ports that are not currently master toward their peer (or whose
// owner/peer is out of service) skip the opportunity.
func (d *Domain) sendSync(master *Port) {
	if !master.owner.alive || !master.peer.owner.alive {
		return
	}
	if master.peer.owner.upstream != master.peer {
		return
	}
	x := &master.sync
	x.begin("sync")
	x.t1 = d.timestamp(master, d.engine.Now())
	// Two-step sync over the codec: the Sync event message is
	// timestamped on arrival, the Follow_Up delivers t1.
	d.send(master, x, Message{Type: MsgSync}, "ptp:Sync", master.syncArriveFn)
}

func (p *Port) syncArrive(e *sim.Engine) {
	x := &p.sync
	x.receive()
	x.t2 = p.dom.timestamp(p.peer, e.Now()) // slave rx
	p.dom.send(p, x, Message{Type: MsgFollowUp, OriginTS: x.t1}, "ptp:Follow_Up", p.followUpArriveFn)
}

func (p *Port) followUpArrive(e *sim.Engine) {
	x := &p.sync
	m := x.receive()
	x.pending = false
	p.peer.owner.applysync(e, m.OriginTS, x.t2, p.peer)
}

// applysync runs the correction-time calculation and clock-correction
// submodules on a (t1, t2) sample received on upstream port p.
func (n *Node) applysync(e *sim.Engine, t1, t2 sim.Time, p *Port) {
	if !n.alive {
		return
	}
	if !p.hasDelay {
		return // wait for the first pdelay measurement
	}
	now := e.Now()
	// offset = slaveTime - masterTimeAtArrival.
	offset := t2 - (t1 + p.measuredDelay)
	n.syncCount++
	n.metOffset.Set(int64(offset))
	prevCorr := n.lastCorrAt
	n.lastCorrAt = now

	if !n.synced || offset > stepThreshold*1000 || offset < -stepThreshold*1000 {
		// Phase step on first sync or gross error; frequency unknown.
		n.Clock.Step(now, -offset)
		n.synced = true
		n.stepCount++
		n.lastOffset = 0
		return
	}
	// Frequency correction: the offset accumulated since the previous
	// correction estimates the residual rate error versus the upstream
	// clock (deadbeat frequency estimator).
	// The gain < 1 low-passes timestamp noise, which otherwise gets
	// re-amplified at every hop of the sync cascade.
	if elapsed := now - prevCorr; elapsed > 0 {
		ppb := clock.PPB(int64(offset) * 1_000_000_000 / int64(elapsed))
		n.Clock.Trim(now, n.Clock.TrimPPB()-ppb/4)
	}
	// Remove the residual phase error. Below the step threshold this is
	// a fine-grained correction; above it, it doubles as a step.
	n.Clock.Step(now, -offset)
	if offset > stepThreshold || offset < -stepThreshold {
		n.stepCount++
	}
	n.lastOffset = offset
}

// OffsetFromGM returns node n's clock error relative to the grandmaster
// clock at the current engine time.
func (d *Domain) OffsetFromGM(n *Node) sim.Time {
	now := d.engine.Now()
	return n.Clock.Now(now) - d.gm.Clock.Now(now)
}

// MaxAbsOffset returns the worst clock error across all alive non-GM
// nodes, the domain's synchronization precision.
func (d *Domain) MaxAbsOffset() sim.Time {
	var worst sim.Time
	for _, n := range d.nodes {
		if n == d.gm || !n.alive {
			continue
		}
		off := d.OffsetFromGM(n)
		if off < 0 {
			off = -off
		}
		if off > worst {
			worst = off
		}
	}
	return worst
}

// Stats reports per-node protocol counters.
type Stats struct {
	NodeID    int
	SyncCount int
	StepCount int
	Offset    sim.Time
}

// Stats returns a snapshot for every non-GM node.
func (d *Domain) Stats() []Stats {
	var out []Stats
	for _, n := range d.nodes {
		if n == d.gm {
			continue
		}
		out = append(out, Stats{
			NodeID:    n.ID,
			SyncCount: int(n.syncCount),
			StepCount: int(n.stepCount),
			Offset:    d.OffsetFromGM(n),
		})
	}
	return out
}
