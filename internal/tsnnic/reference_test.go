package tsnnic

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/netdev"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// The reference: flow generation as it was before the injection
// schedule — one self-rescheduling tick closure per flow in the engine
// heap, per-ID sent/seq/replicate maps. inject and referenceStartFlow
// are kept verbatim; refNIC supplies the maps the NIC no longer has and
// borrows the NIC's MAC (FIFOs, drain, stop time), which did not change.
// inject is also the allocate-per-frame oracle: it makes every frame
// with &ethernet.Frame{} and CloneHeader, where the NIC draws from its
// pool — and the rig under test hands every arrived frame back to it.
type refNIC struct {
	*NIC
	sent      map[uint32]uint64
	seq       map[uint32]uint32
	replicate map[uint32]uint16
	replicas  uint64
}

func newRefNIC(n *NIC) *refNIC {
	return &refNIC{NIC: n, sent: make(map[uint32]uint64), seq: make(map[uint32]uint32)}
}

func (n *refNIC) SetReplication(id uint32, altVID uint16) {
	if n.replicate == nil {
		n.replicate = make(map[uint32]uint16)
	}
	n.replicate[id] = altVID
}

func (n *refNIC) inject(spec *flows.Spec) {
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
	if altVID, ok := n.replicate[spec.ID]; ok {
		r := f.CloneHeader() // re-tags the VID, a header field; payload is shared
		r.VID = altVID
		q.frames = append(q.frames, r)
		n.replicas++
	}
	n.drain()
}

func (n *refNIC) referenceStartFlow(spec *flows.Spec) {
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

// rig is one engine with generator NICs, each cabled to a tap that logs
// what arrives (the compared fields are copied at arrival: the frame is
// recycled). With refs set the flows run on the reference's per-flow
// timers, started the way testbed.Run used to start them; otherwise on
// the NIC's schedule.
type rig struct {
	e    *sim.Engine
	nics []*NIC
	refs []*refNIC

	executed []execEntry
	wire     []wireEntry
}

// execEntry is one executed event: its instant and how many order
// numbers the engine had handed out before it ran. The engine does not
// expose an event's own number; the running count (read by taking one,
// identically on both rigs, which shifts every later number alike and
// changes no relative order) moves whenever a handler schedules or
// reserves one more or one fewer than its counterpart.
type execEntry struct {
	at    sim.Time
	taken uint64
}

type wireEntry struct {
	at, sentAt sim.Time
	host       int
	flow, seq  uint32
	vid        uint16
}

func newRig(nics int, reference bool) *rig {
	r := &rig{e: sim.NewEngine()}
	for h := 0; h < nics; h++ {
		n := New(r.e, h, ethernet.Gbps, nil)
		tap := recvFunc(func(f *ethernet.Frame) {
			r.wire = append(r.wire, wireEntry{r.e.Now(), f.SentAt, h, f.FlowID, f.Seq, f.VID})
			if !reference {
				n.pool.Put(f)
			}
		})
		sink := netdev.NewIfc(r.e, fmt.Sprintf("tap%d", h), tap, ethernet.Gbps)
		netdev.Connect(n.Ifc(), sink, sim.Time(100+h)*sim.Nanosecond)
		r.nics = append(r.nics, n)
		if reference {
			r.refs = append(r.refs, newRefNIC(n))
		}
	}
	r.e.SetProgress(1, func(_ uint64, now sim.Time) {
		r.executed = append(r.executed, execEntry{now, r.e.TakeSeq()})
	})
	return r
}

func (r *rig) start(spec *flows.Spec) {
	if r.refs != nil {
		r.refs[spec.SrcHost].referenceStartFlow(spec)
	} else {
		r.nics[spec.SrcHost].StartFlow(spec)
	}
}

func (r *rig) startAt(spec *flows.Spec, at sim.Time) {
	if r.refs != nil {
		ref := r.refs[spec.SrcHost]
		r.e.At(at, fmt.Sprintf("start-flow%d", spec.ID), func(*sim.Engine) { ref.referenceStartFlow(spec) })
	} else {
		r.nics[spec.SrcHost].Start(r.nics[spec.SrcHost].Admit(spec, 0), at)
	}
}

// replicate turns on 802.1CB replication of TS flow spec onto vid: by
// ID on the reference, on the spec itself for the NIC.
func (r *rig) replicate(spec *flows.Spec, vid uint16) {
	if r.refs != nil {
		r.refs[spec.SrcHost].SetReplication(spec.ID, vid)
	} else {
		spec.FRER, spec.AltVID = true, vid
	}
}

func (r *rig) sent(host int) map[uint32]uint64 {
	if r.refs != nil {
		return r.refs[host].sent
	}
	return r.nics[host].Sent()
}

// drive builds and runs one seeded scenario on r. Everything random is
// drawn from the seed alone, so two rigs given one seed get one script.
func drive(r *rig, seed uint64) {
	rng := sim.NewRand(seed)
	pick := func(n int) int { return int(rng.Uint64() % uint64(n)) }
	const base = 5 * sim.Millisecond
	stop := base + 6*sim.Millisecond // on a tick of every 1 ms and 2 ms flow with offset 0
	if seed%2 == 0 {
		stop += 137 * sim.Nanosecond // on nobody's tick
	}
	periods := []sim.Time{1, 2, 4, 10}
	id := uint32(0)
	for h, n := range r.nics {
		var ts []*flows.Spec // this NIC's TS flows, the ones FRER may replicate
		n.SetStopTime(stop)
		count := 1 + pick(200)
		if seed%8 == 0 {
			count = 1 + pick(3) // nearly empty schedules: the head changes hands constantly
		}
		for k := 0; k < count; k++ {
			id++
			var spec *flows.Spec
			if pick(8) > 0 {
				// Offsets on a 50 µs grid collide within and across periods.
				p := periods[pick(len(periods))] * sim.Millisecond
				spec = &flows.Spec{
					ID: id, Class: ethernet.ClassTS, SrcHost: h, DstHost: 99, VID: uint16(1 + h), PCP: 7,
					WireSize: 64 + 4*pick(16), Period: p, Offset: sim.Time(pick(int(p/(50*sim.Microsecond)))) * 50 * sim.Microsecond,
				}
			} else {
				class := []ethernet.Class{ethernet.ClassRC, ethernet.ClassBE}[pick(2)]
				spec = flows.Background(id, class, h, 99, uint16(1+h), ethernet.Rate(5+pick(40))*ethernet.Mbps)
				spec.WireSize, spec.Burst = 200+pick(1300), pick(5) // burst 0 means 1
				spec.Offset = sim.Time(pick(300)) * sim.Microsecond
			}
			if spec.Class == ethernet.ClassTS {
				ts = append(ts, spec)
				if pick(6) == 0 {
					r.replicate(spec, uint16(100+pick(4))) // before start
				}
			}
			switch pick(4) {
			case 0: // started directly, before the run
				r.start(spec)
			case 1: // started from an engine event mid-run, half of them landing ahead of the NIC's head
				if pick(2) == 0 {
					spec.Offset = 0
				}
				r.e.At(base+sim.Time(pick(4000))*sim.Microsecond+sim.Time(pick(3)), "late-start", func(*sim.Engine) { r.start(spec) })
			default: // registered for the common start, as testbed.Run does
				r.startAt(spec, base)
			}
		}
		if h == 0 && seed%4 == 0 {
			// A line-rate RC flow, alone on the wire until base: every tick
			// lands on the exact instant of its previous frame's txdone,
			// whose order number was taken just before the tick's own —
			// which is why the number is taken after the injections.
			id++
			spec := flows.Background(id, ethernet.ClassRC, h, 99, 7, ethernet.Gbps)
			spec.WireSize = 200 + pick(1300)
			r.start(spec)
		}
		// Live additions (testbed.AddFlows' shape): registered mid-run for
		// a later instant, and for the registering instant itself.
		for k := 0; k < 2; k++ {
			id++
			spec := &flows.Spec{ID: id, Class: ethernet.ClassTS, SrcHost: h, DstHost: 99, VID: 9, PCP: 7,
				WireSize: 64, Period: sim.Millisecond, Offset: sim.Time(pick(20)) * 50 * sim.Microsecond}
			at := base + sim.Time(1+pick(3))*sim.Millisecond
			delay := sim.Time(k) * 500 * sim.Microsecond
			r.e.At(at, "add-flows", func(*sim.Engine) { r.startAt(spec, at+delay) })
		}
		// Replication switched on mid-run for a flow that is already ticking.
		if len(ts) > 0 {
			late := ts[pick(len(ts))]
			r.e.At(base+2500*sim.Microsecond, "late-frer", func(*sim.Engine) { r.replicate(late, 77) })
		}
	}
	r.e.Run()
}

// TestScheduleMatchesPerFlowTimers: the NIC's one-event injection
// schedule makes the engine execute exactly what one timer per flow
// made it execute — the same events at the same instants with the same
// order numbers handed out in between, the same frames on the wire, the
// same counters.
func TestScheduleMatchesPerFlowTimers(t *testing.T) {
	seeds := uint64(48)
	if testing.Short() {
		seeds = 12
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		nics := 1 + int(seed%3)
		want, got := newRig(nics, true), newRig(nics, false)
		drive(want, seed)
		drive(got, seed)
		if len(want.wire) == 0 || want.e.Executed() == 0 {
			t.Fatalf("seed %d: empty scenario", seed)
		}
		if got.e.Executed() != want.e.Executed() {
			t.Fatalf("seed %d: executed %d events, reference %d", seed, got.e.Executed(), want.e.Executed())
		}
		for i := range want.executed {
			if got.executed[i] != want.executed[i] {
				t.Fatalf("seed %d: event %d ran at %+v, reference %+v", seed, i, got.executed[i], want.executed[i])
			}
		}
		if len(got.wire) != len(want.wire) {
			t.Fatalf("seed %d: %d frames on the wire, reference %d", seed, len(got.wire), len(want.wire))
		}
		for i := range want.wire {
			if got.wire[i] != want.wire[i] {
				t.Fatalf("seed %d: frame %d is %+v, reference %+v", seed, i, got.wire[i], want.wire[i])
			}
		}
		for h := 0; h < nics; h++ {
			if !reflect.DeepEqual(got.sent(h), want.sent(h)) {
				t.Fatalf("seed %d: NIC %d Sent() = %v, reference %v", seed, h, got.sent(h), want.sent(h))
			}
		}
		if got.e.Pending() != 0 || len(got.nics[0].sched) != 0 {
			t.Fatalf("seed %d: %d events, %d timers left after the stop time", seed, got.e.Pending(), len(got.nics[0].sched))
		}
	}
}
