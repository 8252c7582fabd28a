// Package tas synthesizes 802.1Qbv Time-Aware Shaper gate control
// lists — the alternative to the static CQF configuration the paper
// evaluates. The paper's Gate Ctrl template supports arbitrary
// gate_size precisely so that synthesized schedules like these (cf. the
// paper's reference [20], Oliver et al., RTAS 2018) can be loaded; CQF
// is the degenerate 2-entry case.
//
// The synthesizer is a greedy first-fit over the schedule hyperperiod:
// each TS flow gets one exclusive transmission window per period on
// every egress port of its path, hop h+1's window opening when hop h's
// worst-case departure has arrived. Windows are padded with a guard
// band of one maximum frame so a non-TS frame that just seized the wire
// can drain before the window opens, and the injection times are
// reserved per source NIC so a tester never has to emit two frames at
// once.
//
// Compared to CQF the synthesized schedule removes the ±slot
// quantization — end-to-end latency drops from hops×65 µs to
// microseconds — at the price of gate tables that grow with the number
// of windows per port: exactly the resource trade the set_gate_tbl
// customization API exposes.
package tas

import (
	"fmt"
	"sort"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/gate"
	"github.com/tsnbuilder/tsnbuilder/internal/netdev"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
)

// PortKey identifies one egress port.
type PortKey struct {
	Switch int
	Port   int
}

// Window is one reserved transmission interval within the cycle.
type Window struct {
	Start  sim.Time
	End    sim.Time
	FlowID uint32
}

// Options tunes synthesis.
type Options struct {
	// Guard is the slack added to each window beyond the frame's
	// transmission time (absorbs clock error and timestamping jitter).
	// Default 2 µs.
	Guard sim.Time
	// MaxFrameBytes bounds the interfering frame a guard band must
	// absorb. Default 1522.
	MaxFrameBytes int
}

func (o *Options) defaults() {
	if o.Guard == 0 {
		o.Guard = 2 * sim.Microsecond
	}
	if o.MaxFrameBytes == 0 {
		o.MaxFrameBytes = ethernet.MaxFrameBytes
	}
}

const (
	// linkRate is the port line rate every schedule is planned at.
	linkRate = ethernet.Gbps
	// quantum is the offset search step.
	quantum = sim.Microsecond
)

// Schedule is a synthesized TAS configuration.
type Schedule struct {
	// Cycle is the hyperperiod all port schedules repeat with.
	Cycle sim.Time
	// Offsets maps flow ID to its injection offset within its period.
	Offsets map[uint32]sim.Time
	// Windows lists each egress port's reserved windows, sorted by
	// start.
	Windows map[PortKey][]Window
	// MaxGateEntries is the largest gate control list any port needs
	// (the gate_size parameter the design must provision).
	MaxGateEntries int
	// GuardBand is the pre-window quiet interval baked into the GCLs.
	GuardBand sim.Time

	opts Options
}

// maxHyper caps the hyperperiod in quanta.
const maxHyper = int64(1) << 22

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Synthesize plans windows for every TS flow in specs over topo.
// Flows must have paths bound and pass flows.Spec.Validate, and
// opts.Guard must not be negative. Non-TS flows are ignored (they run
// un-gated under the TS windows' guard regime).
func Synthesize(specs []*flows.Spec, topo *topology.Topology, opts Options) (*Schedule, error) {
	if opts.Guard < 0 {
		return nil, fmt.Errorf("tas: negative guard %v", opts.Guard)
	}
	opts.defaults()
	var ts []*flows.Spec
	var cycle sim.Time = 0
	for _, s := range specs {
		if s.Class != ethernet.ClassTS {
			continue
		}
		if len(s.Path) == 0 {
			return nil, fmt.Errorf("tas: flow %d has no path", s.ID)
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("tas: %w", err)
		}
		ts = append(ts, s)
		if cycle == 0 {
			cycle = s.Period
		} else {
			g := gcd(int64(cycle), int64(s.Period))
			l := int64(cycle) / g * int64(s.Period)
			if l > int64(sim.Second) {
				return nil, fmt.Errorf("tas: hyperperiod beyond 1s")
			}
			cycle = sim.Time(l)
		}
	}
	sch := &Schedule{
		Cycle:     cycle,
		Offsets:   make(map[uint32]sim.Time),
		Windows:   make(map[PortKey][]Window),
		GuardBand: ethernet.TxTime(opts.MaxFrameBytes+ethernet.OverheadBytes, linkRate),
		opts:      opts,
	}
	if len(ts) == 0 {
		return sch, nil
	}
	if int64(cycle/quantum) > maxHyper {
		return nil, fmt.Errorf("tas: cycle %v too fine for quantum %v", cycle, quantum)
	}

	// Longest-period (rarest) flows first would fragment the timeline
	// for the tight ones; schedule shortest-period flows first instead.
	order := append([]*flows.Spec(nil), ts...)
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].Period != order[j].Period {
			return order[i].Period < order[j].Period
		}
		return order[i].ID < order[j].ID
	})

	// busy holds each resource's reserved intervals, sorted: egress port
	// i's at busy[i], and those of the NIC behind access port i at
	// busy[ports+i].
	ports := topo.Ports()
	busy := make([][]Window, 2*ports)
	reserve := func(key int, w Window) {
		list := busy[key]
		i := sort.Search(len(list), func(i int) bool { return list[i].Start > w.Start })
		list = append(list, Window{})
		copy(list[i+1:], list[i:])
		list[i] = w
		busy[key] = list
	}
	conflicts := func(key int, start, end sim.Time) bool {
		list := busy[key]
		// Reserved intervals are disjoint and sorted by Start: only the
		// neighbors around the insertion point can overlap.
		i := sort.Search(len(list), func(i int) bool { return list[i].Start >= end })
		if i < len(list) && list[i].Start < end {
			return true
		}
		if i > 0 && list[i-1].End > start {
			return true
		}
		return false
	}

	var hops []topology.Hop // the flow's egress ports, one per path switch
	for _, s := range order {
		txT := ethernet.TxTime(s.WireSize+ethernet.OverheadBytes, linkRate)
		winLen := txT + opts.Guard
		hops = hops[:0]
		for h := range s.Path {
			hop, err := topo.Egress(s.Path, s.DstHost, h)
			if err != nil {
				return nil, fmt.Errorf("tas: flow %d: %w", s.ID, err)
			}
			hops = append(hops, hop)
		}
		src, ok := topo.HostAttach(s.SrcHost)
		if !ok {
			return nil, fmt.Errorf("tas: flow %d source host %d not attached", s.ID, s.SrcHost)
		}
		nic := ports + src.Index
		reps := int64(cycle / s.Period)
		placed := false
	search:
		for o := sim.Time(0); o+winLen < s.Period; o += quantum {
			// Candidate windows for every hop and repetition.
			for r := int64(0); r < reps; r++ {
				base := o + sim.Time(r)*s.Period
				// Source NIC occupancy: the tester serializes one frame
				// starting at the injection instant.
				if conflicts(nic, base, base+txT) {
					continue search
				}
				at := base + txT + netdev.CableDelay // arrival at first switch
				for _, hop := range hops {
					start, end := at, at+winLen
					// Reserve the guard band before the window too, so
					// adjacent windows keep their quiet zones.
					if conflicts(hop.Index, start-sch.GuardBand, end) {
						continue search
					}
					at = end + netdev.CableDelay // worst-case arrival at next hop
				}
			}
			// Feasible: commit all reservations.
			for r := int64(0); r < reps; r++ {
				base := o + sim.Time(r)*s.Period
				reserve(nic, Window{Start: base, End: base + txT, FlowID: s.ID})
				at := base + txT + netdev.CableDelay
				for _, hop := range hops {
					w := Window{Start: at, End: at + winLen, FlowID: s.ID}
					reserve(hop.Index, Window{Start: w.Start - sch.GuardBand, End: w.End, FlowID: s.ID})
					pk := PortKey{Switch: hop.Switch, Port: hop.Port}
					sch.Windows[pk] = append(sch.Windows[pk], w)
					at = w.End + netdev.CableDelay
				}
			}
			sch.Offsets[s.ID] = o
			placed = true
			break
		}
		if !placed {
			return nil, fmt.Errorf("tas: no feasible window placement for flow %d", s.ID)
		}
	}

	for pk := range sch.Windows {
		ws := sch.Windows[pk]
		sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
		sch.Windows[pk] = ws
		// Count entries with distinct placeholder masks so equal-mask
		// merging reflects the real compilation.
		segs, err := buildSegments(ws, 1, 2, sch.Cycle, sch.GuardBand)
		if err != nil {
			return nil, err
		}
		if len(segs) > sch.MaxGateEntries {
			sch.MaxGateEntries = len(segs)
		}
	}
	return sch, nil
}

// Apply writes the planned offsets into the specs.
func (s *Schedule) Apply(specs []*flows.Spec) {
	for _, sp := range specs {
		if off, ok := s.Offsets[sp.ID]; ok {
			sp.Offset = off
		}
	}
}

// buildSegments compiles windows into mask/duration segments. tsMask
// and defMask select the open sets inside and outside TS windows.
func buildSegments(ws []Window, tsMask, defMask gate.Mask, cycle, guard sim.Time) ([]gate.Entry, error) {
	var out []gate.Entry
	emit := func(m gate.Mask, d sim.Time) {
		if d <= 0 {
			return
		}
		if len(out) > 0 && out[len(out)-1].Mask == m {
			out[len(out)-1].Duration += d
			return
		}
		out = append(out, gate.Entry{Mask: m, Duration: d})
	}
	at := sim.Time(0)
	for _, w := range ws {
		gStart := w.Start - guard
		if gStart < at {
			gStart = at
		}
		if w.Start < at || w.End > cycle {
			return nil, fmt.Errorf("tas: window [%v,%v) outside cycle or overlapping", w.Start, w.End)
		}
		emit(defMask, gStart-at)
		emit(0, w.Start-gStart)     // guard band: everything closed
		emit(tsMask, w.End-w.Start) // exclusive TS window
		at = w.End
	}
	emit(defMask, cycle-at)
	if len(out) == 0 {
		out = append(out, gate.Entry{Mask: defMask, Duration: cycle})
	}
	return out, nil
}

// GCLs compiles one port's windows into in/out gate schedules for a
// switch whose CQF pair is (tsA, tsB): the in-list admits everything
// (TAS gates on egress only); the out-list opens only the TS queues
// inside windows, closes everything during the pre-window guard band,
// and opens everything except the TS queues elsewhere.
func (s *Schedule) GCLs(pk PortKey, tsA, tsB int) (in, out *gate.GCL, err error) {
	tsMask := gate.Mask(0).With(tsA).With(tsB)
	defMask := gate.AllOpen &^ tsMask
	segs, err := buildSegments(s.Windows[pk], tsMask, defMask, s.Cycle, s.GuardBand)
	if err != nil {
		return nil, nil, err
	}
	return gate.AlwaysOpen(s.Cycle), gate.NewGCL(segs), nil
}

// WorstCaseLatency returns the synthesized bound for flow id: from
// injection to delivery at the destination host (last window end plus
// the final cable hop).
func (s *Schedule) WorstCaseLatency(spec *flows.Spec, topo *topology.Topology) (sim.Time, error) {
	txT := ethernet.TxTime(spec.WireSize+ethernet.OverheadBytes, linkRate)
	d := txT + netdev.CableDelay
	for h := range spec.Path {
		if _, err := topo.Egress(spec.Path, spec.DstHost, h); err != nil {
			return 0, fmt.Errorf("tas: flow %d: %w", spec.ID, err)
		}
		d += txT + s.opts.Guard + netdev.CableDelay
	}
	if _, ok := s.Offsets[spec.ID]; !ok {
		return 0, fmt.Errorf("tas: flow %d not scheduled", spec.ID)
	}
	return d, nil
}
