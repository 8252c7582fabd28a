package tsnswitch

import (
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/gate"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// This file is the switch half of the live-reconfiguration engine
// (internal/reconfig): in-place resize primitives for every resource a
// set_* customization API dimensions, each of which either applies
// fully (and updates the switch's Config so it stays truthful) or
// fails without side effects, plus the invariant-audit accessors the
// runtime watchdog drives.

// SetDegradeLevel sets the graceful-degradation level. The watchdog is
// the intended caller; tests may drive it directly.
func (sw *Switch) SetDegradeLevel(l DegradeLevel) {
	if l < DegradeOff || l > DegradeShedRC {
		panic(fmt.Sprintf("tsnswitch: invalid degrade level %d", int(l)))
	}
	sw.degrade = l
}

// DegradeLevel returns the current graceful-degradation level.
func (sw *Switch) DegradeLevel() DegradeLevel { return sw.degrade }

// The resource classes a switch resizes live: one row per set_* API of
// Table II, in the paper's order. core.Classes is indexed by them and
// adds set_frer_tbl after them.
const (
	SwitchTbl = iota // set_switch_tbl(unicast, multicast)
	ClassTbl         // set_class_tbl(size)
	MeterTbl         // set_meter_tbl(size)
	GateTbl          // set_gate_tbl(size)
	CBSTbl           // set_cbs_tbl(map size, CBS size)
	Queues           // set_queues(depth)
	Buffers          // set_buffers(per port)
	Rows
)

// A Misfit is one way the live state would not fit a size asked of
// Resize, which runs Fit first and changes nothing unless it is empty;
// the reconfiguration engine runs Fit as a dry run.
// At orders a switch's report: -1 for its tables, a port's number for
// that port's gates, CBS and buffers, the port count for the rest.
type Misfit struct {
	At int
	error
}

// misfit appends a finding worded "switch <id> …".
func (sw *Switch) misfit(m []Misfit, at int, format string, a ...any) []Misfit {
	return append(m, Misfit{at, fmt.Errorf("switch %d %s", sw.cfg.ID, fmt.Sprintf(format, a...))})
}

// resized panics if a leaf refused a resize its Fit check passed: the
// check covers every reason a leaf refuses.
func resized(err error) {
	if err != nil {
		panic(fmt.Sprintf("tsnswitch: resize failed after its fit check: %v", err))
	}
}

// Fit is Resize's check of row's sizes n (n[1] only for the two-size
// rows) against what is live: installed routes and entries, configured
// meters, every port's schedules, CBS bindings and live shapers, the
// deepest queue backlog, and every per-port pool's live slots
// (allocated plus fault-reserved). A shared (SMS) pool has no per-port
// count to change.
func (sw *Switch) Fit(row int, n [2]int) (m []Misfit) {
	switch row {
	case SwitchTbl:
		if l := sw.fwd.Unicast.Len(); l > n[0] {
			m = sw.misfit(m, -1, "unicast table holds %d entries > candidate size %d", l, n[0])
		}
		if l := sw.fwd.Multicast.Len(); l > n[1] {
			m = sw.misfit(m, -1, "multicast table holds %d entries > candidate size %d", l, n[1])
		}
	case ClassTbl:
		if l := sw.flt.Class.Len(); l > n[0] {
			m = sw.misfit(m, -1, "classification table holds %d entries > candidate size %d", l, n[0])
		}
	case MeterTbl:
		if req := sw.flt.Meters.RequiredCapacity(); req > n[0] {
			m = sw.misfit(m, -1, "meter %d is configured, candidate size %d too small", req-1, n[0])
		}
	case GateTbl:
		for _, p := range sw.ports {
			if in, out := p.gates[dirIn].Size(), p.gates[dirOut].Size(); in > n[0] || out > n[0] {
				m = sw.misfit(m, p.id, "port %d schedules (%d/%d entries) exceed candidate gate size %d", p.id, in, out, n[0])
			}
		}
	case CBSTbl:
		for _, p := range sw.ports {
			if l := p.bank.MapLen(); l > n[0] {
				m = sw.misfit(m, p.id, "port %d has %d CBS bindings > candidate map size %d", p.id, l, n[0])
			}
			if req := p.bank.RequiredSize(); req > n[1] {
				m = sw.misfit(m, p.id, "port %d CBS %d is live, candidate size %d too small", p.id, req-1, n[1])
			}
		}
	case Queues:
		most := 0
		for _, p := range sw.ports {
			for _, q := range p.queues {
				most = max(most, q.Len())
			}
		}
		if most > n[0] {
			m = sw.misfit(m, len(sw.ports), "queue holds %d descriptors > candidate depth %d", most, n[0])
		}
	case Buffers:
		if sw.cfg.SharedBufferNum > 0 {
			return sw.misfit(m, len(sw.ports), "uses a shared (SMS) pool; buffer_num is not live-reconfigurable")
		}
		for _, p := range sw.ports {
			if live := p.pool.InUse() + p.pool.Reserved(); live > n[0] {
				m = sw.misfit(m, p.id, "port %d holds %d live buffers > candidate buffer_num %d", p.id, live, n[0])
			}
		}
	default:
		panic(fmt.Sprintf("tsnswitch: no resource row %d", row))
	}
	return m
}

// Resize changes row's sizes to n in place and updates the switch's
// Config to match. Whatever is installed survives: routes, entries,
// meters and their token state, bindings, slopes and credit, queued
// descriptors. A size CQF cannot run with, or the first of Fit's
// misfits, is refused without side effects.
func (sw *Switch) Resize(row int, n [2]int) error {
	switch {
	case row == GateTbl && n[0] < 2:
		return fmt.Errorf("tsnswitch: gate size %d < 2 (CQF needs 2)", n[0])
	case row == Queues && n[0] <= 0:
		return fmt.Errorf("tsnswitch: non-positive queue depth %d", n[0])
	case row == Buffers && n[0] <= 0:
		return fmt.Errorf("tsnswitch: non-positive buffer count %d", n[0])
	}
	if m := sw.Fit(row, n); m != nil {
		return m[0]
	}
	c := &sw.cfg
	switch row {
	case SwitchTbl:
		resized(sw.fwd.Unicast.Resize(n[0]))
		resized(sw.fwd.Multicast.Resize(n[1]))
		c.UnicastSize, c.MulticastSize = n[0], n[1]
	case ClassTbl:
		resized(sw.flt.Class.Resize(n[0]))
		c.ClassSize = n[0]
	case MeterTbl:
		resized(sw.flt.Meters.Resize(n[0]))
		c.MeterSize = n[0]
	case GateTbl:
		c.GateSize = n[0]
	case CBSTbl:
		for _, p := range sw.ports {
			resized(p.bank.Resize(n[0], n[1]))
		}
		c.CBSMapSize, c.CBSSize = n[0], n[1]
	case Queues:
		for _, p := range sw.ports {
			for _, q := range p.queues {
				resized(q.Resize(n[0]))
			}
		}
		c.QueueDepth = n[0]
	case Buffers:
		for _, p := range sw.ports {
			resized(p.pool.Resize(n[0]))
		}
		c.BuffersPerPort = n[0]
	}
	return nil
}

// FitRebase is RebaseCQF's check: every port must still run lists of
// CQF's shape (two equal entries, as the pair the switch was built
// with), since an arbitrary synthesized 802.1Qbv schedule has no
// meaningful "same schedule at a new slot".
func (sw *Switch) FitRebase() []Misfit {
	for _, p := range sw.ports {
		if !p.gates[dirIn].IsCQF() || !p.gates[dirOut].IsCQF() {
			return sw.misfit(nil, len(sw.ports), "carries synthesized (non-CQF) schedules; slot_size is not live-reconfigurable")
		}
	}
	return nil
}

// RebaseCQF installs fresh CQF gate pairs with the given slot size on
// every port, slot grids anchored at local time base. The caller (the
// reconfiguration engine) commits at a cycle boundary so the alignment
// change never truncates an in-progress slot.
func (sw *Switch) RebaseCQF(slot sim.Time, base sim.Time) error {
	if m := sw.FitRebase(); m != nil {
		return m[0]
	}
	in, out := gate.CQF(slot, sw.cfg.TSQueueA, sw.cfg.TSQueueB)
	in, out = in.WithBase(base), out.WithBase(base)
	ins, outs := make([]*gate.GCL, len(sw.ports)), make([]*gate.GCL, len(sw.ports))
	for p := range sw.ports {
		ins[p], outs[p] = in, out
	}
	return sw.RestoreSchedules(slot, ins, outs)
}

// RestoreSchedules reinstalls previously captured per-port lists
// together with the slot size they belong to — the rollback inverse of
// RebaseCQF, restoring the exact pre-transaction gate state including
// each list's base alignment and each port's rollover cursor.
func (sw *Switch) RestoreSchedules(slot sim.Time, in, out []*gate.GCL) error {
	if slot <= 0 {
		return fmt.Errorf("tsnswitch: non-positive slot size %v", slot)
	}
	if len(in) != len(sw.ports) || len(out) != len(sw.ports) {
		return fmt.Errorf("tsnswitch: %d/%d schedules for %d ports", len(in), len(out), len(sw.ports))
	}
	for p := range sw.ports {
		if err := sw.SetPortSchedules(p, in[p], out[p]); err != nil {
			return err
		}
	}
	sw.cfg.SlotSize = slot
	return nil
}

// Violation is one invariant-audit finding.
type Violation struct {
	// Invariant names the violated invariant class: one of
	// "buffer-conservation", "queue-bounds", "gate-monotonic".
	Invariant string
	// Detail describes the specific finding.
	Detail string
}

// heldBuffers counts the pool slots port p's dataplane can account
// for: descriptors sitting in queues, the in-flight transmission, and
// a preempted frame awaiting resumption.
func (p *Port) heldBuffers() int {
	held := 0
	for _, q := range p.queues {
		held += q.Len()
	}
	if p.ifc.InFlight() {
		held++
	}
	if p.suspended != nil {
		held++
	}
	return held
}

// Audit checks the switch's conservation invariants at local time now
// and returns every violation found:
//
//   - buffer-conservation: each pool's allocated-slot count equals the
//     slots the dataplane can account for (a mismatch means a leak or
//     double free);
//   - queue-bounds: no queue holds more descriptors than its depth;
//   - gate-monotonic: every schedule has a positive cycle and its next
//     boundary lies strictly in the future.
func (sw *Switch) Audit(now sim.Time) (out []Violation) {
	found := func(invariant, format string, a ...any) {
		out = append(out, Violation{invariant, fmt.Sprintf(format, a...)})
	}
	if sw.cfg.SharedBufferNum > 0 {
		held := 0
		for _, p := range sw.ports {
			held += p.heldBuffers()
		}
		if inUse := sw.ports[0].pool.InUse(); inUse != held {
			found("buffer-conservation", "switch %d shared pool: %d slots allocated, %d accounted for", sw.cfg.ID, inUse, held)
		}
	}
	for _, p := range sw.ports {
		if sw.cfg.SharedBufferNum <= 0 {
			if inUse, held := p.pool.InUse(), p.heldBuffers(); inUse != held {
				found("buffer-conservation", "switch %d port %d: %d slots allocated, %d accounted for", sw.cfg.ID, p.id, inUse, held)
			}
		}
		for q, queue := range p.queues {
			if queue.Len() > queue.Depth() {
				found("queue-bounds", "switch %d port %d queue %d: %d descriptors exceed depth %d",
					sw.cfg.ID, p.id, q, queue.Len(), queue.Depth())
			}
		}
		for d, g := range p.gates {
			if g.Cycle() <= 0 {
				found("gate-monotonic", "switch %d port %d %s-GCL: non-positive cycle %v", sw.cfg.ID, p.id, dirNames[d], g.Cycle())
			} else if nb := g.NextBoundary(now); nb <= now {
				found("gate-monotonic", "switch %d port %d %s-GCL: next boundary %v not after %v",
					sw.cfg.ID, p.id, dirNames[d], nb, now)
			}
		}
	}
	return out
}

// PoolPressure returns the worst buffer-pool occupancy fraction across
// the switch's pools (allocated plus fault-reserved slots over
// capacity), the signal the degradation policy keys on.
func (sw *Switch) PoolPressure() float64 {
	worst := 0.0
	for i, p := range sw.ports {
		if sw.cfg.SharedBufferNum > 0 && i > 0 {
			break // one shared pool: a single sample suffices
		}
		if c := p.pool.Capacity(); c > 0 {
			worst = max(worst, float64(p.pool.InUse()+p.pool.Reserved())/float64(c))
		}
	}
	return worst
}
