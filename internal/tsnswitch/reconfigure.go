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

// ResizeSwitchTbl resizes the unicast/multicast switch tables
// (set_switch_tbl) without disturbing installed routes.
func (sw *Switch) ResizeSwitchTbl(unicast, multicast int) error {
	if err := sw.fwd.Unicast.Resize(unicast); err != nil {
		return err
	}
	if err := sw.fwd.Multicast.Resize(multicast); err != nil {
		// Undo the half-applied unicast change; restoring the previous
		// capacity cannot fail (occupancy fit it a moment ago).
		if uerr := sw.fwd.Unicast.Resize(sw.cfg.UnicastSize); uerr != nil {
			panic(fmt.Sprintf("tsnswitch: unicast resize rollback failed: %v", uerr))
		}
		return err
	}
	sw.cfg.UnicastSize, sw.cfg.MulticastSize = unicast, multicast
	return nil
}

// ResizeClassTbl resizes the classification table (set_class_tbl).
func (sw *Switch) ResizeClassTbl(size int) error {
	if err := sw.flt.Class.Resize(size); err != nil {
		return err
	}
	sw.cfg.ClassSize = size
	return nil
}

// ResizeMeterTbl resizes the meter table (set_meter_tbl), preserving
// configured meters and their token state.
func (sw *Switch) ResizeMeterTbl(size int) error {
	if err := sw.flt.Meters.Resize(size); err != nil {
		return err
	}
	sw.cfg.MeterSize = size
	return nil
}

// SetGateSize changes the gate table budget (set_gate_tbl). The
// installed schedules must already fit the new size; CQF needs 2.
func (sw *Switch) SetGateSize(size int) error {
	if size < 2 {
		return fmt.Errorf("tsnswitch: gate size %d < 2 (CQF needs 2)", size)
	}
	for _, p := range sw.ports {
		if in, out := p.gates[dirIn].Size(), p.gates[dirOut].Size(); in > size || out > size {
			return fmt.Errorf("tsnswitch: port %d schedule of %d/%d entries exceeds gate size %d",
				p.id, in, out, size)
		}
	}
	sw.cfg.GateSize = size
	return nil
}

// ResizeCBS resizes every port's CBS MAP and CBS tables (set_cbs_tbl),
// preserving bindings, slopes and credit.
func (sw *Switch) ResizeCBS(mapSize, cbsSize int) error {
	for _, p := range sw.ports {
		if p.bank.MapLen() > mapSize {
			return fmt.Errorf("tsnswitch: port %d has %d CBS bindings, map size %d too small",
				p.id, p.bank.MapLen(), mapSize)
		}
		if req := p.bank.RequiredSize(); req > cbsSize {
			return fmt.Errorf("tsnswitch: port %d needs %d CBS entries, size %d too small",
				p.id, req, cbsSize)
		}
	}
	for _, p := range sw.ports {
		if err := p.bank.Resize(mapSize, cbsSize); err != nil {
			panic(fmt.Sprintf("tsnswitch: CBS resize failed after precheck: %v", err))
		}
	}
	sw.cfg.CBSMapSize, sw.cfg.CBSSize = mapSize, cbsSize
	return nil
}

// ResizeQueues changes every queue's descriptor depth (set_queues),
// preserving queued descriptors. It fails if any live queue occupancy
// exceeds the new depth.
func (sw *Switch) ResizeQueues(depth int) error {
	if depth <= 0 {
		return fmt.Errorf("tsnswitch: non-positive queue depth %d", depth)
	}
	for _, p := range sw.ports {
		for q, queue := range p.queues {
			if queue.Len() > depth {
				return fmt.Errorf("tsnswitch: port %d queue %d holds %d descriptors, depth %d too small",
					p.id, q, queue.Len(), depth)
			}
		}
	}
	for _, p := range sw.ports {
		for _, queue := range p.queues {
			if err := queue.Resize(depth); err != nil {
				panic(fmt.Sprintf("tsnswitch: queue resize failed after precheck: %v", err))
			}
		}
	}
	sw.cfg.QueueDepth = depth
	return nil
}

// ResizeBuffers changes every per-port buffer pool's capacity
// (set_buffers). It fails in SMS mode — the shared pool is resized
// with ResizeSharedBuffers — or when a pool's live occupancy (allocated
// plus fault-reserved slots) exceeds the new capacity.
func (sw *Switch) ResizeBuffers(perPort int) error {
	if sw.cfg.SharedBufferNum > 0 {
		return fmt.Errorf("tsnswitch: switch uses a shared (SMS) pool; use ResizeSharedBuffers")
	}
	if perPort <= 0 {
		return fmt.Errorf("tsnswitch: non-positive buffer count %d", perPort)
	}
	for _, p := range sw.ports {
		if live := p.pool.InUse() + p.pool.Reserved(); live > perPort {
			return fmt.Errorf("tsnswitch: port %d has %d live buffers, capacity %d too small",
				p.id, live, perPort)
		}
	}
	for _, p := range sw.ports {
		if err := p.pool.Resize(perPort); err != nil {
			panic(fmt.Sprintf("tsnswitch: pool resize failed after precheck: %v", err))
		}
	}
	sw.cfg.BuffersPerPort = perPort
	return nil
}

// ResizeSharedBuffers changes the SMS shared pool's capacity.
func (sw *Switch) ResizeSharedBuffers(total int) error {
	if sw.cfg.SharedBufferNum <= 0 {
		return fmt.Errorf("tsnswitch: switch uses per-port pools; use ResizeBuffers")
	}
	if total <= 0 {
		return fmt.Errorf("tsnswitch: non-positive buffer count %d", total)
	}
	if err := sw.ports[0].pool.Resize(total); err != nil {
		return err
	}
	sw.cfg.SharedBufferNum = total
	return nil
}

// CQFSchedules reports whether every port still runs lists of CQF's
// shape (two equal entries, as the pair the switch was built with) —
// the precondition for changing the slot size, since an arbitrary
// synthesized 802.1Qbv schedule has no meaningful "same schedule at a
// new slot".
func (sw *Switch) CQFSchedules() bool {
	for _, p := range sw.ports {
		if !p.gates[dirIn].IsCQF() || !p.gates[dirOut].IsCQF() {
			return false
		}
	}
	return true
}

// RebaseCQF installs fresh CQF gate pairs with the given slot size on
// every port, slot grids anchored at local time base. The caller (the
// reconfiguration engine) commits at a cycle boundary so the alignment
// change never truncates an in-progress slot.
func (sw *Switch) RebaseCQF(slot sim.Time, base sim.Time) error {
	if slot <= 0 {
		return fmt.Errorf("tsnswitch: non-positive slot size %v", slot)
	}
	if !sw.CQFSchedules() {
		return fmt.Errorf("tsnswitch: ports carry non-CQF schedules; cannot rebase slot size")
	}
	in, out := gate.CQF(slot, sw.cfg.TSQueueA, sw.cfg.TSQueueB)
	in, out = in.WithBase(base), out.WithBase(base)
	for p := range sw.ports {
		if err := sw.SetPortSchedules(p, in, out); err != nil {
			return err
		}
	}
	sw.cfg.SlotSize = slot
	return nil
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

// MaxQueueLen returns the largest current occupancy across every queue
// of every port — the live state a queue-depth shrink must clear.
func (sw *Switch) MaxQueueLen() int {
	most := 0
	for _, p := range sw.ports {
		for _, q := range p.queues {
			if q.Len() > most {
				most = q.Len()
			}
		}
	}
	return most
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
func (sw *Switch) Audit(now sim.Time) []Violation {
	var out []Violation
	if sw.cfg.SharedBufferNum > 0 {
		held := 0
		for _, p := range sw.ports {
			held += p.heldBuffers()
		}
		if inUse := sw.ports[0].pool.InUse(); inUse != held {
			out = append(out, Violation{
				Invariant: "buffer-conservation",
				Detail: fmt.Sprintf("switch %d shared pool: %d slots allocated, %d accounted for",
					sw.cfg.ID, inUse, held),
			})
		}
	}
	for _, p := range sw.ports {
		if sw.cfg.SharedBufferNum <= 0 {
			if inUse, held := p.pool.InUse(), p.heldBuffers(); inUse != held {
				out = append(out, Violation{
					Invariant: "buffer-conservation",
					Detail: fmt.Sprintf("switch %d port %d: %d slots allocated, %d accounted for",
						sw.cfg.ID, p.id, inUse, held),
				})
			}
		}
		for q, queue := range p.queues {
			if queue.Len() > queue.Depth() {
				out = append(out, Violation{
					Invariant: "queue-bounds",
					Detail: fmt.Sprintf("switch %d port %d queue %d: %d descriptors exceed depth %d",
						sw.cfg.ID, p.id, q, queue.Len(), queue.Depth()),
				})
			}
		}
		for d, g := range p.gates {
			dir := dirNames[d]
			if g.Cycle() <= 0 {
				out = append(out, Violation{
					Invariant: "gate-monotonic",
					Detail: fmt.Sprintf("switch %d port %d %s-GCL: non-positive cycle %v",
						sw.cfg.ID, p.id, dir, g.Cycle()),
				})
			} else if nb := g.NextBoundary(now); nb <= now {
				out = append(out, Violation{
					Invariant: "gate-monotonic",
					Detail: fmt.Sprintf("switch %d port %d %s-GCL: next boundary %v not after %v",
						sw.cfg.ID, p.id, dir, nb, now),
				})
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
			if f := float64(p.pool.InUse()+p.pool.Reserved()) / float64(c); f > worst {
				worst = f
			}
		}
	}
	return worst
}
