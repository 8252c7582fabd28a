package core

import (
	"fmt"
	"sort"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/itp"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// FeasibilityIssue flags one queueing point whose per-slot traffic
// cannot drain within a slot — the constraint behind the §III.C
// guideline "a packet received at a time slot must be sent at the next
// time slot": if the frames CQF parks in one slot take longer than a
// slot to serialize, the schedule silently falls behind and queues
// grow without bound.
type FeasibilityIssue struct {
	Cell      string
	Occupancy int
	// DrainTime is the worst-case serialization time of one slot's
	// frames at the cell's egress rate.
	DrainTime sim.Time
	Slot      sim.Time
}

// String implements fmt.Stringer.
func (i FeasibilityIssue) String() string {
	return fmt.Sprintf("%s: %d frames/slot need %v to drain > slot %v",
		i.Cell, i.Occupancy, i.DrainTime, i.Slot)
}

// CheckSlotFeasibility verifies that every queueing point of the plan
// can serialize a full slot's worth of TS frames within one slot at
// egress rate. rate is the slowest egress rate TS flows face (the
// access rate in mixed-speed networks); maxWire is the largest TS
// frame. Returns the violating cells, worst first; empty means the
// slot size is feasible.
func CheckSlotFeasibility(plan *itp.Plan, rate ethernet.Rate, maxWire int) []FeasibilityIssue {
	if plan == nil || rate <= 0 || maxWire <= 0 {
		return nil
	}
	perFrame := ethernet.TxTime(maxWire+ethernet.OverheadBytes, rate)
	var out []FeasibilityIssue
	for _, c := range plan.PerCell {
		drain := perFrame * sim.Time(c.Occupancy)
		if drain > plan.Slot {
			out = append(out, FeasibilityIssue{
				Cell: c.Cell.String(), Occupancy: c.Occupancy, DrainTime: drain, Slot: plan.Slot,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DrainTime != out[j].DrainTime {
			return out[i].DrainTime > out[j].DrainTime
		}
		return out[i].Cell < out[j].Cell
	})
	return out
}

// MinFeasibleSlot returns the smallest slot size (rounded up to the
// given quantum) that drains the plan's worst occupancy at the given
// rate. It answers "how slow can my field-device links be before the
// 65 µs slot breaks" in reverse.
func MinFeasibleSlot(occupancy int, rate ethernet.Rate, maxWire int, quantum sim.Time) sim.Time {
	if occupancy <= 0 || rate <= 0 || maxWire <= 0 {
		return 0
	}
	if quantum <= 0 {
		quantum = sim.Microsecond
	}
	need := ethernet.TxTime(maxWire+ethernet.OverheadBytes, rate) * sim.Time(occupancy)
	return (need + quantum - 1) / quantum * quantum
}
