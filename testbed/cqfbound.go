package testbed

import (
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/analyzer"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// CQFBound is the paper's Eq. (1), the one statement of it: under
// Cyclic Queuing and Forwarding with slot T, a TS frame crossing h
// switches arrives within [(h−1)·T, (h+1)·T].
func CQFBound(h int, slot sim.Time) (lo, hi sim.Time) {
	return sim.Time(h-1) * slot, sim.Time(h+1) * slot
}

// BoundViolation is one side of Eq. (1) one TS flow broke.
type BoundViolation struct {
	Flow uint32
	H    int
	// Side is "lower" (the fastest delivery, Measured, beat Bound) or
	// "upper" (the slowest exceeded it).
	Side            string
	Bound, Measured sim.Time
	// Worst is the slowest delivery's decomposition; upper side only.
	Worst analyzer.Components
}

func (v BoundViolation) String() string {
	if v.Side == "upper" {
		return fmt.Sprintf("flow %d (h=%d): max %v above upper bound %v, worst delivery %+v",
			v.Flow, v.H, v.Measured, v.Bound, v.Worst)
	}
	return fmt.Sprintf("flow %d (h=%d): min %v below lower bound %v", v.Flow, v.H, v.Measured, v.Bound)
}

// CheckCQFBound holds every TS flow the network was built with to
// Eq. (1) after Run, and returns one violation per side a flow broke.
// h is the flow's path length, for an FRER flow the shorter of its two
// member paths (the first copy to arrive is the one delivered), and T
// the design's slot. A flow that delivered nothing has no latency to
// judge: its loss is the loss oracles' concern.
func (n *Net) CheckCQFBound() []BoundViolation {
	var out []BoundViolation
	for _, spec := range n.opts.Flows {
		st := n.Collector.Flow(spec.ID)
		if spec.Class != ethernet.ClassTS || st == nil || st.Received == 0 {
			continue
		}
		h := len(spec.Path)
		if spec.FRER {
			h = min(h, len(spec.AltPath))
		}
		lo, hi := CQFBound(h, n.opts.Design.Config.SlotSize)
		if st.MinLat < lo {
			out = append(out, BoundViolation{Flow: spec.ID, H: h, Side: "lower", Bound: lo, Measured: st.MinLat})
		}
		if st.MaxLat > hi {
			out = append(out, BoundViolation{Flow: spec.ID, H: h, Side: "upper", Bound: hi, Measured: st.MaxLat, Worst: st.Worst})
		}
	}
	return out
}
