package trace

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// Residence aggregates how long frames sat in one egress queue between
// enqueue and transmission start — the per-hop residence time a
// hardware bring-up reads off probe timestamps.
type Residence struct {
	Switch int
	Port   int
	Queue  int
	Count  uint64
	Sum    sim.Time
	Max    sim.Time
}

// Mean returns the average residence time.
func (r Residence) Mean() sim.Time {
	if r.Count == 0 {
		return 0
	}
	return r.Sum / sim.Time(r.Count)
}

// String implements fmt.Stringer.
func (r Residence) String() string {
	return fmt.Sprintf("sw%d.p%d q%d: %d frames, mean %v, max %v",
		r.Switch, r.Port, r.Queue, r.Count, r.Mean(), r.Max)
}

// Residences pairs each enqueue with the next transmission start of the
// same packet on the same switch/port and aggregates per (switch, port,
// queue), worst max first. Dropped packets contribute nothing, and
// neither does a transmission start whose enqueue is not among events.
func Residences(events []Event) []Residence {
	type hop struct {
		flow, seq uint32
		sw, port  int
	}
	type cell struct{ sw, port, queue int }
	waiting := make(map[hop][]Event)
	agg := make(map[cell]*Residence)
	for _, ev := range events {
		h := hop{ev.FlowID, ev.Seq, ev.Switch, ev.Port}
		switch ev.Kind {
		case KindEnqueue:
			waiting[h] = append(waiting[h], ev)
		case KindTxStart:
			for _, enq := range waiting[h] {
				k := cell{enq.Switch, enq.Port, enq.Queue}
				a, ok := agg[k]
				if !ok {
					a = &Residence{Switch: enq.Switch, Port: enq.Port, Queue: enq.Queue}
					agg[k] = a
				}
				d := ev.At - enq.At
				a.Count++
				a.Sum += d
				a.Max = max(a.Max, d)
			}
			delete(waiting, h)
		}
	}
	var out []Residence
	for _, a := range agg {
		out = append(out, *a)
	}
	// A total order: cells that tie on Max must not come out in map order.
	slices.SortFunc(out, func(a, b Residence) int {
		return cmp.Or(cmp.Compare(b.Max, a.Max), cmp.Compare(a.Switch, b.Switch),
			cmp.Compare(a.Port, b.Port), cmp.Compare(a.Queue, b.Queue))
	})
	return out
}

// TopResidences returns the n worst residence cells (by max).
func TopResidences(events []Event, n int) []Residence {
	all := Residences(events)
	if len(all) > n {
		all = all[:n]
	}
	return all
}
