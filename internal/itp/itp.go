// Package itp implements Injection Time Planning, the flow-scheduling
// mechanism of the authors' companion paper ([24], INFOCOM 2020) that
// the evaluation's queue-depth choice rests on ("the queue depth is 8
// here with our flow scheduling algorithm").
//
// Under CQF, a packet injected in slot s occupies the TS queue of hop
// h's egress port during slot s+h. If every flow injects at phase 0,
// all packets of a switch pile into the same slot and the queue depth
// must cover the whole flow count. ITP staggers each flow's injection
// offset within its period so that per-(port, slot) occupancy — and
// therefore the required queue depth and buffer count — stays small.
//
// The planner here is the greedy heuristic: flows are placed one at a
// time, each choosing the offset that minimizes the worst occupancy the
// flow would create along its own path.
package itp

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// maxHyperperiod caps the planning grid; beyond it the schedule folds
// onto the largest period (see grid.stride).
const maxHyperperiod = 1 << 16

// Cell identifies one queueing point: the egress queue of Switch
// toward Next. Next is whatever distinguishes the switch's egress
// ports for the caller (the next switch, a host code), or AnyPort.
type Cell struct{ Switch, Next int }

// AnyPort as Cell.Next merges all egress ports of a switch into one
// queueing point.
const AnyPort = -1

// String renders "sw3->4", or "sw3" for an AnyPort cell.
func (c Cell) String() string {
	if c.Next == AnyPort {
		return fmt.Sprintf("sw%d", c.Switch)
	}
	return fmt.Sprintf("sw%d->%d", c.Switch, c.Next)
}

// CellKey identifies the queueing point of flow spec at hop index hop
// (0-based within spec.Path). The default keys by switch ID alone,
// which conservatively merges all ports of a switch; testbeds supply a
// port-aware function.
type CellKey func(spec *flows.Spec, hop int) Cell

// DefaultCellKey keys by the switch at the hop.
func DefaultCellKey(spec *flows.Spec, hop int) Cell {
	return Cell{Switch: spec.Path[hop], Next: AnyPort}
}

// Plan is the planner's result.
type Plan struct {
	// Offsets maps flow ID to its injection offset within the period
	// (a whole number of slots).
	Offsets map[uint32]sim.Time
	// MaxOccupancy is the worst packets-per-slot of any queueing point:
	// the queue depth the network needs.
	MaxOccupancy int
	// PerCell reports the worst occupancy per queueing point.
	PerCell map[Cell]int
	// Slot echoes the slot size planned against.
	Slot sim.Time
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int {
	l := a / gcd(a, b) * b
	if l <= 0 || l > maxHyperperiod {
		return 0 // overflow sentinel; caller caps
	}
	return l
}

// flow is one TS flow prepared for planning.
type flow struct {
	spec *flows.Spec
	// period is in slots (floor: conservative — occupancy repeats at
	// least this often).
	period int
	// rows[h] is the grid row of the cell at hop h.
	rows []int32
}

// grid is the occupancy table every entry point books into: one dense
// row of hyper slot counters per distinct cell, cells interned to row
// numbers once per (flow, hop).
type grid struct {
	flows []flow // the TS flows, in input order
	cells []Cell // row number → cell
	hyper int    // slots per row
	occ   []int32
}

// prepare filters and validates the TS flows of specs (non-TS flows are
// ignored), converts periods to slots, fixes the capped hyperperiod and
// interns every hop's cell.
func prepare(specs []*flows.Spec, slot sim.Time, key CellKey) (*grid, error) {
	if slot <= 0 {
		return nil, fmt.Errorf("itp: non-positive slot %v", slot)
	}
	if key == nil {
		key = DefaultCellKey
	}
	g := &grid{flows: make([]flow, 0, len(specs)), hyper: 1}
	hops, longest := 0, 1
	for _, s := range specs {
		if s.Class != ethernet.ClassTS || s.Period <= 0 {
			continue
		}
		if len(s.Path) == 0 {
			return nil, fmt.Errorf("itp: flow %d has no path", s.ID)
		}
		if s.Period < slot {
			return nil, fmt.Errorf("itp: flow %d period %v below slot %v", s.ID, s.Period, slot)
		}
		p := int(s.Period / slot)
		g.flows = append(g.flows, flow{spec: s, period: p})
		hops += len(s.Path)
		longest = max(longest, p)
		if g.hyper != 0 {
			g.hyper = lcm(g.hyper, p)
		}
	}
	if g.hyper == 0 {
		g.hyper = longest // cap: fold onto the largest period
	}
	rows := make([]int32, hops)
	index := make(map[Cell]int32)
	for i := range g.flows {
		f := &g.flows[i]
		n := len(f.spec.Path)
		f.rows, rows = rows[:n:n], rows[n:]
		for h := range f.rows {
			c := key(f.spec, h)
			r, ok := index[c]
			if !ok {
				r = int32(len(g.cells))
				index[c] = r
				g.cells = append(g.cells, c)
			}
			f.rows[h] = r
		}
	}
	g.occ = make([]int32, len(g.cells)*g.hyper)
	return g, nil
}

func (g *grid) row(r int32) []int32 { return g.occ[int(r)*g.hyper:][:g.hyper] }

// stride is the spacing of f's bookings along a row: its period when
// that divides hyper, which only a capped hyperperiod can break. Then
// the occurrences o+k·p reach, mod hyper, every slot congruent to o mod
// gcd(p, hyper); booking them all bounds the true occupancy from above.
func (g *grid) stride(f *flow) int { return gcd(f.period, g.hyper) }

// book adds f injected at slot offset o to the grid.
func (g *grid) book(f *flow, o int) {
	st := g.stride(f)
	for h, r := range f.rows {
		row := g.row(r)
		idx := (o + h) % g.hyper
		for n := g.hyper / st; n > 0; n-- {
			row[idx]++
			if idx += st; idx >= g.hyper {
				idx -= g.hyper
			}
		}
	}
}

// bestOffset returns the offset in [0, period) at which f would add
// the least to the grid: smallest worst cell, then smallest summed
// occupancy, then lowest offset. It goes hop-outer: candidate offsets
// 0..p-1 of one (hop, repetition) read p consecutive slots of one row,
// two wrap-free runs, accumulated per offset into the scratch slices.
// Worst and sum do not depend on visiting order, and the ascending scan
// at the end takes only strict improvements, so ties resolve to the
// lowest offset exactly as an offset-outer search would.
func (g *grid) bestOffset(f *flow, worst []int32, sum []int) int {
	p, st := f.period, g.stride(f)
	worst, sum = worst[:p], sum[:p]
	clear(worst)
	clear(sum)
	for h, r := range f.rows {
		row := g.row(r)
		start := h % g.hyper
		for n := g.hyper / st; n > 0; n-- {
			head := min(p, g.hyper-start)
			accumulate(row[start:start+head], worst, sum)
			accumulate(row[:p-head], worst[head:], sum[head:])
			if start += st; start >= g.hyper {
				start -= g.hyper
			}
		}
	}
	best := 0
	for o := 1; o < p; o++ {
		if worst[o] < worst[best] || (worst[o] == worst[best] && sum[o] < sum[best]) {
			best = o
		}
	}
	return best
}

// accumulate folds the occupancy one more packet would make of each
// slot of seg into the per-offset worst and sum.
func accumulate(seg, worst []int32, sum []int) {
	worst, sum = worst[:len(seg)], sum[:len(seg)]
	for o, v := range seg {
		v++
		sum[o] += int(v)
		if v > worst[o] {
			worst[o] = v
		}
	}
}

// place books every flow, in g.flows order, at the slot offset choose
// picks for it against the grid so far, and reports the result.
func (g *grid) place(slot sim.Time, choose func(i int, f *flow) int) *Plan {
	p := &Plan{
		Offsets: make(map[uint32]sim.Time, len(g.flows)),
		PerCell: make(map[Cell]int, len(g.cells)),
		Slot:    slot,
	}
	for i := range g.flows {
		f := &g.flows[i]
		o := choose(i, f)
		g.book(f, o)
		p.Offsets[f.spec.ID] = sim.Time(o) * slot
	}
	for r, c := range g.cells {
		worst := int(slices.Max(g.row(int32(r))))
		p.PerCell[c] = worst
		p.MaxOccupancy = max(p.MaxOccupancy, worst)
	}
	return p
}

// Compute plans offsets for the TS flows in specs. Non-TS flows are
// ignored. slot is the CQF slot size; key may be nil for
// DefaultCellKey. Flows must have non-empty paths.
func Compute(specs []*flows.Spec, slot sim.Time, key CellKey) (*Plan, error) {
	g, err := prepare(specs, slot, key)
	if err != nil {
		return nil, err
	}
	// Plan longest-period flows first: they have the most offset
	// freedom relative to their footprint, and short-period flows are
	// the binding constraint placed against an almost-final grid.
	slices.SortStableFunc(g.flows, func(a, b flow) int {
		if a.period != b.period {
			return cmp.Compare(b.period, a.period)
		}
		return cmp.Compare(a.spec.ID, b.spec.ID)
	})
	worst, sum := make([]int32, g.hyper), make([]int, g.hyper) // no period exceeds hyper
	return g.place(slot, func(_ int, f *flow) int { return g.bestOffset(f, worst, sum) }), nil
}

// Apply writes the planned offsets into the specs.
func (p *Plan) Apply(specs []*flows.Spec) {
	for _, s := range specs {
		if off, ok := p.Offsets[s.ID]; ok {
			s.Offset = off
		}
	}
}

// Occupancy evaluates the worst per-cell occupancy of specs using the
// offsets already present in the specs (e.g. all-zero for the naive
// baseline the ablation compares against).
func Occupancy(specs []*flows.Spec, slot sim.Time, key CellKey) (int, error) {
	g, err := prepare(specs, slot, key)
	if err != nil {
		return 0, err
	}
	for i := range g.flows {
		f := &g.flows[i]
		g.book(f, int(f.spec.Offset/slot))
	}
	worst := int32(0)
	for _, v := range g.occ {
		worst = max(worst, v)
	}
	return int(worst), nil
}
