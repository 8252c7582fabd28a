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
	"math"
	"math/bits"
	"slices"
	"sync"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
)

// maxHyperperiod caps the planning grid; beyond it the schedule folds
// onto the largest period (see grid.stride).
const maxHyperperiod = 1 << 16

// Cell identifies one queueing point: the egress queue of Switch
// toward Next — topology.Hop's Next, the next switch or −(host+2) — or
// AnyPort.
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

// Plan is the planner's result.
type Plan struct {
	// Offsets holds every planned TS flow's injection offset, in the
	// order the flows were given.
	Offsets []Offset
	// MaxOccupancy is the worst packets-per-slot of any queueing point:
	// the queue depth the network needs.
	MaxOccupancy int
	// PerCell reports the worst occupancy of every queueing point the
	// flows cross, in the order the given flows first reach them.
	PerCell []CellOccupancy
	// Slot echoes the slot size planned against.
	Slot sim.Time
}

// Offset is one flow's injection offset within its period, a whole
// number of slots.
type Offset struct {
	ID uint32
	At sim.Time
}

// CellOccupancy is the worst packets-per-slot of one queueing point.
type CellOccupancy struct {
	Cell      Cell
	Occupancy int
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
	rows  []int32
	class int32 // index into grid.classes
	in    int32 // the flow's position among the TS flows as given
}

// class gathers the flows of one stride and one row sequence: at hop h
// offset o reads the slots ≡ o+h (mod stride) of the hop's row, so the
// class's flows read the same slots at every offset, and offsets o and
// o+stride read the same ones. A class keeps one live score per offset
// in [0, stride); with an uncapped hyperperiod the stride is the period.
// The scores are the leaves of a min tournament tree, so the best
// offset is read from the root down instead of scanned for.
type class struct {
	stride int
	rows   []int32
	// tree is the tournament in heap order: tree[1] is the root, the
	// children of node i are 2i and 2i+1, and the second half holds the
	// leaves, the scores of offsets 0, 1, … padded to a power of two
	// with padScore. tree[0] is unused.
	tree []score
	next int32 // next class of the same intern hash, or -1
}

// score is what a flow injected at one offset would make of the slots
// it reads: their highest and their summed occupancy, each counting the
// flow itself.
type score struct {
	worst int32
	sum   int
}

// padScore fills a tournament's leaves past the stride: it loses to
// every score.
var padScore = score{worst: math.MaxInt32, sum: math.MaxInt}

// minScore is the lesser of a and b by worst, then sum; a on a tie.
func minScore(a, b score) score {
	if b.worst < a.worst || (b.worst == a.worst && b.sum < a.sum) {
		return b
	}
	return a
}

// treeLeaves is the leaf count of a stride's tournament: the stride
// rounded up to a power of two. The tree holds twice as many nodes, so
// a class costs fewer than four scores per offset.
func treeLeaves(stride int) int { return 1 << bits.Len(uint(stride-1)) }

// plant lays c's tournament out in nodes (2·treeLeaves(c.stride) long)
// with every offset at score empty. A left child never loses to its
// sibling then — the padding sits right of every offset — so each
// internal node takes its left child's score.
func (c *class) plant(nodes []score, empty score) {
	c.tree = nodes
	n := len(nodes) / 2
	for o := range nodes[n:] {
		nodes[n+o] = empty
		if o >= c.stride {
			nodes[n+o] = padScore
		}
	}
	for i := n - 1; i > 0; i-- {
		nodes[i] = nodes[2*i]
	}
}

// raise counts one more read of a slot now holding v−1 packets into
// offset o's score, and replays the matches above it. Scores only ever
// rise, so a parent that did not hold the raised child's old score got
// its score from elsewhere and keeps it; neither does a parent whose
// recomputed score is unchanged. Either ends the climb.
func (c *class) raise(o int, v int32) {
	i := len(c.tree)/2 + o
	was := c.tree[i]
	c.tree[i] = score{worst: max(was.worst, v), sum: was.sum + 1}
	for i > 1 && c.tree[i/2] == was {
		i /= 2
		m := minScore(c.tree[2*i], c.tree[2*i+1])
		if m == was {
			return
		}
		c.tree[i] = m
	}
}

// best returns the offset in [0, period) at which the next flow of c
// would add the least to the grid: smallest worst, then smallest sum,
// then lowest offset. It walks down from the root into the left child
// whenever that holds the root's score, so a tie goes to the lower
// offset; every offset past the stride repeats a score before it.
func (c *class) best() int {
	n := len(c.tree) / 2
	top, i := c.tree[1], 1
	for i < n {
		i *= 2
		if c.tree[i] != top {
			i++
		}
	}
	return i - n
}

// user is one (class, hop) pair reading a row; shift is hop mod the
// class's stride.
type user struct{ class, shift int32 }

// grid is the occupancy table every entry point books into: one dense
// row of hyper slot counters per distinct cell, cells numbered by row
// once per (flow, hop), and the live scores of every class. Grids come
// from and return to gridPool; a Plan shares none of it.
type grid struct {
	flows   []flow   // the TS flows, in input order
	cells   []Cell   // row number → cell
	classes []class  // in order of first appearance
	users   [][]user // row number → the (class, hop) pairs reading it
	hyper   int      // slots per row
	occ     []int32

	// Backing arrays carved up per call, and the class intern map.
	rows       []int32
	nodes      []score
	rowOf      []int32          // 1 + the row of a port index (switch ID without a topology), 0: none yet
	classIndex map[uint64]int32 // hash of (stride, rows) → first class
}

var gridPool = sync.Pool{New: func() any { return &grid{classIndex: make(map[uint64]int32)} }}

// prepare filters and validates the TS flows of specs (non-TS flows are
// ignored), converts periods to slots, fixes the capped hyperperiod,
// numbers every hop's cell and interns every flow's class, and sets each
// class's scores to the empty grid's. The caller releases the grid.
func prepare(specs []*flows.Spec, slot sim.Time, topo *topology.Topology) (*grid, error) {
	if slot <= 0 {
		return nil, fmt.Errorf("itp: non-positive slot %v", slot)
	}
	g := gridPool.Get().(*grid)
	g.flows, g.cells, g.classes, g.hyper = g.flows[:0], g.cells[:0], g.classes[:0], 1
	hops, longest, keys := 0, 1, 0
	if topo != nil {
		keys = topo.Ports()
	}
	for _, s := range specs {
		if s.Class != ethernet.ClassTS || s.Period <= 0 {
			continue
		}
		var err error
		if len(s.Path) == 0 {
			err = fmt.Errorf("itp: flow %d has no path", s.ID)
		} else if s.Period < slot {
			err = fmt.Errorf("itp: flow %d period %v below slot %v", s.ID, s.Period, slot)
		} else if topo == nil && slices.Min(s.Path) < 0 {
			err = fmt.Errorf("itp: flow %d path has a negative switch", s.ID)
		}
		if err != nil {
			g.release()
			return nil, err
		}
		p := int(s.Period / slot)
		g.flows = append(g.flows, flow{spec: s, in: int32(len(g.flows)), period: p})
		hops += len(s.Path)
		longest = max(longest, p)
		if g.hyper != 0 {
			g.hyper = lcm(g.hyper, p)
		}
		if topo == nil {
			keys = max(keys, slices.Max(s.Path)+1)
		}
	}
	if g.hyper == 0 {
		g.hyper = longest // cap: fold onto the largest period
	}
	g.rows = slices.Grow(g.rows[:0], hops)[:hops]
	g.rowOf = slices.Grow(g.rowOf[:0], keys)[:keys]
	clear(g.rowOf)
	rows := g.rows
	for i := range g.flows {
		f := &g.flows[i]
		n := len(f.spec.Path)
		f.rows, rows = rows[:n:n], rows[n:]
		for h, sw := range f.spec.Path {
			key, cell := sw, Cell{Switch: sw, Next: AnyPort}
			if topo != nil {
				hop, err := topo.Egress(f.spec.Path, f.spec.DstHost, h)
				if err != nil {
					err = fmt.Errorf("itp: flow %d: %w", f.spec.ID, err)
					g.release()
					return nil, err
				}
				key, cell = hop.Index, Cell{Switch: hop.Switch, Next: hop.Next}
			}
			if g.rowOf[key] == 0 {
				g.cells = append(g.cells, cell)
				g.rowOf[key] = int32(len(g.cells))
			}
			f.rows[h] = g.rowOf[key] - 1
		}
		f.class = g.intern(f)
	}
	g.occ = slices.Grow(g.occ[:0], len(g.cells)*g.hyper)[:len(g.cells)*g.hyper]
	clear(g.occ)
	n := 0
	for i := range g.classes {
		n += 2 * treeLeaves(g.classes[i].stride)
	}
	g.nodes = slices.Grow(g.nodes[:0], n)[:n]
	nodes := g.nodes
	g.users = slices.Grow(g.users[:0], len(g.cells))[:len(g.cells)]
	for r := range g.users {
		g.users[r] = g.users[r][:0]
	}
	for i := range g.classes {
		c := &g.classes[i]
		m := 2 * treeLeaves(c.stride)
		c.plant(nodes[:m:m], score{worst: 1, sum: len(c.rows) * g.hyper / c.stride}) // the empty grid's
		nodes = nodes[m:]
		for h, r := range c.rows {
			g.users[r] = append(g.users[r], user{class: int32(i), shift: int32(h % c.stride)})
		}
	}
	return g, nil
}

// intern returns f's class, appending a new one for a (stride, rows)
// not seen before.
func (g *grid) intern(f *flow) int32 {
	st := g.stride(f)
	h := uint64(st)
	for _, r := range f.rows {
		h = (h ^ uint64(r)) * 1099511628211 // FNV-1a over the row numbers
	}
	first, ok := g.classIndex[h]
	if !ok {
		first = -1
	}
	for c := first; c >= 0; c = g.classes[c].next {
		if g.classes[c].stride == st && slices.Equal(g.classes[c].rows, f.rows) {
			return c
		}
	}
	c := int32(len(g.classes))
	g.classes = append(g.classes, class{stride: st, rows: f.rows, next: first})
	g.classIndex[h] = c
	return c
}

// release returns g to the pool, holding no spec.
func (g *grid) release() {
	clear(g.flows)
	clear(g.classIndex)
	gridPool.Put(g)
}

func (g *grid) row(r int32) []int32 { return g.occ[int(r)*g.hyper:][:g.hyper] }

// stride is the spacing of f's bookings along a row: its period when
// that divides hyper, which only a capped hyperperiod can break. Then
// the occurrences o+k·p reach, mod hyper, every slot congruent to o mod
// gcd(p, hyper); booking them all bounds the true occupancy from above.
func (g *grid) stride(f *flow) int { return gcd(f.period, g.hyper) }

// book adds f injected at slot offset o to the grid and keeps every
// class's scores live: a class reads slot s of a row at hop h from the
// one offset ≡ s−h (mod its stride), once, so raising s to v adds one
// to that offset's sum and lifts its worst to at least v+1. Bookings
// only ever raise a slot, so the running max and sum are exact.
func (g *grid) book(f *flow, o int) {
	st := g.stride(f)
	reps := g.hyper / st
	for h, r := range f.rows {
		row, users := g.row(r), g.users[r]
		idx := o + h
		if idx >= g.hyper {
			idx %= g.hyper
		}
		for n := reps; n > 0; n-- {
			row[idx]++
			v := row[idx] + 1
			for _, u := range users {
				c := &g.classes[u.class]
				at := idx - int(u.shift)
				if at < 0 {
					at += c.stride
				} else if at >= c.stride {
					at %= c.stride // only a stride below hyper lands here
				}
				c.raise(at, v)
			}
			if idx += st; idx >= g.hyper {
				idx -= g.hyper
			}
		}
	}
}

// place books every flow, in g.flows order, at the slot offset choose
// picks for it against the grid so far, and reports the result.
func (g *grid) place(slot sim.Time, choose func(i int, f *flow) int) *Plan {
	p := &Plan{
		Offsets: make([]Offset, len(g.flows)),
		PerCell: make([]CellOccupancy, len(g.cells)),
		Slot:    slot,
	}
	for i := range g.flows {
		f := &g.flows[i]
		o := choose(i, f)
		g.book(f, o)
		p.Offsets[f.in] = Offset{ID: f.spec.ID, At: sim.Time(o) * slot}
	}
	for r, c := range g.cells {
		worst := int(slices.Max(g.row(int32(r))))
		p.PerCell[r] = CellOccupancy{Cell: c, Occupancy: worst}
		p.MaxOccupancy = max(p.MaxOccupancy, worst)
	}
	return p
}

// Compute plans offsets for the TS flows in specs. Non-TS flows are
// ignored. slot is the CQF slot size. With topo every egress port is
// its own queueing point, resolved by topo.Egress, so each path must
// follow topo's trunks to its destination host's switch; nil merges a
// switch's ports into one AnyPort cell. Flows must have non-empty
// paths.
func Compute(specs []*flows.Spec, slot sim.Time, topo *topology.Topology) (*Plan, error) {
	g, err := prepare(specs, slot, topo)
	if err != nil {
		return nil, err
	}
	// Plan longest-period flows first: they have the most offset
	// freedom relative to their footprint, and short-period flows are
	// the binding constraint placed against an almost-final grid.
	defer g.release()
	g.longestFirst()
	return g.place(slot, func(_ int, f *flow) int { return g.classes[f.class].best() }), nil
}

// longestFirst puts g.flows in Compute's planning order.
func (g *grid) longestFirst() {
	slices.SortStableFunc(g.flows, func(a, b flow) int {
		if a.period != b.period {
			return cmp.Compare(b.period, a.period)
		}
		return cmp.Compare(a.spec.ID, b.spec.ID)
	})
}

// Apply writes the planned offsets into the specs: each spec takes the
// offset of the planned flow with its ID, if there is one. The search
// for a spec starts after the previous spec's flow, so specs given in
// planning order — all of them, or a run of them such as a batch added
// last — are matched in one pass.
func (p *Plan) Apply(specs []*flows.Spec) {
	n, next := len(p.Offsets), 0
	for _, s := range specs {
		for i, k := next, 0; k < n; i, k = i+1, k+1 {
			if i == n {
				i = 0
			}
			if o := p.Offsets[i]; o.ID == s.ID {
				s.Offset, next = o.At, i+1
				break
			}
		}
	}
}
