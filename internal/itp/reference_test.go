package itp

// The string-keyed planner this package shipped until the dense cell
// grid replaced it, moved here verbatim (identifiers prefixed ref, the
// shared constant maxHyperperiod kept) as the oracle for the
// equivalence tests below. Its capped-hyperperiod fold under-books
// (see TestFoldedHyperperiodCoversTrueOccupancy), so equivalence is
// asserted only where the periods' lcm fits the cap — which is where
// the two are required to agree.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
)

type refCellKey func(spec *flows.Spec, hop int) string

func refDefaultCellKey(spec *flows.Spec, hop int) string {
	return fmt.Sprintf("sw%d", spec.Path[hop])
}

type refPlan struct {
	Offsets      map[uint32]sim.Time
	MaxOccupancy int
	PerCell      map[string]int
	Slot         sim.Time
}

// gcd/lcm over int64.
func refGCD(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func refLCM(a, b int64) int64 {
	g := refGCD(a, b)
	l := a / g * b
	if l <= 0 || l > maxHyperperiod {
		return 0 // overflow sentinel; caller caps
	}
	return l
}

// referenceCompute is Compute as it stood before the dense grid.
func referenceCompute(specs []*flows.Spec, slot sim.Time, key refCellKey) (*refPlan, error) {
	if slot <= 0 {
		return nil, fmt.Errorf("itp: non-positive slot %v", slot)
	}
	if key == nil {
		key = refDefaultCellKey
	}
	var ts []*flows.Spec
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
		ts = append(ts, s)
	}
	plan := &refPlan{
		Offsets: make(map[uint32]sim.Time),
		PerCell: make(map[string]int),
		Slot:    slot,
	}
	if len(ts) == 0 {
		return plan, nil
	}

	// Periods in slots (floor: conservative — occupancy repeats at
	// least this often).
	periodSlots := make(map[uint32]int64, len(ts))
	var hyper int64 = 1
	for _, s := range ts {
		p := int64(s.Period / slot)
		if p < 1 {
			p = 1
		}
		periodSlots[s.ID] = p
		if hyper != 0 {
			hyper = refLCM(hyper, p)
		}
	}
	if hyper == 0 {
		// Cap: fold onto the largest period.
		for _, p := range periodSlots {
			if p > hyper {
				hyper = p
			}
		}
	}

	// Plan longest-period flows first: they have the most offset
	// freedom relative to their footprint, and short-period flows are
	// the binding constraint placed against an almost-final grid.
	order := append([]*flows.Spec(nil), ts...)
	sort.SliceStable(order, func(i, j int) bool {
		pi, pj := periodSlots[order[i].ID], periodSlots[order[j].ID]
		if pi != pj {
			return pi > pj
		}
		return order[i].ID < order[j].ID
	})

	grid := make(map[string][]int)
	cells := func(s *flows.Spec) []string {
		out := make([]string, len(s.Path))
		for h := range s.Path {
			out[h] = key(s, h)
		}
		return out
	}
	for _, s := range order {
		p := periodSlots[s.ID]
		reps := hyper / p
		ck := cells(s)
		for _, c := range ck {
			if grid[c] == nil {
				grid[c] = make([]int, hyper)
			}
		}
		bestOffset, bestWorst, bestSum := int64(0), int(1<<30), int(1<<30)
		for o := int64(0); o < p; o++ {
			worst, sum := 0, 0
			for h, c := range ck {
				row := grid[c]
				for r := int64(0); r < reps; r++ {
					idx := (o + int64(h) + r*p) % hyper
					v := row[idx] + 1
					sum += v
					if v > worst {
						worst = v
					}
				}
			}
			if worst < bestWorst || (worst == bestWorst && sum < bestSum) {
				bestOffset, bestWorst, bestSum = o, worst, sum
			}
		}
		for h, c := range ck {
			row := grid[c]
			for r := int64(0); r < reps; r++ {
				row[(bestOffset+int64(h)+r*p)%hyper]++
			}
		}
		plan.Offsets[s.ID] = sim.Time(bestOffset) * slot
	}

	for c, row := range grid {
		worst := 0
		for _, v := range row {
			if v > worst {
				worst = v
			}
		}
		plan.PerCell[c] = worst
		if worst > plan.MaxOccupancy {
			plan.MaxOccupancy = worst
		}
	}
	return plan, nil
}

// --- equivalence: the dense-grid planner against the oracle ---

// refPortKey is core.DeriveConfig's port-aware cell key as it stood
// before topology.Egress resolved the hops, in the old (Sprintf'd) form:
// the egress toward the next switch, or −(host+2) toward the host.
func refPortKey(s *flows.Spec, hop int) string {
	next := -(s.DstHost + 2)
	if hop+1 < len(s.Path) {
		next = s.Path[hop+1]
	}
	return fmt.Sprintf("sw%d->%d", s.Path[hop], next)
}

// keyedInput is one planner input of an equivalence check: the specs,
// the topology the planner resolves their ports on (nil: per switch)
// and the reference planner's key for the same cells.
type keyedInput struct {
	name  string
	topo  *topology.Topology
	ref   refCellKey
	specs []*flows.Spec
}

// keyed lists the inputs an equivalence check runs: specs under the
// default key, and specs walked onto topo under topo's ports.
func keyed(topo *topology.Topology, specs []*flows.Spec) []keyedInput {
	return []keyedInput{{"default", nil, nil, specs}, {"port", topo, refPortKey, walk(topo, specs)}}
}

// testTopo is the network the drawn flow sets are walked onto: a
// bidirectional ring of six switches with hosts 0–2 and 100–102 on
// switches 0, 2 and 4.
func testTopo() *topology.Topology {
	topo := topology.RingBidir(6)
	for h := 0; h < 3; h++ {
		topo.AttachHost(h, 2*h)
		topo.AttachHost(100+h, 2*h)
	}
	return topo
}

// walk returns copies of specs whose paths topo can resolve: the
// shortest route through each drawn switch in turn, then on to the
// destination host's switch. A path already bound on topo comes back
// unchanged.
func walk(topo *topology.Topology, specs []*flows.Spec) []*flows.Spec {
	r := topo.Router()
	out := make([]*flows.Spec, len(specs))
	for i, s := range specs {
		c := *s
		if len(s.Path) > 0 {
			at, _ := topo.HostAttach(s.DstHost)
			c.Path = []int{s.Path[0]}
			for _, sw := range append(s.Path[1:len(s.Path):len(s.Path)], at.Switch) {
				p, _ := r.Path(c.Path[len(c.Path)-1], sw)
				c.Path = append(c.Path, p[1:]...)
			}
		}
		out[i] = &c
	}
	return out
}

// assertMatchesReference plans specs with both planners, under the
// default and the port-aware key, and requires identical results: the
// offset of every flow ID and the occupancy of every cell, read from
// the map form of the plan; the new Cell must also render the old
// string key.
func assertMatchesReference(t testing.TB, name string, topo *topology.Topology, specs []*flows.Spec, slot sim.Time) {
	t.Helper()
	for _, k := range keyed(topo, specs) {
		want, wantErr := referenceCompute(k.specs, slot, k.ref)
		plan, gotErr := Compute(k.specs, slot, k.topo)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("%s/%s: error %v, reference %v", name, k.name, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		assertPlanOrder(t, name+"/"+k.name, plan, k.specs)
		got := mapFormOf(plan)
		if !reflect.DeepEqual(got.Offsets, want.Offsets) {
			t.Fatalf("%s/%s: offsets differ from the reference planner", name, k.name)
		}
		if got.MaxOccupancy != want.MaxOccupancy || got.Slot != want.Slot {
			t.Fatalf("%s/%s: MaxOccupancy %d slot %v, reference %d slot %v",
				name, k.name, got.MaxOccupancy, got.Slot, want.MaxOccupancy, want.Slot)
		}
		if len(got.PerCell) != len(want.PerCell) {
			t.Fatalf("%s/%s: %d cells, reference %d", name, k.name, len(got.PerCell), len(want.PerCell))
		}
		for c, occ := range got.PerCell {
			if ref, ok := want.PerCell[c.String()]; !ok || ref != occ {
				t.Fatalf("%s/%s: cell %v occupancy %d, reference %d (present %v)", name, k.name, c, occ, ref, ok)
			}
		}
	}
}

// workloadSpecs is workload.Build's TS flow set on topo: hosts 100+h on
// every switch, flow i from switch i mod n across hops switches, 10 ms
// period, paths bound as core.BindPaths binds them.
func workloadSpecs(t testing.TB, topo *topology.Topology, nFlows, hops int) []*flows.Spec {
	t.Helper()
	n := topo.N
	for h := 0; h < n; h++ {
		topo.AttachHost(100+h, h)
	}
	specs := flows.GenerateTS(flows.TSParams{
		Count: nFlows, Period: 10 * sim.Millisecond, WireSize: 200, VID: 1,
		Hosts: func(i int) (int, int) { return 100 + i%n, 100 + (i%n+hops-1)%n },
		Seed:  uint64(nFlows),
	})
	router := topo.Router()
	for _, s := range specs {
		p, err := router.HostPath(s.SrcHost, s.DstHost)
		if err != nil {
			t.Fatal(err)
		}
		s.Path = p
	}
	return specs
}

// flowSet is one named planner input and the network it is bound on.
type flowSet struct {
	name  string
	topo  *topology.Topology
	specs []*flows.Spec
}

// deriveGrid is the benchmark's derive-cold grid: ring/linear/star/tree
// × 7–14 switches × 64–440 flows × hops 2/3.
func deriveGrid(t testing.TB) []flowSet {
	shapes := []struct {
		name string
		mk   func(n int) *topology.Topology
	}{
		{"ring", topology.Ring},
		{"linear", topology.Linear},
		{"star", func(n int) *topology.Topology { return topology.Star(n - 1) }},
		{"tree", func(n int) *topology.Topology { return topology.Tree(2, (n-3)/2) }},
	}
	var sets []flowSet
	for _, shape := range shapes {
		for sw := 7; sw <= 14; sw++ {
			for i, nFlows := range []int{64, 143, 242, 341, 440} {
				hops := 2 + (sw+i)%2
				topo := shape.mk(sw)
				sets = append(sets, flowSet{fmt.Sprintf("%s/%dsw/%dflows/%dhops", shape.name, sw, nFlows, hops),
					topo, workloadSpecs(t, topo, nFlows, hops)})
			}
		}
	}
	return sets
}

func TestEquivalenceDeriveGrid(t *testing.T) {
	for _, set := range deriveGrid(t) {
		assertMatchesReference(t, set.name, set.topo, set.specs, slot)
	}
}

// TestEquivalenceMesh210 is the benchmark's mesh workload: 210
// switches, 2048 flows across 4 switches each.
func TestEquivalenceMesh210(t *testing.T) {
	mesh := topology.MeshSquarish(210)
	assertMatchesReference(t, "mesh210", mesh, workloadSpecs(t, mesh, 2048, 4), slot)
}

// periods720 are the divisors of 720 the random and fuzzed flow sets
// draw periods (in slots) from, which keeps every hyperperiod under
// the cap.
var periods720 = []int{1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 30, 36, 40, 45, 48, 60, 72, 80, 90, 120, 144, 180, 240, 360, 720}

// randomSpecs draws a mixed-period flow set: several repetitions per
// flow, single-hop and revisiting paths, FRER members and non-TS
// bystanders.
func randomSpecs(rng *rand.Rand, n int) []*flows.Spec {
	specs := make([]*flows.Spec, 0, n)
	for i := 0; i < n; i++ {
		path := make([]int, 1+rng.Intn(5))
		for h := range path {
			path[h] = rng.Intn(6) // may revisit a switch
		}
		s := &flows.Spec{
			ID: uint32(i + 1), Class: ethernet.ClassTS, WireSize: 64, DstHost: 100 + rng.Intn(3),
			// A fraction of a slot on top: periods floor to whole slots.
			Period: sim.Time(periods720[rng.Intn(len(periods720))])*slot + sim.Time(rng.Intn(2))*slot/3,
			Path:   path,
		}
		switch rng.Intn(8) {
		case 0:
			s.FRER, s.AltVID, s.AltPath = true, 4001, []int{path[0], 7, path[len(path)-1]}
		case 1:
			s.Class, s.Period = ethernet.ClassBE, 0
		}
		specs = append(specs, s)
	}
	return specs
}

func TestEquivalenceRandomMixedPeriods(t *testing.T) {
	rng := rand.New(rand.NewSource(20260929))
	for i := 0; i < 150; i++ {
		assertMatchesReference(t, fmt.Sprintf("set%d", i), testTopo(), randomSpecs(rng, 1+rng.Intn(40)), slot)
	}
}

// FuzzComputeEquivalence lets the fuzzer pick the flow set: two bytes
// per flow choose the period and the path.
func FuzzComputeEquivalence(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{3, 0x12, 3, 0x21, 7, 0xff, 29, 0x05})
	f.Add([]byte{29, 0xaa, 1, 0xaa, 2, 0xaa, 4, 0xaa, 11, 0x00, 11, 0x00, 11, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 {
			data = data[:128]
		}
		var specs []*flows.Spec
		for i := 0; i+1 < len(data); i += 2 {
			hops, bits := 1+int(data[i+1]&3), data[i+1]>>2
			path := make([]int, hops)
			for h := range path {
				path[h] = (int(bits) + h*int(1+bits%3)) % 5
			}
			specs = append(specs, &flows.Spec{
				ID: uint32(i/2 + 1), Class: ethernet.ClassTS, WireSize: 64, DstHost: int(bits % 3),
				Period: sim.Time(periods720[int(data[i])%len(periods720)]) * slot, Path: path,
			})
		}
		assertMatchesReference(t, "fuzz", testTopo(), specs, slot)
	})
}

// --- the dense-grid search live scores replaced ---

// bestOffset and accumulate are the per-flow search the live class
// scores replaced, verbatim: every offset's (worst, sum) re-read from
// the grid. denseCompute plans with them on the same grid, bookings and
// order as Compute, so the two must agree offset for offset on every
// input — capped hyperperiods included, where referenceCompute does not
// apply.

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

// denseCompute is Compute with the re-scanning search, reporting the
// map-form plan.
func denseCompute(specs []*flows.Spec, slot sim.Time, topo *topology.Topology) (*mapPlan, error) {
	g, err := prepare(specs, slot, topo)
	if err != nil {
		return nil, err
	}
	defer g.release()
	g.longestFirst()
	worst, sum := make([]int32, g.hyper), make([]int, g.hyper) // no period exceeds hyper
	return g.placeMaps(slot, func(_ int, f *flow) int { return g.bestOffset(f, worst, sum) }), nil
}

// assertMatchesDense requires Compute and denseCompute to return equal
// plans under the default and the port-aware key: the offset of every
// flow ID and the occupancy of every cell.
func assertMatchesDense(t testing.TB, name string, specs []*flows.Spec) {
	t.Helper()
	for _, k := range keyed(testTopo(), specs) {
		want, wantErr := denseCompute(k.specs, slot, k.topo)
		plan, gotErr := Compute(k.specs, slot, k.topo)
		var got *mapPlan
		if plan != nil {
			assertPlanOrder(t, name+"/"+k.name, plan, k.specs)
			got = mapFormOf(plan)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("%s/%s: Compute %+v, %v; dense-grid search %+v, %v", name, k.name, got, gotErr, want, wantErr)
		}
	}
}

// cappedPeriods are periods in slots whose lcm with 280 and 277 passes
// the cap: the grid folds onto 280, and every other period's stride
// gcd(p, 280) is below p — 1 for 277, 3 and 9 — so flows of different
// periods share a class and each offset past the stride repeats one
// before it.
var cappedPeriods = []int{280, 277, 3, 4, 6, 9, 10, 12, 15, 21, 35, 40, 56, 70, 140}

// cappedSpecs draws a capped-hyperperiod flow set: one flow each of
// periods 280 and 277, then n of mixed periods, on paths of one to six
// hops over six switches that may revisit a switch.
func cappedSpecs(rng *rand.Rand, n int) []*flows.Spec {
	specs := make([]*flows.Spec, 2+n)
	for i := range specs {
		p := cappedPeriods[rng.Intn(len(cappedPeriods))]
		if i < 2 {
			p = cappedPeriods[i]
		}
		path := make([]int, 1+rng.Intn(6))
		for h := range path {
			path[h] = rng.Intn(6)
		}
		specs[i] = &flows.Spec{
			ID: uint32(i + 1), Class: ethernet.ClassTS, WireSize: 64, DstHost: 100 + rng.Intn(3),
			Period: sim.Time(p) * slot, Path: path,
		}
	}
	return specs
}

func TestComputeMatchesDenseGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	for i := 0; i < 60; i++ {
		assertMatchesDense(t, fmt.Sprintf("capped%d", i), cappedSpecs(rng, 1+rng.Intn(60)))
		assertMatchesDense(t, fmt.Sprintf("folded%d", i), foldedSpecs(rng))
		assertMatchesDense(t, fmt.Sprintf("mixed%d", i), randomSpecs(rng, 1+rng.Intn(40)))
	}
}

// FuzzComputeMatchesDenseGrid lets the fuzzer pick a capped flow set:
// the two anchors of cappedSpecs, then two bytes per flow choosing the
// period and a path that may revisit a switch.
func FuzzComputeMatchesDenseGrid(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0x12, 3, 0x21, 7, 0xff, 14, 0x05})
	f.Add([]byte{5, 0xaa, 5, 0xaa, 5, 0xab, 8, 0x03, 11, 0x00, 11, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 {
			data = data[:128]
		}
		specs := []*flows.Spec{
			{ID: 1, Class: ethernet.ClassTS, WireSize: 64, Period: 280 * slot, Path: []int{0, 1}},
			{ID: 2, Class: ethernet.ClassTS, WireSize: 64, Period: 277 * slot, Path: []int{1, 2}},
		}
		for i := 0; i+1 < len(data); i += 2 {
			hops, bits := 1+int(data[i+1]&3), data[i+1]>>2
			path := make([]int, hops)
			for h := range path {
				path[h] = (int(bits) + h*int(bits%3)) % 4 // bits%3 == 0 stays on one switch
			}
			specs = append(specs, &flows.Spec{
				ID: uint32(len(specs) + 1), Class: ethernet.ClassTS, WireSize: 64, DstHost: int(bits % 3),
				Period: sim.Time(cappedPeriods[int(data[i])%len(cappedPeriods)]) * slot, Path: path,
			})
		}
		assertMatchesDense(t, "fuzz", specs)
	})
}

// scanClass is a class's scores as they stood before the tournament
// tree: one flat score per offset in [0, stride), with the linear best
// kept verbatim as the oracle for TestClassTreeMatchesScan.
type scanClass struct{ scores []score }

// best returns the offset in [0, period) at which the next flow of c
// would add the least to the grid: smallest worst, then smallest sum,
// then lowest offset. The scan takes strict improvements only, and
// every offset past the stride repeats a score before it.
func (c *scanClass) best() int {
	best := 0
	for o, sc := range c.scores {
		if b := c.scores[best]; sc.worst < b.worst || (sc.worst == b.worst && sc.sum < b.sum) {
			best = o
		}
	}
	return best
}

// TestClassTreeMatchesScan raises random offsets of a class's
// tournament and of flat scores alike — by one read of a slot at a
// random level, so scores only rise — on every stride from 1 to 300,
// powers of two or not, and requires the tree's best to be the scan's
// after every raise. Levels drawn from a few small values keep many
// offsets tied, so the tie order is under test as much as the minimum.
func TestClassTreeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	for stride := 1; stride <= 300; stride++ {
		empty := score{worst: 1, sum: rng.Intn(5)}
		c := class{stride: stride}
		c.plant(make([]score, 2*treeLeaves(stride)), empty)
		flat := scanClass{scores: make([]score, stride)}
		for o := range flat.scores {
			flat.scores[o] = empty
		}
		levels := int32(1 + rng.Intn(4))
		for n := 0; n < 4*stride; n++ {
			o, v := rng.Intn(stride), 1+rng.Int31n(levels)
			if rng.Intn(50) == 0 {
				v += rng.Int31n(100)
			}
			c.raise(o, v)
			sc := &flat.scores[o]
			sc.worst, sc.sum = max(sc.worst, v), sc.sum+1
			if got, want := c.best(), flat.best(); got != want {
				t.Fatalf("stride %d, raise %d (offset %d to %d): tree best %d %+v, scan best %d %+v",
					stride, n, o, v, got, flat.scores[min(got, stride-1)], want, flat.scores[want])
			}
		}
	}
}

// --- the map-form Plan ---

// mapPlan is Plan as it stood before its offsets and occupancies became
// slices, kept with the place and Apply that filled and read it as the
// oracle for the slice form.
type mapPlan struct {
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

// placeMaps is place as it stood, verbatim but for its name and result
// type.
func (g *grid) placeMaps(slot sim.Time, choose func(i int, f *flow) int) *mapPlan {
	p := &mapPlan{
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

// Apply is Plan.Apply as it stood.
func (p *mapPlan) Apply(specs []*flows.Spec) {
	for _, s := range specs {
		if off, ok := p.Offsets[s.ID]; ok {
			s.Offset = off
		}
	}
}

// mapFormOf keys p's offsets by flow ID and its occupancies by cell.
func mapFormOf(p *Plan) *mapPlan {
	m := &mapPlan{Offsets: map[uint32]sim.Time{}, MaxOccupancy: p.MaxOccupancy, PerCell: map[Cell]int{}, Slot: p.Slot}
	for _, o := range p.Offsets {
		m.Offsets[o.ID] = o.At
	}
	for _, c := range p.PerCell {
		m.PerCell[c.Cell] = c.Occupancy
	}
	return m
}

// assertPlanOrder requires p's offsets to follow the planned TS flows
// of specs in order, and its cells to be distinct.
func assertPlanOrder(t testing.TB, name string, p *Plan, specs []*flows.Spec) {
	t.Helper()
	var ids []uint32
	for _, s := range specs {
		if s.Class == ethernet.ClassTS && s.Period > 0 {
			ids = append(ids, s.ID)
		}
	}
	got := make([]uint32, len(p.Offsets))
	for i, o := range p.Offsets {
		got[i] = o.ID
	}
	if !slices.Equal(got, ids) {
		t.Fatalf("%s: offsets for flows %v, want the TS flows in input order %v", name, got, ids)
	}
	seen := map[Cell]bool{}
	for _, c := range p.PerCell {
		if seen[c.Cell] {
			t.Fatalf("%s: cell %v reported twice", name, c.Cell)
		}
		seen[c.Cell] = true
	}
}

// TestApplyMatchesMapForm applies one plan, through the slice form and
// the map form alike, to its specs in order, to the batch planned last,
// to the specs reversed and shuffled, to a copy carrying an unplanned
// ID, and to nothing: every spec must come out with the same offset.
func TestApplyMatchesMapForm(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	for i := 0; i < 40; i++ {
		specs := randomSpecs(rng, 1+rng.Intn(40))
		plan, err := Compute(specs, slot, nil)
		if err != nil {
			t.Fatal(err)
		}
		tail := specs[rng.Intn(len(specs)):]
		reversed := slices.Clone(specs)
		slices.Reverse(reversed)
		shuffled := slices.Clone(specs)
		rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		stranger := append(slices.Clone(specs[:len(specs)/2]), &flows.Spec{ID: 999_999}, specs[len(specs)/2])
		for _, subset := range [][]*flows.Spec{specs, tail, reversed, shuffled, stranger, nil} {
			got, want := copySpecs(subset), copySpecs(subset)
			plan.Apply(got)
			mapFormOf(plan).Apply(want)
			for j := range got {
				if got[j].Offset != want[j].Offset {
					t.Fatalf("set %d: spec %d (ID %d) offset %v, map form %v", i, j, got[j].ID, got[j].Offset, want[j].Offset)
				}
			}
		}
	}
}

// copySpecs returns copies of specs, each offset set to -1.
func copySpecs(specs []*flows.Spec) []*flows.Spec {
	out := make([]*flows.Spec, len(specs))
	for i, s := range specs {
		c := *s
		c.Offset = -1
		out[i] = &c
	}
	return out
}
