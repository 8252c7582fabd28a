package obs

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/analyzer"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// The reference: the per-flow latency decomposition as the attribution
// kept it before it moved into the collector's rows — one FlowLatency
// per flow ID in a map, created at the first delivery and looked up on
// every one. Its types and the per-flow half of ObserveLatency and Merge
// and the exports Flow, Flows and TopByWorst are kept verbatim (receiver
// renamed). TestAttributionMatchesReference installs it as a collector's
// latency sink and compares the collector's rows with it.

// Components is one latency decomposition: where an end-to-end latency
// went. All values are engine-time differences, so for a delivered
// frame they sum exactly to the measured latency.
type Components struct {
	Prop  sim.Time `json:"prop_ns"`  // cable propagation
	Ser   sim.Time `json:"ser_ns"`   // store-and-forward serialization
	Queue sim.Time `json:"queue_ns"` // unattributed wait (HOL, busy wire, preemption)
	Gate  sim.Time `json:"gate_ns"`  // gate-schedule wait (closed gate, guard band)
	Shape sim.Time `json:"shape_ns"` // CBS shaper hold
}

// Total returns the component sum.
func (c Components) Total() sim.Time { return c.Prop + c.Ser + c.Queue + c.Gate + c.Shape }

// add accumulates d into c.
func (c *Components) add(d Components) {
	c.Prop += d.Prop
	c.Ser += d.Ser
	c.Queue += d.Queue
	c.Gate += d.Gate
	c.Shape += d.Shape
}

// fromSpan converts a frame's span into a Components value.
func fromSpan(s *ethernet.Span) Components {
	return Components{Prop: s.Prop, Ser: s.Ser, Queue: s.Queue, Gate: s.Gate, Shape: s.Shape}
}

// FlowLatency is one flow's attribution aggregate.
type FlowLatency struct {
	FlowID uint32         `json:"flow"`
	Class  ethernet.Class `json:"-"`
	Count  uint64         `json:"count"`
	Misses uint64         `json:"deadline_misses"`
	// Sum accumulates every delivery's decomposition; Sum.Total()/Count
	// is the mean end-to-end latency.
	Sum Components `json:"sum"`
	// Worst is the decomposition of the worst (highest-latency)
	// delivery, with its end-to-end latency, sequence number and
	// arrival instant.
	Worst    Components `json:"worst"`
	WorstLat sim.Time   `json:"worst_ns"`
	WorstSeq uint32     `json:"worst_seq"`
	WorstAt  sim.Time   `json:"worst_at_ns"`
}

type refAttribution struct {
	mu    sync.Mutex
	flows map[uint32]*FlowLatency
}

func newRefAttribution() *refAttribution {
	return &refAttribution{flows: make(map[uint32]*FlowLatency)}
}

func (a *refAttribution) ObserveLatency(f *ethernet.Frame, arrival, lat sim.Time, missed bool) {
	if !f.Span.Active() {
		return
	}
	c := fromSpan(&f.Span)
	a.mu.Lock()
	fl, ok := a.flows[f.FlowID]
	if !ok {
		fl = &FlowLatency{FlowID: f.FlowID}
		a.flows[f.FlowID] = fl
	}
	fl.Class = f.Class
	fl.Count++
	fl.Sum.add(c)
	if lat > fl.WorstLat || fl.Count == 1 {
		fl.Worst, fl.WorstLat, fl.WorstSeq, fl.WorstAt = c, lat, f.Seq, arrival
	}
	if missed {
		fl.Misses++
	}
	a.mu.Unlock()
}

func (a *refAttribution) Merge(src *refAttribution) {
	if src == nil || src == a {
		return
	}
	src.mu.Lock()
	flows := make([]FlowLatency, 0, len(src.flows))
	for _, fl := range src.flows {
		flows = append(flows, *fl)
	}
	src.mu.Unlock()

	a.mu.Lock()
	defer a.mu.Unlock()
	for _, in := range flows {
		fl, ok := a.flows[in.FlowID]
		if !ok {
			fl = &FlowLatency{FlowID: in.FlowID}
			a.flows[in.FlowID] = fl
		}
		fl.Class = in.Class
		had := fl.Count
		fl.Count += in.Count
		fl.Misses += in.Misses
		fl.Sum.add(in.Sum)
		if in.WorstLat > fl.WorstLat || had == 0 {
			fl.Worst, fl.WorstLat, fl.WorstSeq, fl.WorstAt = in.Worst, in.WorstLat, in.WorstSeq, in.WorstAt
		}
	}
}

// Flow returns one flow's aggregate (copy) and whether it exists.
func (a *refAttribution) Flow(id uint32) (FlowLatency, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	fl, ok := a.flows[id]
	if !ok {
		return FlowLatency{}, false
	}
	return *fl, true
}

// Flows returns every flow's aggregate sorted by flow ID.
func (a *refAttribution) Flows() []FlowLatency {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]FlowLatency, 0, len(a.flows))
	for _, fl := range a.flows {
		out = append(out, *fl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FlowID < out[j].FlowID })
	return out
}

// TopByWorst returns the n flows with the highest worst-case latency,
// worst first — the exit summary's shortlist.
func (a *refAttribution) TopByWorst(n int) []FlowLatency {
	all := a.Flows()
	sort.SliceStable(all, func(i, j int) bool { return all[i].WorstLat > all[j].WorstLat })
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// TestAttributionMatchesReference: over seeded delivery scripts, the
// collector's delivered rows carry what the map attribution aggregated —
// every row, and TopByWorst, per part and after a two-part merge. The
// reference is each part's latency sink, so both see the same deliveries
// and the same deadline verdicts. Flows are admitted in two batches per
// part (the second late), some never (met by ID at their first
// delivery), some admitted flows never deliver, TS deadlines make some
// deliveries (a first one among them) miss, some flows deliver at zero
// latency only, and talkers stamp the right row, none, or another
// flow's.
func TestAttributionMatchesReference(t *testing.T) {
	var misses uint64
	for seed := uint64(1); seed <= 64; seed++ {
		rng := sim.NewRand(seed)
		n := 8 + rng.Intn(40)
		specs := make([]*flows.Spec, n)
		part, row := make([]int, n), make([]uint32, n)
		for i := range specs {
			specs[i] = &flows.Spec{ID: uint32(1 + 3*i + rng.Intn(3)), Class: ethernet.Class(rng.Intn(3))}
			if specs[i].Class == ethernet.ClassTS && rng.Intn(3) > 0 {
				specs[i].Deadline = sim.Time(100 + rng.Intn(500))
			}
			part[i] = rng.Intn(2)
		}
		c := [2]*analyzer.Collector{analyzer.NewCollector(), analyzer.NewCollector()}
		ref := [2]*refAttribution{newRefAttribution(), newRefAttribution()}
		for p := range c {
			c[p].SetLatencySink(ref[p])
		}
		admit := func(from, to int) {
			for p := 0; p < 2; p++ {
				var batch []*flows.Spec
				var at []int
				for i := from; i < to; i++ {
					if part[i] == p && i%7 != 3 { // every seventh flow is never admitted
						batch, at = append(batch, specs[i]), append(at, i)
					}
				}
				first := c[p].Admit(batch)
				for k, i := range at {
					row[i] = uint32(first + k + 1)
				}
			}
		}
		play := func(count, upto int) {
			for k := 0; k < count; k++ {
				i := rng.Intn(upto)
				if i%3 == 1 {
					continue // admitted but never delivered
				}
				lat := sim.Time(10 * (10 + rng.Intn(60)))
				if i%11 == 5 {
					lat = 0 // the worst delivery is the first
				}
				f := spanFrame(specs[i].ID, uint32(k), specs[i].Class, lat)
				switch r := rng.Intn(10); {
				case r < 7:
					f.Row = row[i]
				case r == 7:
					f.Row = 0
				default:
					f.Row = uint32(rng.Intn(n + 2)) // another flow's row, or past the end
				}
				c[part[i]].Record(f, f.SentAt+lat)
			}
		}
		admit(0, n/2)
		play(150, n/2)
		admit(n/2, n) // flows added late
		play(300, n)

		merged, refMerged := analyzer.NewCollector(), newRefAttribution()
		for p := 0; p < 2; p++ {
			compareRows(t, seed, fmt.Sprintf("part %d", p), c[p], ref[p], len(specs))
			merged.Merge(c[p])
			refMerged.Merge(ref[p])
		}
		compareRows(t, seed, "merged", merged, refMerged, len(specs))
		for _, fl := range refMerged.Flows() {
			misses += fl.Misses
		}
	}
	if misses == 0 {
		t.Fatal("the scripts made no deadline misses")
	}
}

// asFlowLatency renders collector rows in the reference's shape.
func asFlowLatency(rows []*analyzer.FlowStats) []FlowLatency {
	out := make([]FlowLatency, 0, len(rows))
	for _, st := range rows {
		out = append(out, FlowLatency{
			FlowID: st.FlowID, Class: st.Class, Count: st.Received, Misses: st.DeadlineMisses,
			Sum: Components(st.Sum), Worst: Components(st.Worst),
			WorstLat: st.MaxLat, WorstSeq: st.WorstSeq, WorstAt: st.WorstAt,
		})
	}
	return out
}

func compareRows(t *testing.T, seed uint64, what string, c *analyzer.Collector, ref *refAttribution, n int) {
	t.Helper()
	want := ref.Flows()
	if got := asFlowLatency(c.Delivered()); !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d %s: rows\n got %+v\nwant %+v", seed, what, got, want)
	}
	for _, k := range []int{1, 3, n} {
		if got, want := asFlowLatency(c.TopByWorst(k)), ref.TopByWorst(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d %s: TopByWorst(%d)\n got %+v\nwant %+v", seed, what, k, got, want)
		}
	}
}
