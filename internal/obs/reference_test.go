package obs

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// The reference: the attribution's per-flow aggregation as it was
// before per-flow rows — one FlowLatency per flow ID in a map, created
// at the first delivery and looked up on every one. The per-flow half of
// ObserveLatency and Merge and the exports Flow, Flows and TopByWorst
// are kept verbatim (receiver renamed); the histograms and dumps, which
// did not change, are left out. TestAttributionMatchesReference drives
// both with one delivery script.
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
// row attribution exports what the map one exported — Flows, every
// Flow(id) and TopByWorst, per part and after a two-part merge. Flows
// are admitted in two batches per part (the second late), some never
// (met by ID at their first delivery), some admitted flows never
// deliver, a flow's first delivery may be a deadline miss, and talkers
// stamp the right row, none, or another flow's.
func TestAttributionMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 64; seed++ {
		rng := sim.NewRand(seed)
		n := 8 + rng.Intn(40)
		specs := make([]*flows.Spec, n)
		part, row := make([]int, n), make([]uint32, n)
		for i := range specs {
			specs[i] = &flows.Spec{ID: uint32(1 + 3*i + rng.Intn(3)), Class: ethernet.Class(rng.Intn(3))}
			part[i] = rng.Intn(2)
		}
		a := [2]*Attribution{NewAttribution(nil, nil), NewAttribution(nil, nil)}
		ref := [2]*refAttribution{newRefAttribution(), newRefAttribution()}
		next := [2]int{}
		admit := func(from, to int) {
			for p := 0; p < 2; p++ {
				var batch []*flows.Spec
				for i := from; i < to; i++ {
					if part[i] == p && i%7 != 3 { // every seventh flow is never admitted
						batch = append(batch, specs[i])
						row[i] = uint32(next[p] + len(batch))
					}
				}
				a[p].Admit(next[p], batch)
				next[p] += len(batch)
			}
		}
		play := func(count, upto int) {
			for k := 0; k < count; k++ {
				i := rng.Intn(upto)
				if i%3 == 1 {
					continue // admitted but never delivered
				}
				lat := sim.Time(10 * (10 + rng.Intn(60)))
				f := spanFrame(specs[i].ID, uint32(k), specs[i].Class, lat)
				switch r := rng.Intn(10); {
				case r < 7:
					f.Row = row[i]
				case r == 7:
					f.Row = 0
				default:
					f.Row = uint32(rng.Intn(n + 2)) // another flow's row, or past the end
				}
				missed := lat > 400
				ref[part[i]].ObserveLatency(f, f.SentAt+lat, lat, missed)
				a[part[i]].ObserveLatency(f, f.SentAt+lat, lat, missed)
			}
		}
		admit(0, n/2)
		play(150, n/2)
		admit(n/2, n) // flows added late
		play(300, n)

		merged, refMerged := NewAttribution(nil, nil), newRefAttribution()
		for p := 0; p < 2; p++ {
			compareAttributions(t, seed, fmt.Sprintf("part %d", p), a[p], ref[p], specs)
			merged.Merge(a[p])
			refMerged.Merge(ref[p])
		}
		compareAttributions(t, seed, "merged", merged, refMerged, specs)
	}
}

func compareAttributions(t *testing.T, seed uint64, what string, a *Attribution, ref *refAttribution, specs []*flows.Spec) {
	t.Helper()
	if got, want := a.Flows(), ref.Flows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d %s: Flows\n got %+v\nwant %+v", seed, what, got, want)
	}
	for _, k := range []int{1, 3, len(specs)} {
		if got, want := a.TopByWorst(k), ref.TopByWorst(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d %s: TopByWorst(%d)\n got %+v\nwant %+v", seed, what, k, got, want)
		}
	}
	for _, spec := range append(specs, &flows.Spec{ID: 9999}) {
		got, gok := a.Flow(spec.ID)
		want, wok := ref.Flow(spec.ID)
		if gok != wok || got != want {
			t.Fatalf("seed %d %s: Flow(%d) = %+v, %v; reference %+v, %v", seed, what, spec.ID, got, gok, want, wok)
		}
	}
}

// TestStampedRowSkipsTheIndex: a delivery carrying its admitted row is
// aggregated through the row alone. Once the first delivery has made the
// batch's aggregates, the by-ID index is set aside, so a fallback lookup
// (a row index read off by one, say) would write to a nil map and panic.
func TestStampedRowSkipsTheIndex(t *testing.T) {
	a := NewAttribution(nil, nil)
	a.Admit(0, []*flows.Spec{{ID: 7, Class: ethernet.ClassTS}, {ID: 9, Class: ethernet.ClassTS}})
	first := spanFrame(7, 0, ethernet.ClassTS, 1000)
	first.Row = 1
	a.ObserveLatency(first, first.SentAt+1000, 1000, false)
	byID := a.byID
	a.byID = nil
	f := spanFrame(9, 0, ethernet.ClassTS, 1000)
	f.Row = 2
	a.ObserveLatency(f, f.SentAt+1000, 1000, false)
	a.byID = byID
	if fl, ok := a.Flow(9); !ok || fl.Count != 1 {
		t.Fatalf("flow 9: %+v, %v", fl, ok)
	}
}
