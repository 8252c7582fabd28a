package metrics

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

func TestMergeCounters(t *testing.T) {
	a, b := New(), New()
	a.Counters("hits", "", "sw").With(Int(0)).Add(3)
	hits := b.Counters("hits", "", "sw")
	hits.With(Int(0)).Add(4)
	hits.With(Int(1)).Add(5)
	a.Merge(b)
	if got := a.CounterValue("hits", L("sw", "0")); got != 7 {
		t.Errorf("merged counter = %d, want 7", got)
	}
	if got := a.CounterValue("hits", L("sw", "1")); got != 5 {
		t.Errorf("new-cell counter = %d, want 5", got)
	}
}

func TestMergeGaugesTakeMax(t *testing.T) {
	a, b := New(), New()
	a.Gauges("hw", "").With().SetMax(10)
	b.Gauges("hw", "").With().SetMax(4)
	b.Gauges("hw2", "").With().SetMax(9)
	a.Merge(b)
	if got := a.GaugeValue("hw"); got != 10 {
		t.Errorf("merged gauge = %d, want 10 (max)", got)
	}
	if got := a.GaugeValue("hw2"); got != 9 {
		t.Errorf("new gauge = %d, want 9", got)
	}
}

func TestMergeHistograms(t *testing.T) {
	bounds := []int64{10, 100}
	a, b := New(), New()
	ha := a.Histograms("lat", "", bounds).With()
	hb := b.Histograms("lat", "", bounds).With()
	ha.Observe(5)
	hb.Observe(50)
	hb.Observe(500)
	a.Merge(b)
	if got := a.Histograms("lat", "", bounds).With().Count(); got != 3 {
		t.Errorf("merged histogram count = %d, want 3", got)
	}
}

func TestMergeOrderIndependentOfWorkerCompletion(t *testing.T) {
	// Two scratch registries merged in sweep order must export exactly
	// like the same registries merged as the workers finished.
	mk := func(seed uint64) *Registry {
		r := New()
		r.Counters("x_total", "an x", "row").With(Int(0)).Add(seed)
		r.Gauges("x_hw", "").With().SetMax(int64(seed))
		return r
	}
	sweep := New()
	sweep.Merge(mk(1))
	sweep.Merge(mk(2))
	finished := New()
	finished.Merge(mk(2))
	finished.Merge(mk(1))
	if s, p := snapText(t, sweep), snapText(t, finished); s != p {
		t.Errorf("exports differ:\n--- sweep order ---\n%s--- completion order ---\n%s", s, p)
	}
}

// TestMergeOrderIndependent: three registries with shared and private
// cells, name and integer values, merged into an empty registry in all
// six orders, export the same bytes — the fold rules commute, and the
// export sorts. Only an exact (value, At) exemplar tie depends on the
// order: it keeps the destination's, which the second case pins.
func TestMergeOrderIndependent(t *testing.T) {
	bounds := []int64{10, 100}
	mk := func(seed int) *Registry {
		r := New()
		r.Counters(fmt.Sprint("only_in_", seed, "_total"), "", "reason").With(Name("late")).Inc()
		r.Counters("x_total", "an x", "row").With(Int(seed)).Add(uint64(seed))
		r.Counters("x_total", "an x", "row").With(Int(0)).Inc()
		r.Gauges("x_hw", "", "class").With(Name([]string{"TS", "RC", "BE"}[seed])).SetMax(int64(10 * seed))
		r.Gauges("x_hw", "", "class").With(Name("TS")).SetMax(int64(7 - seed))
		r.Histograms("lat", "latency", bounds, "sw").With(Int(12)).ObserveExemplar(int64(50+seed%2), fmt.Sprint("s", seed), int64(seed))
		return r
	}
	var want string
	for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		dst := New()
		for _, i := range order {
			dst.Merge(mk(i))
		}
		prom, js := exportBytes(t, dst)
		if want == "" {
			want = prom + js
		} else if prom+js != want {
			t.Fatalf("merge order %v exports differently:\n%s", order, prom)
		}
	}
	if !strings.Contains(want, `"label": "s1"`) {
		t.Fatalf("exemplar: the greater value with the smaller At must win:\n%s", want)
	}

	t.Run("exact exemplar tie keeps the destination's", func(t *testing.T) {
		for _, first := range []string{"a", "b"} {
			second := map[string]string{"a": "b", "b": "a"}[first]
			dst := New()
			for _, label := range []string{first, second} {
				src := New()
				src.Histograms("lat", "", bounds).With().ObserveExemplar(70, label, 5)
				dst.Merge(src)
			}
			if ex, _ := dst.Histograms("lat", "", bounds).With().Exemplar(); ex.Label != first {
				t.Errorf("merged %s then %s: exemplar %q, want the first merged", first, second, ex.Label)
			}
		}
	})
}

func TestMergeSelfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-merge did not panic")
		}
	}()
	r := New()
	r.Merge(r)
}

func TestMergeNilSafe(t *testing.T) {
	var r *Registry
	r.Merge(New()) // no-op
	New().Merge(nil)
}

func TestMergeEmptyRegistries(t *testing.T) {
	// Empty into populated: nothing changes.
	a := New()
	a.Counters("hits", "").With().Add(3)
	before := snapText(t, a)
	a.Merge(New())
	if after := snapText(t, a); after != before {
		t.Errorf("merging empty registry changed export:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
	// Populated into empty: full copy, export identical to the source.
	b := New()
	b.Histograms("lat", "latency", []int64{10, 100}).With().Observe(50)
	b.Gauges("hw", "").With().SetMax(7)
	dst := New()
	dst.Merge(b)
	if got, want := snapText(t, dst), snapText(t, b); got != want {
		t.Errorf("merge into empty differs from source:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// Empty into empty stays empty.
	e := New()
	e.Merge(New())
	if n := len(e.Snapshot().Families); n != 0 {
		t.Errorf("empty-into-empty produced %d families", n)
	}
}

func TestMergeGaugeMaxTie(t *testing.T) {
	a, b := New(), New()
	a.Gauges("hw", "").With().Set(10)
	b.Gauges("hw", "").With().Set(10)
	a.Merge(b)
	if got := a.GaugeValue("hw"); got != 10 {
		t.Errorf("tied gauge merge = %d, want 10", got)
	}
	// Ties must also hold for negative and zero values.
	a2, b2 := New(), New()
	a2.Gauges("z", "").With().Set(0)
	b2.Gauges("z", "").With().Set(0)
	a2.Merge(b2)
	if got := a2.GaugeValue("z"); got != 0 {
		t.Errorf("zero-tie gauge merge = %d, want 0", got)
	}
}

// mergePanicsIntact merges b into a, requiring a panic that leaves a
// as it was — also its "early" family, which merges fine and sorts
// before the mismatch.
func mergePanicsIntact(t *testing.T, declare func(a, b *Registry)) {
	t.Helper()
	a, b := New(), New()
	a.Counters("early", "").With().Add(1)
	b.Counters("early", "").With().Add(10)
	declare(a, b)
	before := snapText(t, a)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("mismatch did not panic")
			}
		}()
		a.Merge(b)
	}()
	if after := snapText(t, a); after != before {
		t.Errorf("failed merge corrupted destination:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
}

func TestMergeBucketMismatchPanicsWithoutCorrupting(t *testing.T) {
	mergePanicsIntact(t, func(a, b *Registry) {
		a.Histograms("lat", "", []int64{10, 100}).With().Observe(5)
		b.Histograms("lat", "", []int64{10, 100, 1000}).With().Observe(5)
	})
}

// TestMergeBoundValueMismatchPanics: same bucket COUNT, different
// boundary values — counts would add bucket-wise without complaint,
// silently mixing incomparable layouts.
func TestMergeBoundValueMismatchPanics(t *testing.T) {
	mergePanicsIntact(t, func(a, b *Registry) {
		a.Histograms("lat", "", []int64{10, 100}).With().Observe(5)
		b.Histograms("lat", "", []int64{20, 200}).With().Observe(5)
	})
}

func TestMergeKindMismatchPanicsWithoutCorrupting(t *testing.T) {
	mergePanicsIntact(t, func(a, b *Registry) { a.Counters("x", "").With(); b.Gauges("x", "").With() })
}

// TestMergeDeclarationMismatchPanics: a family is declared once, so a
// source declaring it with other help or other label keys panics too.
func TestMergeDeclarationMismatchPanics(t *testing.T) {
	mergePanicsIntact(t, func(a, b *Registry) { a.Counters("x", "one").With(); b.Counters("x", "two").With() })
	mergePanicsIntact(t, func(a, b *Registry) {
		a.Counters("x", "", "switch", "port").With(Int(0), Int(1))
		b.Counters("x", "", "port", "switch").With(Int(1), Int(0))
	})
}

func TestMergeExemplars(t *testing.T) {
	bounds := []int64{10, 100}
	lat := func(r *Registry) Histogram { return r.Histograms("lat", "", bounds).With() }
	// Greater source exemplar replaces the destination's.
	a, b := New(), New()
	lat(a).ObserveExemplar(50, "flow=1", 100)
	lat(b).ObserveExemplar(70, "flow=2", 200)
	a.Merge(b)
	ex, ok := lat(a).Exemplar()
	if !ok || ex.Value != 70 || ex.Label != "flow=2" {
		t.Errorf("merged exemplar = %+v ok=%v, want value 70 from flow=2", ex, ok)
	}
	// Of equal values the earlier At wins, matching ObserveExemplar's
	// strictly-greater-wins retention.
	c, d := New(), New()
	lat(c).ObserveExemplar(70, "flow=1", 100)
	lat(d).ObserveExemplar(70, "flow=2", 200)
	d.Merge(c)
	ex, ok = lat(d).Exemplar()
	if !ok || ex.Label != "flow=1" {
		t.Errorf("tied exemplar = %+v ok=%v, want the earlier flow=1", ex, ok)
	}
	// New cell: the exemplar travels into a registry that never saw the
	// family.
	e := New()
	e.Merge(a)
	ex, ok = lat(e).Exemplar()
	if !ok || ex.Value != 70 {
		t.Errorf("exemplar lost merging into empty registry: %+v ok=%v", ex, ok)
	}
	// Source without an exemplar leaves the destination's in place.
	f, g := New(), New()
	lat(f).ObserveExemplar(50, "flow=1", 100)
	lat(g).Observe(500)
	f.Merge(g)
	ex, ok = lat(f).Exemplar()
	if !ok || ex.Label != "flow=1" {
		t.Errorf("exemplar-free source clobbered destination exemplar: %+v ok=%v", ex, ok)
	}
}

func TestMergeExemplarSerialParallelParity(t *testing.T) {
	bounds := []int64{10, 100}
	obs := [][3]int64{{30, 1, 10}, {90, 2, 20}, {90, 3, 30}, {60, 4, 40}}
	serial := New()
	hs := serial.Histograms("lat", "", bounds).With()
	for _, o := range obs {
		hs.ObserveExemplar(o[0], labelFor(o[1]), o[2])
	}
	// Two workers split the observations; merge in either order.
	w1, w2 := New(), New()
	for i, o := range obs {
		w := w1
		if i >= 2 {
			w = w2
		}
		w.Histograms("lat", "", bounds).With().ObserveExemplar(o[0], labelFor(o[1]), o[2])
	}
	for _, workers := range [][]*Registry{{w1, w2}, {w2, w1}} {
		merged := New()
		merged.Merge(workers[0])
		merged.Merge(workers[1])
		var s, p bytes.Buffer
		if err := serial.Snapshot().WriteJSON(&s); err != nil {
			t.Fatal(err)
		}
		if err := merged.Snapshot().WriteJSON(&p); err != nil {
			t.Fatal(err)
		}
		if s.String() != p.String() {
			t.Errorf("exemplar exports differ:\n--- serial ---\n%s--- merged ---\n%s", s.String(), p.String())
		}
	}
}

func labelFor(flow int64) string { return "flow=" + string(rune('0'+flow)) }

// snapText renders a registry's Prometheus export for equality checks.
func snapText(t *testing.T, r *Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// exportBytes renders r both ways an operator reads it.
func exportBytes(t testing.TB, r *Registry) (prom, js string) {
	t.Helper()
	var p, j bytes.Buffer
	snap := r.Snapshot()
	if err := snap.WritePrometheus(&p); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	return p.String(), j.String()
}

// meshPartitionRegistry mirrors the scratch registry of one partition
// of the 210-switch mesh (switches first..first+n-1): 22 families, 4 of
// them histograms, ≈ 127 samples per switch — ≈ 13.4 k samples at the
// 105 switches a 2-partition run gives each side.
func meshPartitionRegistry(first, n int) *Registry {
	r := New()
	classes := []string{"TS", "RC", "BE"}
	r.Counters("tsn_sim_events_total", "discrete events executed").With().Add(uint64(1000 + first))
	r.Gauges("tsn_sim_heap_depth_high_water", "").With().SetMax(int64(900 + first))
	delivered := r.Counters("tsn_flows_delivered_total", "", "class")
	e2e := r.Histograms("tsn_e2e_latency_ns", "", ExponentialBounds(1000, 2, 14), "class")
	comps := r.Histograms("tsn_latency_component_ns", "", ExponentialBounds(100, 2, 16), "class", "component")
	miss := r.Histograms("tsn_deadline_miss_ns", "", ExponentialBounds(1000, 2, 14), "class")
	for ci, c := range classes {
		delivered.With(Name(c)).Add(uint64(first + ci))
		e2e.With(Name(c)).ObserveExemplar(int64(4000*(ci+1)), fmt.Sprint("flow=", first+ci), int64(first))
		for _, comp := range []string{"prop", "ser", "queue", "gate", "shape"} {
			comps.With(Name(c), Name(comp)).Observe(int64(300 * (ci + 1)))
		}
		miss.With(Name(c))
	}
	rx := r.Counters("tsn_switch_rx_frames_total", "", "switch")
	tx := r.Counters("tsn_switch_tx_frames_total", "", "switch")
	drops := r.Counters("tsn_switch_drops_total", "", "switch", "reason")
	enq := r.Counters("tsn_queue_enqueues_total", "frames enqueued", "switch", "port", "queue")
	qhw := r.Gauges("tsn_queue_depth_high_water", "", "switch", "port", "queue")
	occ := r.Gauges("tsn_pool_occupancy", "", "switch", "port")
	phw := r.Gauges("tsn_pool_high_water", "", "switch", "port")
	fails := r.Counters("tsn_pool_alloc_failures_total", "", "switch", "port")
	roll := r.Counters("tsn_gate_rollovers_total", "", "switch", "port", "gate")
	pass := r.Counters("tsn_meter_passed_total", "", "switch")
	mdrop := r.Counters("tsn_meter_dropped_total", "", "switch")
	res := r.Histograms("tsn_queue_residence_ns", "", ExponentialBounds(100, 2, 12), "switch")
	pre := r.Counters("tsn_switch_preemptions_total", "", "switch")
	for sw := first; sw < first+n; sw++ {
		s := Int(sw)
		rx.With(s).Add(uint64(sw))
		tx.With(s).Add(uint64(sw))
		for _, reason := range []string{"queue-full", "no-buffer", "meter", "unknown-dst", "gate", "link"} {
			drops.With(s, Name(reason))
		}
		for p := 0; p < 5+sw%2; p++ {
			port := Int(p)
			for q := 0; q < 8; q++ {
				enq.With(s, port, Int(q)).Add(uint64(q))
				qhw.With(s, port, Int(q)).SetMax(int64(q % 3))
			}
			occ.With(s, port)
			phw.With(s, port).SetMax(int64(p))
			fails.With(s, port)
			for g := 0; g < 2; g++ {
				roll.With(s, port, Int(g)).Add(2307)
			}
		}
		pass.With(s).Add(uint64(sw))
		mdrop.With(s)
		res.With(s).Observe(int64(100 * sw))
		pre.With(s)
	}
	txns := r.Counters("tsn_reconfig_txns_total", "", "outcome")
	for _, o := range []string{"committed", "rolled-back", "rejected"} {
		txns.With(Name(o))
	}
	ops := r.Counters("tsn_reconfig_ops_total", "", "phase")
	ops.With(Name("apply"))
	ops.With(Name("undo"))
	r.Counters("tsn_reconfig_retries_total", "").With()
	return r
}

func countSamples(r *Registry) int {
	n := 0
	for _, f := range r.Snapshot().Families {
		n += len(f.Samples)
	}
	return n
}

// toReference copies r's cells into a string-keyed reference registry.
func toReference(r *Registry) *refRegistry {
	ref := newRefRegistry()
	for _, f := range r.Snapshot().Families {
		ref.Help(f.Name, f.Help)
		for _, s := range f.Samples {
			cell := referenceLookup(ref, f.Name, f.Kind, s.Bounds, s.Labels)
			switch f.Kind {
			case KindCounter:
				*cell.c = uint64(s.Value)
			case KindGauge:
				*cell.g = int64(s.Value)
			case KindHistogram:
				copy(cell.h.counts, s.Counts)
				cell.h.sum, cell.h.count = s.Sum, s.Count
				if s.Exemplar != nil {
					cell.h.ex, cell.h.exSet = *s.Exemplar, true
				}
			}
		}
	}
	return ref
}

// normalized renders snap both ways after putting families in name
// order and samples in label order, so exports that list the same
// cells in different orders compare equal.
func normalized(t testing.TB, snap Snapshot) (prom, js string) {
	t.Helper()
	fams := slices.Clone(snap.Families)
	slices.SortFunc(fams, func(a, b FamilySnapshot) int { return strings.Compare(a.Name, b.Name) })
	for i := range fams {
		fams[i].Samples = slices.Clone(fams[i].Samples)
		slices.SortFunc(fams[i].Samples, func(a, b SampleSnapshot) int {
			return strings.Compare(fmt.Sprint(a.Labels), fmt.Sprint(b.Labels))
		})
	}
	var p, j bytes.Buffer
	snap = Snapshot{Families: fams}
	if err := snap.WritePrometheus(&p); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	return p.String(), j.String()
}

// TestMergeMatchesReference folds the same sources into two identical
// destinations, one through Merge and one through the kept pre-PR-16
// implementation on its string-keyed registry, and requires the same
// Prometheus and JSON exports after every step once both are put in
// one order (the reference exports in registration order).
func TestMergeMatchesReference(t *testing.T) {
	bounds := []int64{10, 100, 1000}
	// Every feature of a source registry the merge has to carry.
	rich := func(bias int64) *Registry {
		r := New()
		r.Counters("only_declared", "a family nobody instrumented", "zone")
		hits := r.Counters("hits_total", "hits", "zone", "area")
		hits.With(Name("z"), Name("a")).Add(uint64(3 + bias))
		hits.With(Name("y"), Name("b")).Add(uint64(bias))
		r.Counters("bare_total", "").With().Add(7)
		depth := r.Gauges("depth_hw", "", "q")
		depth.With(Int(0)).SetMax(10 - bias)
		depth.With(Int(int(bias))).SetMax(bias)
		r.Gauges("negative", "").With().Set(-5 - bias)
		lat := r.Histograms("lat_ns", "", bounds, "class")
		h := lat.With(Name("TS"))
		h.ObserveExemplar(500, "flow=1 seq=1", 40+bias) // equal value: the earlier At must win
		h.Observe(5000)                                 // +Inf bucket
		lat.With(Name("RC")).ObserveExemplar(50+bias, "flow=2", 9)
		lat.With(Name("BE")).ObserveExemplar(77, "flow=3", 11) // exact (value, At) tie
		r.Histograms("quiet_ns", "", bounds).With()            // resolved, never observed
		return r
	}
	steps := []struct {
		name string
		dst  func() *Registry
		srcs func() []*Registry
	}{
		{"into empty", New, func() []*Registry { return []*Registry{rich(0)} }},
		{"into pre-populated", func() *Registry { return rich(0) },
			func() []*Registry { return []*Registry{rich(1), rich(2), rich(0)} }},
		{"empty source", func() *Registry { return rich(3) }, func() []*Registry { return []*Registry{New()} }},
		{"help-only destination family gains cells", func() *Registry {
			r := New()
			r.Counters("hits_total", "hits", "zone", "area")
			return r
		}, func() []*Registry { return []*Registry{rich(4)} }},
		{"mesh partitions in order", New,
			func() []*Registry { return []*Registry{meshPartitionRegistry(0, 9), meshPartitionRegistry(9, 8)} }},
	}
	for _, st := range steps {
		t.Run(st.name, func(t *testing.T) {
			got := st.dst()
			want := toReference(st.dst())
			for i, src := range st.srcs() {
				referenceMerge(want, toReference(src))
				got.Merge(src)
				gp, gj := normalized(t, got.Snapshot())
				wp, wj := normalized(t, want.snapshot())
				if gp != wp {
					t.Fatalf("source %d: Prometheus export differs from the reference:\n--- got ---\n%s--- want ---\n%s", i, gp, wp)
				}
				if gj != wj {
					t.Fatalf("source %d: JSON export differs from the reference:\n--- got ---\n%s--- want ---\n%s", i, gj, wj)
				}
			}
			// A merged cell is the cell ordinary resolution finds.
			got.Counters("hits_total", "hits", "zone", "area").With(Name("z"), Name("a")).Inc()
			want.Help("hits_total", "hits")
			*referenceLookup(want, "hits_total", KindCounter, nil, []Label{L("area", "a"), L("zone", "z")}).c += 1
			gp, _ := normalized(t, got.Snapshot())
			if wp, _ := normalized(t, want.snapshot()); gp != wp {
				t.Fatalf("resolution after merge found a different cell than the reference")
			}
		})
	}

	// Mismatches panic with the reference's message, destination intact.
	mismatches := map[string]func() (dst, src *Registry){
		"kind": func() (*Registry, *Registry) {
			a, b := rich(0), rich(1)
			a.Counters("x", "").With()
			b.Gauges("x", "").With()
			return a, b
		},
		"bucket count": func() (*Registry, *Registry) {
			a, b := rich(0), rich(1)
			a.Histograms("other_ns", "", []int64{10, 100}).With()
			b.Histograms("other_ns", "", []int64{10, 100, 1000}).With()
			return a, b
		},
		"bucket values": func() (*Registry, *Registry) {
			a, b := rich(0), rich(1)
			a.Histograms("other_ns", "", []int64{10, 100}).With()
			b.Histograms("other_ns", "", []int64{20, 200}).With()
			return a, b
		},
	}
	for name, mk := range mismatches {
		t.Run("mismatch/"+name, func(t *testing.T) {
			recovered := func(merge func()) (msg interface{}) {
				defer func() { msg = recover() }()
				merge()
				return nil
			}
			dst, src := mk()
			before := snapText(t, dst)
			gotMsg := recovered(func() { dst.Merge(src) })
			refDst, refSrc := mk()
			wantMsg := recovered(func() { referenceMerge(toReference(refDst), toReference(refSrc)) })
			if gotMsg == nil || gotMsg != wantMsg {
				t.Fatalf("panic = %v, reference panicked with %v", gotMsg, wantMsg)
			}
			if after := snapText(t, dst); after != before {
				t.Errorf("failed merge corrupted the destination:\n--- before ---\n%s--- after ---\n%s", before, after)
			}
		})
	}
}

// BenchmarkRegistryMerge is what mergeResults pays at the end of a
// 2-partition mesh run: two partition-shaped registries (≈ 13.4 k
// samples each) folded into an empty one. Budget: ≤ 0.02 allocations
// per merged sample — new cells come from slab chunks and each family
// merges into one new list (0.011 measured; 1.04 when each cell
// was its own allocation and map entry, 3.05 with string keys, ≈ 8.9
// when every sample's labels were copied, sort.Slice'd and re-keyed
// through a strings.Builder).
func BenchmarkRegistryMerge(b *testing.B) {
	parts := []*Registry{meshPartitionRegistry(0, 105), meshPartitionRegistry(105, 105)}
	samples := countSamples(parts[0]) + countSamples(parts[1])
	merge := func() {
		dst := New()
		for _, p := range parts {
			dst.Merge(p)
		}
	}
	perSample := testing.AllocsPerRun(3, merge) / float64(samples)
	if perSample > 0.02 {
		b.Fatalf("%.3f allocations per merged sample (%d samples), budget 0.02", perSample, samples)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merge()
	}
	b.ReportMetric(perSample, "allocs/sample")
}
