package metrics

import (
	"bytes"
	"strconv"
	"testing"
)

func TestMergeCounters(t *testing.T) {
	a, b := New(), New()
	a.Counter("hits", L("sw", "0")).Add(3)
	b.Counter("hits", L("sw", "0")).Add(4)
	b.Counter("hits", L("sw", "1")).Add(5)
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
	a.Gauge("hw").SetMax(10)
	b.Gauge("hw").SetMax(4)
	b.Gauge("hw2").SetMax(9)
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
	ha := a.Histogram("lat", bounds)
	hb := b.Histogram("lat", bounds)
	ha.Observe(5)
	hb.Observe(50)
	hb.Observe(500)
	a.Merge(b)
	if got := a.Histogram("lat", bounds).Count(); got != 3 {
		t.Errorf("merged histogram count = %d, want 3", got)
	}
}

func TestMergeOrderIndependentOfWorkerCompletion(t *testing.T) {
	// Two scratch registries merged in sweep order must export exactly
	// like one registry accumulating the same registrations serially.
	mk := func(seed uint64) *Registry {
		r := New()
		r.Help("x_total", "an x")
		r.Counter("x_total", L("row", "0")).Add(seed)
		r.Gauge("x_hw").SetMax(int64(seed))
		return r
	}
	serial := New()
	serial.Merge(mk(1))
	serial.Merge(mk(2))

	parallelStyle := New()
	regs := []*Registry{mk(1), mk(2)} // workers finish in any order...
	for _, r := range regs {          // ...but merge happens in sweep order
		parallelStyle.Merge(r)
	}

	var s, p bytes.Buffer
	if err := serial.Snapshot().WritePrometheus(&s); err != nil {
		t.Fatal(err)
	}
	if err := parallelStyle.Snapshot().WritePrometheus(&p); err != nil {
		t.Fatal(err)
	}
	if s.String() != p.String() {
		t.Errorf("exports differ:\n--- serial ---\n%s--- merged ---\n%s", s.String(), p.String())
	}
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
	a.Counter("hits").Add(3)
	before := snapText(t, a)
	a.Merge(New())
	if after := snapText(t, a); after != before {
		t.Errorf("merging empty registry changed export:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
	// Populated into empty: full copy, export identical to the source.
	b := New()
	b.Help("lat", "latency")
	b.Histogram("lat", []int64{10, 100}).Observe(50)
	b.Gauge("hw").SetMax(7)
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
	a.Gauge("hw").Set(10)
	b.Gauge("hw").Set(10)
	a.Merge(b)
	if got := a.GaugeValue("hw"); got != 10 {
		t.Errorf("tied gauge merge = %d, want 10", got)
	}
	// Ties must also hold for negative and zero values.
	a2, b2 := New(), New()
	a2.Gauge("z").Set(0)
	b2.Gauge("z").Set(0)
	a2.Merge(b2)
	if got := a2.GaugeValue("z"); got != 0 {
		t.Errorf("zero-tie gauge merge = %d, want 0", got)
	}
}

func TestMergeBucketMismatchPanicsWithoutCorrupting(t *testing.T) {
	a, b := New(), New()
	// A counter family that would merge fine, registered BEFORE the
	// mismatched histogram so a non-validating merge would have already
	// mutated it by the time the panic fires.
	a.Counter("hits").Add(1)
	b.Counter("hits").Add(10)
	a.Histogram("lat", []int64{10, 100}).Observe(5)
	b.Histogram("lat", []int64{10, 100, 1000}).Observe(5)
	before := snapText(t, a)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("bucket-layout mismatch did not panic")
			}
		}()
		a.Merge(b)
	}()
	if after := snapText(t, a); after != before {
		t.Errorf("failed merge corrupted destination:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
}

func TestMergeBoundValueMismatchPanics(t *testing.T) {
	// Same bucket COUNT, different boundary values: counts would add
	// bucket-wise without complaint, silently mixing incomparable
	// layouts. Must panic too.
	a, b := New(), New()
	a.Histogram("lat", []int64{10, 100}).Observe(5)
	b.Histogram("lat", []int64{20, 200}).Observe(5)
	defer func() {
		if recover() == nil {
			t.Fatal("bound-value mismatch did not panic")
		}
	}()
	a.Merge(b)
}

func TestMergeKindMismatchPanicsWithoutCorrupting(t *testing.T) {
	a, b := New(), New()
	a.Counter("early").Add(1)
	b.Counter("early").Add(1)
	a.Counter("x")
	b.Gauge("x")
	before := snapText(t, a)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("kind mismatch did not panic")
			}
		}()
		a.Merge(b)
	}()
	if after := snapText(t, a); after != before {
		t.Errorf("failed merge corrupted destination:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
}

func TestMergeExemplars(t *testing.T) {
	bounds := []int64{10, 100}
	// Greater source exemplar replaces the destination's.
	a, b := New(), New()
	a.Histogram("lat", bounds).ObserveExemplar(50, "flow=1", 100)
	b.Histogram("lat", bounds).ObserveExemplar(70, "flow=2", 200)
	a.Merge(b)
	ex, ok := a.Histogram("lat", bounds).Exemplar()
	if !ok || ex.Value != 70 || ex.Label != "flow=2" {
		t.Errorf("merged exemplar = %+v ok=%v, want value 70 from flow=2", ex, ok)
	}
	// A tie keeps the destination's (earlier in sweep order), matching
	// ObserveExemplar's strictly-greater-wins retention.
	c, d := New(), New()
	c.Histogram("lat", bounds).ObserveExemplar(70, "flow=1", 100)
	d.Histogram("lat", bounds).ObserveExemplar(70, "flow=2", 200)
	c.Merge(d)
	ex, ok = c.Histogram("lat", bounds).Exemplar()
	if !ok || ex.Label != "flow=1" {
		t.Errorf("tied exemplar = %+v ok=%v, want destination's flow=1", ex, ok)
	}
	// New cell: the exemplar travels into a registry that never saw the
	// family.
	e := New()
	e.Merge(a)
	ex, ok = e.Histogram("lat", bounds).Exemplar()
	if !ok || ex.Value != 70 {
		t.Errorf("exemplar lost merging into empty registry: %+v ok=%v", ex, ok)
	}
	// Source without an exemplar leaves the destination's in place.
	f, g := New(), New()
	f.Histogram("lat", bounds).ObserveExemplar(50, "flow=1", 100)
	g.Histogram("lat", bounds).Observe(500)
	f.Merge(g)
	ex, ok = f.Histogram("lat", bounds).Exemplar()
	if !ok || ex.Label != "flow=1" {
		t.Errorf("exemplar-free source clobbered destination exemplar: %+v ok=%v", ex, ok)
	}
}

func TestMergeExemplarSerialParallelParity(t *testing.T) {
	bounds := []int64{10, 100}
	obs := [][3]int64{{30, 1, 10}, {90, 2, 20}, {90, 3, 30}, {60, 4, 40}}
	serial := New()
	hs := serial.Histogram("lat", bounds)
	for _, o := range obs {
		hs.ObserveExemplar(o[0], labelFor(o[1]), o[2])
	}
	// Two workers split the observations; merge in sweep order.
	w1, w2 := New(), New()
	for i, o := range obs {
		w := w1
		if i >= 2 {
			w = w2
		}
		w.Histogram("lat", bounds).ObserveExemplar(o[0], labelFor(o[1]), o[2])
	}
	merged := New()
	merged.Merge(w1)
	merged.Merge(w2)
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
	r.Help("tsn_sim_events_total", "discrete events executed")
	r.Counter("tsn_sim_events_total").Add(uint64(1000 + first))
	r.Gauge("tsn_sim_heap_depth_high_water").SetMax(int64(900 + first))
	for ci, c := range classes {
		r.Counter("tsn_flows_delivered_total", L("class", c)).Add(uint64(first + ci))
		r.Histogram("tsn_e2e_latency_ns", ExponentialBounds(1000, 2, 14), L("class", c)).
			ObserveExemplar(int64(4000*(ci+1)), "flow="+strconv.Itoa(first+ci), int64(first))
		for _, comp := range []string{"prop", "ser", "queue", "gate", "shape"} {
			r.Histogram("tsn_latency_component_ns", ExponentialBounds(100, 2, 16),
				L("class", c), L("component", comp)).Observe(int64(300 * (ci + 1)))
		}
		r.Histogram("tsn_deadline_miss_ns", ExponentialBounds(1000, 2, 14), L("class", c))
	}
	r.Help("tsn_queue_enqueues_total", "frames enqueued")
	for sw := first; sw < first+n; sw++ {
		s := L("switch", strconv.Itoa(sw))
		r.Counter("tsn_switch_rx_frames_total", s).Add(uint64(sw))
		r.Counter("tsn_switch_tx_frames_total", s).Add(uint64(sw))
		for _, reason := range []string{"queue-full", "no-buffer", "meter", "unknown-dst", "gate", "link"} {
			r.Counter("tsn_switch_drops_total", s, L("reason", reason))
		}
		for p := 0; p < 5+sw%2; p++ {
			port := L("port", strconv.Itoa(p))
			for q := 0; q < 8; q++ {
				// Registered queue-first: lookup sorts, merge must not need to.
				r.Counter("tsn_queue_enqueues_total", L("queue", strconv.Itoa(q)), s, port).Add(uint64(q))
				r.Gauge("tsn_queue_depth_high_water", s, port, L("queue", strconv.Itoa(q))).SetMax(int64(q % 3))
			}
			r.Gauge("tsn_pool_occupancy", s, port)
			r.Gauge("tsn_pool_high_water", s, port).SetMax(int64(p))
			r.Counter("tsn_pool_alloc_failures_total", s, port)
			for _, g := range []string{"0", "1"} {
				r.Counter("tsn_gate_rollovers_total", s, port, L("gate", g)).Add(2307)
			}
		}
		r.Counter("tsn_meter_passed_total", s).Add(uint64(sw))
		r.Counter("tsn_meter_dropped_total", s)
		r.Histogram("tsn_queue_residence_ns", ExponentialBounds(100, 2, 12), s).Observe(int64(100 * sw))
		r.Counter("tsn_switch_preemptions_total", s)
	}
	for _, o := range []string{"committed", "rolled-back", "rejected"} {
		r.Counter("tsn_reconfig_txns_total", L("outcome", o))
	}
	r.Counter("tsn_reconfig_ops_total", L("phase", "apply"))
	r.Counter("tsn_reconfig_ops_total", L("phase", "undo"))
	r.Counter("tsn_reconfig_retries_total")
	return r
}

func countSamples(r *Registry) int {
	n := 0
	for _, f := range r.Snapshot().Families {
		n += len(f.Samples)
	}
	return n
}

// TestMergeMatchesReference folds the same sources into two identical
// destinations, one through Merge and one through the kept pre-PR-16
// implementation, and requires byte-identical Prometheus and JSON
// exports after every step.
func TestMergeMatchesReference(t *testing.T) {
	bounds := []int64{10, 100, 1000}
	// Every feature of a source registry the merge has to carry.
	rich := func(bias int64) *Registry {
		r := New()
		r.Help("only_help", "a family nobody instrumented")
		r.Help("hits_total", "hits")
		r.Counter("hits_total", L("zone", "z"), L("area", "a")).Add(uint64(3 + bias)) // unsorted at registration
		r.Counter("hits_total", L("area", "b"), L("zone", "y")).Add(uint64(bias))
		r.Counter("bare_total").Add(7)
		r.Gauge("depth_hw", L("q", "0")).SetMax(10 - bias)
		r.Gauge("depth_hw", L("q", strconv.FormatInt(bias, 10))).SetMax(bias)
		r.Gauge("negative").Set(-5 - bias)
		h := r.Histogram("lat_ns", bounds, L("class", "TS"))
		h.ObserveExemplar(500, "flow=1 seq=1", 40+bias) // equal value: the earlier At must win
		h.Observe(5000)                                 // +Inf bucket
		r.Histogram("lat_ns", bounds, L("class", "RC")).ObserveExemplar(50+bias, "flow=2", 9)
		r.Histogram("lat_ns", bounds, L("class", "BE")).ObserveExemplar(77, "flow=3", 11) // exact (value, At) tie
		r.Histogram("quiet_ns", bounds)                                                   // registered, never observed
		r.Help("late_help", "help after registration")
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
		{"help-only destination family gains a kind", func() *Registry {
			r := New()
			r.Help("hits_total", "destination wording")
			return r
		}, func() []*Registry { return []*Registry{rich(4)} }},
		{"mesh partitions in order", New,
			func() []*Registry { return []*Registry{meshPartitionRegistry(0, 9), meshPartitionRegistry(9, 8)} }},
	}
	for _, st := range steps {
		t.Run(st.name, func(t *testing.T) {
			got, want := st.dst(), st.dst()
			refSrcs := st.srcs()
			for i, src := range st.srcs() {
				got.Merge(src)
				referenceMerge(want, refSrcs[i])
				gp, gj := exportBytes(t, got)
				wp, wj := exportBytes(t, want)
				if gp != wp {
					t.Fatalf("source %d: Prometheus export differs from the reference:\n--- got ---\n%s--- want ---\n%s", i, gp, wp)
				}
				if gj != wj {
					t.Fatalf("source %d: JSON export differs from the reference:\n--- got ---\n%s--- want ---\n%s", i, gj, wj)
				}
			}
			// A merged cell is the cell ordinary registration resolves,
			// whatever order the caller names the labels in.
			got.Counter("hits_total", L("zone", "z"), L("area", "a")).Inc()
			*referenceLookup(want, "hits_total", KindCounter, nil, []Label{L("area", "a"), L("zone", "z")}).c += 1
			if gp, _ := exportBytes(t, got); gp != snapText(t, want) {
				t.Fatalf("registration after merge resolved a different cell than the reference")
			}
		})
	}

	// Mismatches still panic, with the same message, destination intact.
	mismatches := map[string]func() (dst, src *Registry){
		"kind": func() (*Registry, *Registry) {
			a, b := rich(0), rich(1)
			a.Counter("x")
			b.Gauge("x")
			return a, b
		},
		"bucket count": func() (*Registry, *Registry) {
			a, b := rich(0), rich(1)
			a.Histogram("other_ns", []int64{10, 100})
			b.Histogram("other_ns", []int64{10, 100, 1000})
			return a, b
		},
		"bucket values": func() (*Registry, *Registry) {
			a, b := rich(0), rich(1)
			a.Histogram("other_ns", []int64{10, 100})
			b.Histogram("other_ns", []int64{20, 200})
			return a, b
		},
	}
	for name, mk := range mismatches {
		t.Run("mismatch/"+name, func(t *testing.T) {
			panicOf := func(merge func(dst, src *Registry)) (msg interface{}, after, before string) {
				dst, src := mk()
				before = snapText(t, dst)
				func() {
					defer func() { msg = recover() }()
					merge(dst, src)
				}()
				return msg, snapText(t, dst), before
			}
			gotMsg, gotAfter, before := panicOf((*Registry).Merge)
			wantMsg, _, _ := panicOf(referenceMerge)
			if gotMsg == nil || gotMsg != wantMsg {
				t.Fatalf("panic = %v, reference panicked with %v", gotMsg, wantMsg)
			}
			if gotAfter != before {
				t.Errorf("failed merge corrupted the destination:\n--- before ---\n%s--- after ---\n%s", before, gotAfter)
			}
		})
	}
}

// BenchmarkRegistryMerge is what mergeResults pays at the end of a
// 2-partition mesh run: two partition-shaped registries (≈ 13.4 k
// samples each) folded into an empty one, in order. Budget: ≤ 3.5
// allocations per merged sample — the sample, its value cell and its
// key string, plus map and slice growth (≈ 8.9 when every sample's
// labels were copied, sort.Slice'd and re-keyed through a
// strings.Builder).
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
	if perSample > 3.5 {
		b.Fatalf("%.2f allocations per merged sample (%d samples), budget 3.5", perSample, samples)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merge()
	}
	b.ReportMetric(perSample, "allocs/sample")
}
