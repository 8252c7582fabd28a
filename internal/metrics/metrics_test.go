package metrics

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := New()
	frames := r.Counters("frames_total", "frames", "switch")
	c := frames.With(Int(0))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := r.CounterValue("frames_total", L("switch", "0")); got != 5 {
		t.Fatalf("CounterValue = %d, want 5", got)
	}
	// The same values resolve the same cell, through the family
	// declared again too.
	c2 := r.Counters("frames_total", "frames", "switch").With(Int(0))
	c2.Inc()
	if got := c.Value(); got != 6 {
		t.Fatalf("dedup failed: %d, want 6", got)
	}
	// A reader names the labels in any order.
	r.Counters("d", "", "y", "x").With(Int(2), Name("1")).Inc()
	if r.CounterValue("d", L("x", "1"), L("y", "2")) != 1 || r.CounterValue("d", L("y", "2"), L("x", "1")) != 1 {
		t.Fatal("label order changed the cell a reader finds")
	}
	if r.CounterValue("d", L("x", "1")) != 0 {
		t.Fatal("a reader naming a label subset found a cell")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := New()
	g := r.Gauges("depth", "", "q").With(Int(7))
	g.Set(3)
	g.Add(2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
	g.SetMax(4)
	if g.Value() != 5 {
		t.Fatal("SetMax lowered the gauge")
	}
	g.SetMax(9)
	if g.Value() != 9 {
		t.Fatal("SetMax did not raise the gauge")
	}
	if r.GaugeValue("depth", L("q", "7")) != 9 {
		t.Fatal("GaugeValue mismatch")
	}
}

func TestNilRegistryAndZeroHandles(t *testing.T) {
	var r *Registry
	c := r.Counters("x", "").With()
	g := r.Gauges("y", "", "k").With(Int(1))
	h := r.Histograms("z", "", []int64{1, 2}).With()
	// All must be inert no-ops.
	c.Inc()
	c.Add(7)
	g.Set(1)
	g.Add(1)
	g.SetMax(1)
	h.Observe(1)
	if c.Active() || g.Active() || h.Active() {
		t.Fatal("nil-registry handles report active")
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("zero handles returned nonzero values")
	}
	if r.CounterValue("x") != 0 || r.GaugeValue("y") != 0 || r.SumCounter("x") != 0 {
		t.Fatal("nil registry reads nonzero")
	}
	if len(r.Snapshot().Families) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}

	// Zero-value handles (e.g. fields of an uninstrumented switch).
	var zc Counter
	var zg Gauge
	var zh Histogram
	zc.Inc()
	zg.SetMax(10)
	zh.Observe(10)
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histograms("lat", "", []int64{10, 100, 1000}).With()
	for v := int64(1); v <= 10; v++ {
		h.Observe(v) // 10 obs in (…,10]
	}
	for i := 0; i < 10; i++ {
		h.Observe(50) // 10 obs in (10,100]
	}
	h.Observe(5000) // 1 obs in +Inf
	if h.Count() != 21 {
		t.Fatalf("count = %d, want 21", h.Count())
	}
	snap := r.Snapshot()
	smp := snap.Families[0].Samples[0]
	wantCounts := []uint64{10, 10, 0, 1}
	for i, c := range smp.Counts {
		if c != wantCounts[i] {
			t.Fatalf("counts = %v, want %v", smp.Counts, wantCounts)
		}
	}
}

func TestExponentialBounds(t *testing.T) {
	b := ExponentialBounds(100, 2, 4)
	want := []int64{100, 200, 400, 800}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", b, want)
		}
	}
}

func TestSumCounter(t *testing.T) {
	r := New()
	drops := r.Counters("drops", "", "switch", "reason")
	drops.With(Int(0), Name("meter")).Add(3)
	drops.With(Int(1), Name("meter")).Add(4)
	drops.With(Int(1), Name("gate")).Add(5)
	if got := r.SumCounter("drops"); got != 12 {
		t.Fatalf("total = %d, want 12", got)
	}
	if got := r.SumCounter("drops", L("reason", "meter")); got != 7 {
		t.Fatalf("meter total = %d, want 7", got)
	}
	if got := r.SumCounter("drops", L("switch", "1")); got != 9 {
		t.Fatalf("switch 1 total = %d, want 9", got)
	}
	if got := r.SumCounter("missing"); got != 0 {
		t.Fatalf("missing family = %d, want 0", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counters("m", "").With()
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauges("m", "").With()
}

// TestRedeclarationMustMatch: a family is declared once; declaring its
// name again with other help, keys or bounds panics, and so do
// malformed declarations and resolutions.
func TestRedeclarationMustMatch(t *testing.T) {
	cases := map[string]func(r *Registry){
		"help":          func(r *Registry) { r.Counters("m", "other", "switch") },
		"keys":          func(r *Registry) { r.Counters("m", "help", "port") },
		"bounds":        func(r *Registry) { r.Histograms("h", "", []int64{1, 3}) },
		"unsorted":      func(r *Registry) { r.Histograms("u", "", []int64{2, 2}) },
		"duplicate key": func(r *Registry) { r.Counters("dup", "", "a", "b", "a") },
		"too many keys": func(r *Registry) { r.Counters("wide", "", "a", "b", "c", "d", "e") },
		"arity":         func(r *Registry) { r.Counters("m", "help", "switch").With() },
		"negative":      func(r *Registry) { r.Counters("m", "help", "switch").With(Int(-1)) },
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			r := New()
			r.Counters("m", "help", "switch")
			r.Histograms("h", "", []int64{1, 2})
			defer func() {
				if recover() == nil {
					t.Fatal("did not panic")
				}
			}()
			bad(r)
		})
	}
}

// TestHotPathAllocs enforces the acceptance criterion: the counter
// path (and the other handle operations) must not allocate.
func TestHotPathAllocs(t *testing.T) {
	r := New()
	c := r.Counters("c", "").With()
	g := r.Gauges("g", "").With()
	h := r.Histograms("h", "", ExponentialBounds(100, 4, 10)).With()
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("Counter.Inc allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Add(3) }); n != 0 {
		t.Fatalf("Counter.Add allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.SetMax(5) }); n != 0 {
		t.Fatalf("Gauge.SetMax allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f/op", n)
	}
	var zero Counter
	if n := testing.AllocsPerRun(1000, func() { zero.Inc() }); n != 0 {
		t.Fatalf("zero Counter.Inc allocates %.1f/op", n)
	}
}

// TestResolveExistingCellAllocs: resolving a handle on a cell that
// exists — integer and name values alike — allocates nothing, and
// neither does declaring an existing family again.
func TestResolveExistingCellAllocs(t *testing.T) {
	r := New()
	r.Counters("c", "help", "switch", "port", "dir").With(Int(300), Int(1), Name("in"))
	if n := testing.AllocsPerRun(1000, func() {
		r.Counters("c", "help", "switch", "port", "dir").With(Int(300), Int(1), Name("in")).Inc()
	}); n != 0 {
		t.Fatalf("resolving an existing counter allocates %.1f/op, want 0", n)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := New().Counters("c", "").With()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncUnbound(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := New().Histograms("h", "", ExponentialBounds(100, 4, 10)).With()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) % 1_000_000)
	}
}

// scriptFamilies are the families a resolution script draws from: one
// kind per value ("i" an integer, "n" a name) of each declared key.
var scriptFamilies = []struct {
	name  string
	kind  Kind
	keys  []string
	kinds string
}{
	{"enq_total", KindCounter, []string{"switch", "port", "queue"}, "iii"},
	{"drops_total", KindCounter, []string{"switch", "reason"}, "in"},
	{"requests_total", KindCounter, []string{"route", "code"}, "ni"},
	{"events_total", KindCounter, nil, ""},
	{"depth_hw", KindGauge, []string{"class"}, "n"},
	{"lat_ns", KindHistogram, []string{"switch", "class"}, "in"},
}

// scriptNames are resolved in random order, never lexical; "10" and
// "9" are names, which sort after every integer and "10" before "9".
var scriptNames = []string{"queue-full", "TS", "gate", "BE", "zz", "a", "RC", "meter", "b", "ab", "10", "9"}

// runScript resolves ops random cells on a live registry and on the
// map-keyed reference, applies the same update to both, requires every
// re-resolution to return the first handle and the exports to agree at
// random points, and returns both registries. Integer values lie
// below ints and have the given parity (0 even, 1 odd).
func runScript(t *testing.T, rng *rand.Rand, ops, ints, parity int) (*Registry, *mapRegistry) {
	t.Helper()
	bounds := []int64{10, 100, 1000}
	reg, ref := New(), newMapRegistry()
	handles := make(map[string]any)
	for op := 0; op < ops; op++ {
		sf := scriptFamilies[rng.IntN(len(scriptFamilies))]
		vals := make([]Value, len(sf.kinds))
		for i, k := range sf.kinds {
			if k == 'n' {
				vals[i] = Name(scriptNames[rng.IntN(len(scriptNames))])
			} else {
				vals[i] = Int(rng.IntN(ints)/2*2 + parity)
			}
		}
		var fb []int64
		if sf.kind == KindHistogram {
			fb = bounds
		}
		s := ref.declare(sf.name, "help of "+sf.name, sf.kind, fb, sf.keys).cell(vals)
		v := rng.Int64N(2000)
		var h any
		switch sf.kind {
		case KindCounter:
			c := reg.Counters(sf.name, "help of "+sf.name, sf.keys...).With(vals...)
			c.Add(uint64(v))
			Counter{&s.c}.Add(uint64(v))
			h = c
		case KindGauge:
			g := reg.Gauges(sf.name, "help of "+sf.name, sf.keys...).With(vals...)
			g.SetMax(v)
			Gauge{&s.g}.SetMax(v)
			h = g
		case KindHistogram:
			hh := reg.Histograms(sf.name, "help of "+sf.name, bounds, sf.keys...).With(vals...)
			hh.ObserveExemplar(v, fmt.Sprint("op=", op), int64(op))
			Histogram{s.h}.ObserveExemplar(v, fmt.Sprint("op=", op), int64(op))
			h = hh
		}
		key := fmt.Sprint(sf.name, vals)
		if first, ok := handles[key]; ok && first != h {
			t.Fatalf("op %d: %s re-resolved to a different cell", op, key)
		}
		handles[key] = h
		if rng.IntN(64) == 0 {
			requireSameExports(t, reg, ref)
		}
	}
	requireSameExports(t, reg, ref)
	return reg, ref
}

// requireSameExports compares both exports of reg and ref byte for byte.
func requireSameExports(t *testing.T, reg *Registry, ref *mapRegistry) {
	t.Helper()
	gp, gj := exportBytes(t, reg)
	var p, j bytes.Buffer
	snap := ref.snapshot()
	if err := snap.WritePrometheus(&p); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if gp != p.String() {
		t.Fatalf("Prometheus export differs from the map-keyed reference:\n--- got ---\n%s--- want ---\n%s", gp, p.String())
	}
	if gj != j.String() {
		t.Fatalf("JSON export differs from the map-keyed reference:\n--- got ---\n%s--- want ---\n%s", gj, j.String())
	}
}

// TestCellResolutionMatchesReference runs random resolution scripts —
// integer and name values, names out of lexical order, re-resolutions,
// histograms — against the map-keyed store the slab replaced, then
// merges registries whose cells interleave, both into an empty
// destination and into a populated one, and requires the same handles
// and byte-identical exports throughout.
func TestCellResolutionMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			runScript(t, rng, 600, 40, 0)
			a, refA := runScript(t, rng, 300, 30, 0) // even integers
			b, refB := runScript(t, rng, 300, 30, 1) // odd: every cell interleaves with a's
			c, refC := runScript(t, rng, 300, 30, 0)

			dst, refDst := New(), newMapRegistry()
			for i, src := range []*Registry{a, b} {
				dst.Merge(src)
				refDst.merge([]*mapRegistry{refA, refB}[i])
				requireSameExports(t, dst, refDst)
			}
			c.Merge(b) // into a populated destination
			refC.merge(refB)
			requireSameExports(t, c, refC)

			// A merged cell is the one ordinary resolution finds.
			enq := c.Counters("enq_total", "help of enq_total", "switch", "port", "queue")
			cell := enq.With(Int(3), Int(5), Int(7))
			if cell != enq.With(Int(3), Int(5), Int(7)) {
				t.Fatal("re-resolution after a merge found a different cell")
			}
			cell.Inc()
			refC.declare("enq_total", "help of enq_total", KindCounter, nil, []string{"switch", "port", "queue"}).
				cell([]Value{Int(3), Int(5), Int(7)}).c++
			requireSameExports(t, c, refC)
		})
	}
}
