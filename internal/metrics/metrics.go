// Package metrics is the dataplane telemetry registry: named
// counters, gauges and fixed-bucket histograms with Prometheus and
// JSON exporters. It is designed for a hot path that runs millions of
// events per second of wall time:
//
//   - A family is declared once — name, help, kind, bucket bounds and
//     label keys (Registry.Counters, Gauges, Histograms) — and a cell
//     resolves from values given in the declared key order, kept as a
//     fixed array. A family keeps its cells by value in slab chunks and
//     a list of them in export order: a key sorting after the last cell
//     appends, any other is found by binary search and inserted; no
//     formatting, no allocation per cell. Integer values are rendered
//     only at export. The same values resolve the same cell, so a
//     shared resource (an SMS pool serving every port) can be
//     instrumented from several sites without double counting.
//   - A count has one home. A number its owner reads — in its own
//     logic or through an accessor — stays a field of the owner, and
//     Bind registers the cell by the field's address: the registry
//     reads it at export and the owner's write is the only one. A
//     number only telemetry reads lives in the cell, behind a handle
//     from With. No number is kept in both places.
//   - A handle is one pointer; an increment is one nil check plus one
//     memory write — no map lookups, no interface calls, no allocation.
//     The zero value of every handle is a valid no-op, so an
//     uninstrumented dataplane (nil *Registry) pays only the nil check.
//   - Exports list families by name and each family's cells by their
//     values, whatever order anything was declared, resolved or merged
//     in; a merge walks two sorted lists once per family.
//
// The simulation is single-threaded, so handle operations are
// deliberately unsynchronized; resolution and snapshotting take the
// registry mutex and may run from other goroutines (e.g. a progress
// reporter).
package metrics

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Label is one name/value pair qualifying an instrument.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for building a Label: the form the readers
// (CounterValue, GaugeValue, SumCounter) name a cell in.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind classifies an instrument family.
type Kind string

// Instrument kinds, named after their Prometheus exposition types.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing counter handle. The zero
// value is a no-op. Counter and Gauge handles only write: a number its
// owner reads is a field of the owner, registered with Bind.
type Counter struct{ v *uint64 }

// Inc adds one.
func (c Counter) Inc() {
	if c.v != nil {
		*c.v++
	}
}

// Add adds n.
func (c Counter) Add(n uint64) {
	if c.v != nil {
		*c.v += n
	}
}

// Active reports whether the handle is bound to a registry cell.
func (c Counter) Active() bool { return c.v != nil }

// Gauge is a settable signed instrument handle. The zero value is a
// no-op. It points at its cell's value word, which holds the int64's
// two's-complement bits.
type Gauge struct{ v *uint64 }

// Set stores v.
func (g Gauge) Set(v int64) {
	if g.v != nil {
		*g.v = uint64(v)
	}
}

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water update used by heap depth instrumentation.
func (g Gauge) SetMax(v int64) {
	if g.v != nil && v > int64(*g.v) {
		*g.v = uint64(v)
	}
}

// Exemplar is the worst exemplar-bearing observation of a histogram
// sample: the value plus an opaque label locating the event (e.g.
// "flow=17 seq=412") and the instant it happened. The JSON snapshot
// exports it; the Prometheus 0.0.4 text format has no exemplar syntax
// and stays unchanged.
type Exemplar struct {
	Value int64  `json:"value"`
	Label string `json:"label"`
	At    int64  `json:"at"`
}

// histData is the backing store of one histogram sample.
type histData struct {
	bounds []int64  // sorted upper bounds; an implicit +Inf bucket follows
	counts []uint64 // len(bounds)+1
	sum    float64
	count  uint64
	ex     Exemplar
	exSet  bool
}

// Histogram is a fixed-bucket distribution handle. The zero value is
// a no-op.
type Histogram struct{ h *histData }

// Observe records v into its bucket.
func (h Histogram) Observe(v int64) {
	d := h.h
	if d == nil {
		return
	}
	// Linear scan: bucket lists are short (≤ ~16) and the branch
	// predictor does well on latency distributions; no allocation.
	i := 0
	for i < len(d.bounds) && v > d.bounds[i] {
		i++
	}
	d.counts[i]++
	d.sum += float64(v)
	d.count++
}

// ObserveExemplar is Observe plus exemplar retention: when v is the
// largest exemplar-bearing observation the sample has seen, (label, at)
// is kept as its exemplar. Strictly-greater-wins, so among equal worst
// values the first observed survives — which keeps serial and
// sweep-order-merged parallel runs byte-identical.
func (h Histogram) ObserveExemplar(v int64, label string, at int64) {
	h.Observe(v)
	d := h.h
	if d == nil {
		return
	}
	if !d.exSet || v > d.ex.Value {
		d.ex = Exemplar{Value: v, Label: label, At: at}
		d.exSet = true
	}
}

// Exemplar returns the sample's retained exemplar, if any.
func (h Histogram) Exemplar() (Exemplar, bool) {
	if h.h == nil || !h.h.exSet {
		return Exemplar{}, false
	}
	return h.h.ex, true
}

// Active reports whether the handle is bound to a registry cell.
func (h Histogram) Active() bool { return h.h != nil }

// ExponentialBounds returns n upper bounds starting at start and
// multiplying by factor — the usual latency bucket layout.
func ExponentialBounds(start int64, factor float64, n int) []int64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("metrics: invalid exponential bounds")
	}
	out := make([]int64, n)
	f := float64(start)
	for i := range out {
		out[i] = int64(f)
		f *= factor
	}
	return out
}

// Value is one label value of a cell: an integer, rendered in decimal
// only at export, or a name.
type Value struct {
	name  string
	n     int
	named bool
}

// Int is an integer label value (a switch, port, queue, node, host or
// status code); it must lie in [0, MaxInt32].
func Int(n int) Value { return Value{n: n} }

// Name is a name label value (a reason, class, route, …).
func Name(s string) Value { return Value{name: s, named: true} }

// maxKeys bounds a family's label keys, so a cell's values fit one
// fixed array that compares without building a key.
const maxKeys = 4

// cellKey holds a cell's values in declared key order: an integer as
// itself, a name as ^id of its interned string (so negative).
type cellKey [maxKeys]int32

// sample is one labeled cell of a family; it lives in a slab chunk of
// its family and never moves. A counter or gauge resolved by With keeps
// its value in v, where its handles point; a bound one reads the
// owner's field, its ref. A histogram's ref is its data.
type sample struct {
	key    cellKey
	labels []Label // rendered by settle, sorted by key
	v      uint64  // a counter's count, or a gauge's int64 bits
	ref    any     // *uint64 or *int64 of a bound cell; *histData
}

// value reads a counter or gauge cell, through its binding or inline;
// a gauge's value is the int64 of it.
func (s *sample) value() uint64 {
	switch p := s.ref.(type) {
	case *uint64:
		return *p
	case *int64:
		return uint64(*p)
	}
	return s.v
}

// hist returns a histogram cell's data.
func (s *sample) hist() *histData { return s.ref.(*histData) }

// A family's samples live by value in chunks of one cell, then twice
// the previous chunk, up to maxChunk: a chunk is never reallocated, so
// a family pays one allocation per chunk, not per cell, and its slack
// never exceeds its cells. Chunks of 1, 2, 4 and 8 hold the registry's
// small families (3 classes, 15 class×component histograms) exactly.
const maxChunk = 1024

// family is one declared metric name and its cells.
type family struct {
	reg    *Registry
	name   string
	help   string
	kind   Kind
	bounds []int64  // histogram families share bucket layout
	keys   []string // label keys, in the order cells give values
	// samples points at every cell in export order: by value in
	// declared key order (Registry.compareKeys).
	samples []*sample
	// slab is the chunk new cells come from; a histogram family's
	// hists and counts are carved alongside it, one slot per cell.
	slab   []sample
	hists  []histData
	counts []uint64
	fresh  int // cells whose labels settle has yet to render
}

// Registry owns instrument cells. A nil *Registry is valid: every
// family it declares resolves unbound (no-op) handles.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	settled  bool             // families are in name order
	names    []string         // interned name values, by id
	nameIDs  map[string]int32 // name value → id
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]*family), nameIDs: make(map[string]int32)}
}

// CounterFamily is a declared counter family. The zero value (declared
// on a nil registry) resolves no-op handles.
type CounterFamily struct{ f *family }

// GaugeFamily is a declared gauge family.
type GaugeFamily struct{ f *family }

// HistogramFamily is a declared histogram family.
type HistogramFamily struct{ f *family }

// Counters declares a counter family: its name, the # HELP text and
// the label keys each cell gives values for. Declaring a family again
// returns it; declaring a name differently panics.
func (r *Registry) Counters(name, help string, keys ...string) CounterFamily {
	return CounterFamily{r.declare(name, help, KindCounter, nil, keys)}
}

// Gauges declares a gauge family.
func (r *Registry) Gauges(name, help string, keys ...string) GaugeFamily {
	return GaugeFamily{r.declare(name, help, KindGauge, nil, keys)}
}

// Histograms declares a histogram family with the given strictly
// increasing upper bounds (an implicit +Inf bucket follows).
func (r *Registry) Histograms(name, help string, bounds []int64, keys ...string) HistogramFamily {
	return HistogramFamily{r.declare(name, help, KindHistogram, bounds, keys)}
}

// With resolves (creating at zero) the cell with the given values, one
// per declared key, in declared order. The cell then holds the count:
// With on a bound cell panics.
func (c CounterFamily) With(vals ...Value) Counter {
	if c.f == nil {
		return Counter{}
	}
	return Counter{v: c.f.inline(vals)}
}

// Bind registers the cell with the given values, as With does, as p:
// every reader of the registry reads *p, which stays its owner's to
// write. Binding a cell again to the same p is a no-op; binding one
// that has another home — a With handle or another field — panics.
func (c CounterFamily) Bind(p *uint64, vals ...Value) { c.f.bind(p, vals) }

// With resolves the gauge cell with the given values.
func (g GaugeFamily) With(vals ...Value) Gauge {
	if g.f == nil {
		return Gauge{}
	}
	return Gauge{v: g.f.inline(vals)}
}

// Bind registers the gauge cell with the given values as p.
func (g GaugeFamily) Bind(p *int64, vals ...Value) { g.f.bind(p, vals) }

// With resolves the histogram cell with the given values.
func (h HistogramFamily) With(vals ...Value) Histogram {
	if h.f == nil {
		return Histogram{}
	}
	s, _ := h.f.cell(vals)
	return Histogram{h: s.hist()}
}

// inline resolves the counter or gauge cell with the given values and
// returns its value word.
func (f *family) inline(vals []Value) *uint64 {
	s, _ := f.cell(vals)
	if s.ref != nil {
		panic("metrics: With on a bound cell of " + f.name + ": it would count beside the owner's field")
	}
	return &s.v
}

// bind points the cell with the given values at p (a *uint64 or
// *int64, by the family's kind); a nil family binds nothing.
func (f *family) bind(p any, vals []Value) {
	if f == nil {
		return
	}
	if s, created := f.cell(vals); created {
		s.ref = p
	} else if s.ref != p {
		panic("metrics: Bind of a cell of " + f.name + " that already has a home")
	}
}

func (r *Registry) declare(name, help string, kind Kind, bounds []int64, keys []string) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.declareLocked(name, help, kind, bounds, keys)
}

// declareLocked returns the family declared as given, creating it.
func (r *Registry) declareLocked(name, help string, kind Kind, bounds []int64, keys []string) *family {
	if f, ok := r.byName[name]; ok {
		if f.help != help || f.kind != kind || !slices.Equal(f.bounds, bounds) || !slices.Equal(f.keys, keys) {
			panic(fmt.Sprintf("metrics: %s declared as %s %q {%s} %v, redeclared as %s %q {%s} %v", name,
				f.kind, f.help, strings.Join(f.keys, ","), f.bounds, kind, help, strings.Join(keys, ","), bounds))
		}
		return f
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %s bounds not strictly increasing", name))
		}
	}
	if len(keys) > maxKeys {
		panic(fmt.Sprintf("metrics: %s declares %d label keys, at most %d", name, len(keys), maxKeys))
	}
	for i, k := range keys {
		if slices.Contains(keys[:i], k) {
			panic(fmt.Sprintf("metrics: %s declares label key %q twice", name, k))
		}
	}
	f := &family{reg: r, name: name, help: help, kind: kind, bounds: bounds, keys: slices.Clone(keys)}
	r.byName[name] = f
	r.families = append(r.families, f)
	r.settled = false
	return f
}

// cell resolves the cell with the given values under the registry
// lock, reporting whether it is new.
func (f *family) cell(vals []Value) (*sample, bool) {
	r := f.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(vals) != len(f.keys) {
		panic(fmt.Sprintf("metrics: %s takes %d label values, got %d", f.name, len(f.keys), len(vals)))
	}
	var k cellKey
	for i, v := range vals {
		switch {
		case v.named:
			k[i] = r.intern(v.name)
		case v.n < 0 || v.n > math.MaxInt32:
			panic(fmt.Sprintf("metrics: %s value %d out of range", f.name, v.n))
		default:
			k[i] = int32(v.n)
		}
	}
	n := len(f.samples)
	s := f.cellLocked(k)
	return s, len(f.samples) > n
}

// cellLocked finds or creates the cell keyed k. A key sorting after
// the last cell — the order a builder resolves switches, ports and
// queues in — appends; any other binary-searches and inserts.
func (f *family) cellLocked(k cellKey) *sample {
	r, n := f.reg, len(f.samples)
	if n > 0 {
		c := r.compareKeys(f.samples[n-1].key, k)
		if c == 0 {
			return f.samples[n-1]
		}
		if c > 0 {
			i, found := slices.BinarySearchFunc(f.samples[:n-1], k, func(s *sample, k cellKey) int {
				return r.compareKeys(s.key, k)
			})
			if found {
				return f.samples[i]
			}
			s := f.newSample(k)
			f.samples = slices.Insert(f.samples, i, s)
			return s
		}
	}
	s := f.newSample(k)
	f.samples = append(f.samples, s)
	return s
}

// newSample takes a zeroed cell keyed k from the family's slab, which
// the caller places in samples.
func (f *family) newSample(k cellKey) *sample {
	if len(f.slab) == cap(f.slab) {
		n := min(max(2*cap(f.slab), 1), maxChunk)
		f.slab = make([]sample, 0, n)
		if f.kind == KindHistogram {
			f.hists = make([]histData, n)
			f.counts = make([]uint64, n*(len(f.bounds)+1))
		}
	}
	i := len(f.slab)
	f.slab = f.slab[:i+1]
	s := &f.slab[i]
	s.key = k
	if f.kind == KindHistogram {
		nb := len(f.bounds) + 1
		h := &f.hists[i]
		h.bounds, h.counts = f.bounds, f.counts[i*nb:(i+1)*nb:(i+1)*nb]
		s.ref = h
	}
	f.fresh++
	return s
}

// intern returns the key value of name: ^ its id.
func (r *Registry) intern(name string) int32 {
	id, ok := r.nameIDs[name]
	if !ok {
		id = int32(len(r.names))
		r.names = append(r.names, name)
		r.nameIDs[name] = id
	}
	return ^id
}

// render returns the export text of key value v.
func (r *Registry) render(v int32) string {
	if v < 0 {
		return r.names[^v]
	}
	return strconv.Itoa(int(v))
}

// compare orders two key values: integers numerically, then names
// lexically — never by interning order.
func (r *Registry) compare(a, b int32) int {
	switch {
	case a >= 0 && b >= 0:
		return int(a) - int(b)
	case a >= 0:
		return -1
	case b >= 0:
		return 1
	}
	return strings.Compare(r.names[^a], r.names[^b])
}

// compareKeys orders two cell keys of one family value by value in
// declared key order; the unused trailing positions are zero in both.
func (r *Registry) compareKeys(a, b cellKey) int {
	for i := range a {
		if c := r.compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// settle puts the families in name order and renders every new
// sample's labels; each family's samples are already in export order.
// It runs under the lock and works only after declarations or
// resolutions added something, so a registry that stops growing
// renders once, not per snapshot. One settle's new labels of a family
// are carved from one array.
func (r *Registry) settle() {
	if !r.settled {
		slices.SortFunc(r.families, func(a, b *family) int { return strings.Compare(a.name, b.name) })
		r.settled = true
	}
	for _, f := range r.families {
		n := len(f.keys)
		if f.fresh == 0 || n == 0 {
			f.fresh = 0
			continue
		}
		block := make([]Label, 0, f.fresh*n)
		f.fresh = 0
		for _, s := range f.samples {
			if s.labels != nil {
				continue
			}
			at := len(block)
			for i, k := range f.keys {
				block = append(block, Label{Key: k, Value: r.render(s.key[i])})
			}
			s.labels = block[at:len(block):len(block)]
			slices.SortFunc(s.labels, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
		}
	}
}

// CounterValue reads a counter cell without creating it; missing
// cells read as 0. Intended for tests and report generation.
func (r *Registry) CounterValue(name string, labels ...Label) uint64 {
	if s := r.find(name, KindCounter, labels); s != nil {
		return s.value()
	}
	return 0
}

// GaugeValue reads a gauge cell without creating it.
func (r *Registry) GaugeValue(name string, labels ...Label) int64 {
	if s := r.find(name, KindGauge, labels); s != nil {
		return int64(s.value())
	}
	return 0
}

// SumCounter totals every sample of a counter family whose labels
// include the given subset — e.g. all drop counters of one reason
// across switches.
func (r *Registry) SumCounter(name string, subset ...Label) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok || f.kind != KindCounter {
		return 0
	}
	r.settle()
	var total uint64
	for _, s := range f.samples {
		if labelsInclude(s.labels, subset) {
			total += s.value()
		}
	}
	return total
}

// labelsInclude reports whether have contains every label of want.
func labelsInclude(have, want []Label) bool {
	for _, w := range want {
		if !slices.Contains(have, w) {
			return false
		}
	}
	return true
}

// find returns the cell of family name (of kind) whose labels are
// exactly labels, in any order.
func (r *Registry) find(name string, kind Kind, labels []Label) *sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok || f.kind != kind {
		return nil
	}
	r.settle()
	for _, s := range f.samples {
		if len(s.labels) == len(labels) && labelsInclude(s.labels, labels) {
			return s
		}
	}
	return nil
}
