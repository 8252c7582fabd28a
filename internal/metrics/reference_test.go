package metrics

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// The pre-PR-16 Merge and the registration path it ran every source
// sample through (copy the labels, sort.Slice them, build the key with
// a strings.Builder), kept verbatim as the oracle for
// TestMergeMatchesReference and as the "before" of
// BenchmarkRegistryMerge. The registry they run on is kept with them:
// the string-keyed registry of that time (refRegistry), since the live
// one resolves cells by declared position.

// refSample is one labeled cell of a refFamily.
type refSample struct {
	labels []Label
	c      *uint64
	g      *int64
	h      *histData
}

// refFamily groups every sample of one metric name.
type refFamily struct {
	name    string
	help    string
	kind    Kind
	bounds  []int64
	samples []*refSample
	byKey   map[string]*refSample
}

// refRegistry is the string-keyed registry: families and samples in
// registration order.
type refRegistry struct {
	mu       sync.Mutex
	families []*refFamily
	byName   map[string]*refFamily
}

func newRefRegistry() *refRegistry { return &refRegistry{byName: make(map[string]*refFamily)} }

// Help attaches a help string to a name, registering the name.
func (r *refRegistry) Help(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		f.help = help
		return
	}
	f := &refFamily{name: name, help: help, byKey: make(map[string]*refSample)}
	r.byName[name] = f
	r.families = append(r.families, f)
}

// snapshot exports r in registration order, as Snapshot once did.
func (r *refRegistry) snapshot() Snapshot {
	var snap Snapshot
	for _, f := range r.families {
		if f.kind == "" {
			continue
		}
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind}
		for _, s := range f.samples {
			ss := SampleSnapshot{Labels: s.labels}
			switch f.kind {
			case KindCounter:
				ss.Value = float64(*s.c)
			case KindGauge:
				ss.Value = float64(*s.g)
			case KindHistogram:
				ss.Bounds, ss.Counts = s.h.bounds, append([]uint64(nil), s.h.counts...)
				ss.Sum, ss.Count = s.h.sum, s.h.count
				if s.h.exSet {
					ex := s.h.ex
					ss.Exemplar = &ex
				}
			}
			fs.Samples = append(fs.Samples, ss)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// equalBounds reports whether two bucket layouts are identical.
func equalBounds(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// referenceMerge is the old Registry.Merge.
func referenceMerge(r, src *refRegistry) {
	if r == nil || src == nil {
		return
	}
	if r == src {
		panic("metrics: Merge of a registry into itself")
	}
	// Copy src's cells under its lock...
	src.mu.Lock()
	type cell struct {
		name   string
		help   string
		kind   Kind
		bounds []int64
		labels []Label
		c      uint64
		g      int64
		h      *histData
	}
	cells := make([]cell, 0, 64)
	for _, f := range src.families {
		for _, s := range f.samples {
			c := cell{name: f.name, help: f.help, kind: f.kind, bounds: f.bounds, labels: s.labels}
			switch f.kind {
			case KindCounter:
				c.c = *s.c
			case KindGauge:
				c.g = *s.g
			case KindHistogram:
				h := &histData{bounds: s.h.bounds, counts: append([]uint64(nil), s.h.counts...),
					sum: s.h.sum, count: s.h.count, ex: s.h.ex, exSet: s.h.exSet}
				c.h = h
			}
			cells = append(cells, c)
		}
		if f.kind == "" && f.help != "" {
			// Help-only family (Help called before any instrument).
			cells = append(cells, cell{name: f.name, help: f.help})
		}
	}
	src.mu.Unlock()

	// ...validate every cell against r's existing families BEFORE any
	// mutation, so a kind or bucket-layout mismatch panics with r intact
	// instead of half-merged...
	r.mu.Lock()
	var mismatch string
	for _, c := range cells {
		f, ok := r.byName[c.name]
		if !ok || f.kind == "" || c.kind == "" {
			continue
		}
		if f.kind != c.kind {
			mismatch = fmt.Sprintf("metrics: Merge of %s registered as %s, merged as %s",
				c.name, f.kind, c.kind)
			break
		}
		if c.kind == KindHistogram && !equalBounds(f.bounds, c.bounds) {
			mismatch = fmt.Sprintf("metrics: Merge of %s with mismatched bucket layouts (%v vs %v)",
				c.name, f.bounds, c.bounds)
			break
		}
	}
	r.mu.Unlock()
	if mismatch != "" {
		panic(mismatch)
	}

	// ...then apply under r's lock via the normal registration path, so
	// family/sample ordering matches a serial run registering the same
	// sequence.
	for _, c := range cells {
		if c.help != "" {
			r.Help(c.name, c.help)
		}
		switch c.kind {
		case KindCounter:
			s := referenceLookup(r, c.name, KindCounter, nil, c.labels)
			*s.c += c.c
		case KindGauge:
			s := referenceLookup(r, c.name, KindGauge, nil, c.labels)
			if c.g > *s.g {
				*s.g = c.g
			}
		case KindHistogram:
			s := referenceLookup(r, c.name, KindHistogram, c.bounds, c.labels)
			for i, n := range c.h.counts {
				s.h.counts[i] += n
			}
			s.h.sum += c.h.sum
			s.h.count += c.h.count
			// Exemplars fold like ObserveExemplar retains them:
			// strictly-greater value wins; among equal values the earlier
			// observation (smaller At) wins, matching the serial engine
			// keeping the FIRST equal-worst it saw — so merging partition
			// registries reproduces the serial exemplar no matter which
			// partition observed it. An exact (value, At) tie keeps the
			// destination's (earlier-in-merge-order) exemplar.
			if c.h.exSet && (!s.h.exSet || c.h.ex.Value > s.h.ex.Value ||
				(c.h.ex.Value == s.h.ex.Value && c.h.ex.At < s.h.ex.At)) {
				s.h.ex = c.h.ex
				s.h.exSet = true
			}
		}
	}
}

// referenceLabelKey builds the dedup key of a sorted label set.
func referenceLabelKey(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(0)
	}
	return b.String()
}

// referenceLookup finds or creates the cell for (name, labels) of the given
// kind. Kind mismatches on an existing family panic: they are
// programming errors at instrumentation sites.
func referenceLookup(r *refRegistry, name string, kind Kind, bounds []int64, labels []Label) *refSample {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &refFamily{name: name, byKey: make(map[string]*refSample)}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.kind == "" {
		f.kind = kind
		f.bounds = bounds
	} else if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	key := referenceLabelKey(sorted)
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := &refSample{labels: sorted}
	switch kind {
	case KindCounter:
		s.c = new(uint64)
	case KindGauge:
		s.g = new(int64)
	case KindHistogram:
		s.h = &histData{bounds: f.bounds, counts: make([]uint64, len(f.bounds)+1)}
	}
	f.byKey[key] = s
	f.samples = append(f.samples, s)
	return s
}

// The map-keyed cell store that slab slots replaced, kept verbatim as
// the oracle for TestCellResolutionMatchesReference: a family found or
// created a cell through its map, appended it, and settle sorted every
// family that grew. mapRegistry borrows only the live registry's
// interning, rendering and value order.

// mapFamily is a family whose cells are keyed by a map.
type mapFamily struct {
	reg     *mapRegistry
	name    string
	help    string
	kind    Kind
	bounds  []int64
	keys    []string
	cells   map[cellKey]*sample
	samples []*sample
	settled bool // samples are in export order, every one rendered
}

// mapRegistry is a registry of mapFamily.
type mapRegistry struct {
	*Registry // names and value order
	families  []*mapFamily
	byName    map[string]*mapFamily
	settled   bool
}

func newMapRegistry() *mapRegistry {
	return &mapRegistry{Registry: New(), byName: make(map[string]*mapFamily)}
}

// declare returns the family declared as given, creating it.
func (r *mapRegistry) declare(name, help string, kind Kind, bounds []int64, keys []string) *mapFamily {
	if f, ok := r.byName[name]; ok {
		return f
	}
	f := &mapFamily{reg: r, name: name, help: help, kind: kind, bounds: bounds,
		keys: slices.Clone(keys), cells: make(map[cellKey]*sample)}
	r.byName[name] = f
	r.families = append(r.families, f)
	r.settled = false
	return f
}

// cell resolves the cell with the given values.
func (f *mapFamily) cell(vals []Value) *sample {
	var k cellKey
	for i, v := range vals {
		if v.named {
			k[i] = f.reg.intern(v.name)
		} else {
			k[i] = int32(v.n)
		}
	}
	return f.cellLocked(k)
}

// cellLocked finds or creates the cell keyed k.
func (f *mapFamily) cellLocked(k cellKey) *sample {
	if s, ok := f.cells[k]; ok {
		return s
	}
	s := &sample{key: k}
	if f.kind == KindHistogram {
		s.h = &histData{bounds: f.bounds, counts: make([]uint64, len(f.bounds)+1)}
	}
	f.cells[k] = s
	f.samples = append(f.samples, s)
	f.settled = false
	return s
}

// settle puts the registry in export order — families by name, each
// family's samples by their values in declared key order — and renders
// every new sample's labels. It runs under the lock and works only
// after declarations or resolutions added something, so a registry
// that stops growing sorts once, not per snapshot.
func (r *mapRegistry) settle() {
	if !r.settled {
		slices.SortFunc(r.families, func(a, b *mapFamily) int { return strings.Compare(a.name, b.name) })
		r.settled = true
	}
	for _, f := range r.families {
		if f.settled {
			continue
		}
		n := len(f.keys)
		for _, s := range f.samples {
			if s.labels == nil && n > 0 {
				s.labels = make([]Label, n)
				for i, k := range f.keys {
					s.labels[i] = Label{Key: k, Value: r.render(s.key[i])}
				}
				slices.SortFunc(s.labels, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
			}
		}
		slices.SortFunc(f.samples, func(a, b *sample) int {
			for i := 0; i < n; i++ {
				if c := r.compare(a.key[i], b.key[i]); c != 0 {
					return c
				}
			}
			return 0
		})
		f.settled = true
	}
}

// merge is Merge as it ran on the map store: every source cell
// resolved through cellLocked (validation left out).
func (r *mapRegistry) merge(src *mapRegistry) {
	ids := make([]int32, len(src.names))
	for i, name := range src.names {
		ids[i] = ^r.intern(name)
	}
	for _, sf := range src.families {
		f := r.declare(sf.name, sf.help, sf.kind, sf.bounds, sf.keys)
		for _, c := range sf.samples {
			k := c.key
			for i := range sf.keys {
				if k[i] < 0 {
					k[i] = ^ids[^k[i]]
				}
			}
			f.cellLocked(k).fold(c)
		}
	}
}

// snapshot exports r as Snapshot does.
func (r *mapRegistry) snapshot() Snapshot {
	r.settle()
	var snap Snapshot
	for _, f := range r.families {
		if len(f.samples) == 0 {
			continue
		}
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind}
		for _, s := range f.samples {
			ss := SampleSnapshot{Labels: s.labels}
			switch f.kind {
			case KindCounter:
				ss.Value = float64(s.c)
			case KindGauge:
				ss.Value = float64(s.g)
			case KindHistogram:
				ss.Bounds, ss.Counts = s.h.bounds, slices.Clone(s.h.counts)
				ss.Sum, ss.Count = s.h.sum, s.h.count
				if s.h.exSet {
					ex := s.h.ex
					ss.Exemplar = &ex
				}
			}
			fs.Samples = append(fs.Samples, ss)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}
