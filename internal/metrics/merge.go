package metrics

import (
	"fmt"
	"slices"
)

// Merge folds every cell of src into r's cell with the same family and
// label values, creating what r lacks:
//
//   - counters and histograms accumulate (sums of sums, bucket-wise
//     counts);
//   - gauges take the maximum — high-water semantics, matching how the
//     dataplane uses gauges (queue/pool/heap high waters via SetMax).
//     Snapshot-style gauges (an occupancy at run end) are only
//     meaningful per run and read as the cross-run worst after a merge;
//   - a histogram keeps the greater exemplar, and of two equal values
//     the earlier At, so merging partition registries reproduces the
//     serial run's exemplar whichever partition observed it; an exact
//     (value, At) tie keeps r's.
//
// Both registries keep each family's cells in export order, so a
// family merges in one walk of two sorted lists, and merging the same
// sources in any order exports the same bytes, exact exemplar ties
// aside. It is how the parallel experiment harness and the
// partitioned testbed keep the hot path unsynchronized: every worker
// instruments its own scratch registry, and the owner merges them back
// once the work is done. A family src declares differently from r
// (kind, bucket layout, help or keys) panics before r is touched.
// Merging a registry into itself panics. Merge holds r's lock, then
// src's, so concurrent snapshots stay safe; two goroutines merging two
// registries into each other concurrently is the caller's bug.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	if r == src {
		panic("metrics: Merge of a registry into itself")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	src.mu.Lock()
	defer src.mu.Unlock()
	for _, sf := range src.families {
		f, ok := r.byName[sf.name]
		switch {
		case !ok:
		case f.kind != sf.kind:
			panic(fmt.Sprintf("metrics: Merge of %s registered as %s, merged as %s", sf.name, f.kind, sf.kind))
		case !slices.Equal(f.bounds, sf.bounds):
			panic(fmt.Sprintf("metrics: Merge of %s with mismatched bucket layouts (%v vs %v)", sf.name, f.bounds, sf.bounds))
		case f.help != sf.help || !slices.Equal(f.keys, sf.keys):
			panic(fmt.Sprintf("metrics: Merge of %s declared as %q %v, merged as %q %v", sf.name, f.help, f.keys, sf.help, sf.keys))
		}
	}
	ids := make([]int32, len(src.names)) // src's name ids in r
	for i, name := range src.names {
		ids[i] = ^r.intern(name)
	}
	for _, sf := range src.families {
		r.declareLocked(sf.name, sf.help, sf.kind, sf.bounds, sf.keys).merge(sf, ids)
	}
}

// merge folds sf's cells into f's in one walk of the two sorted lists;
// ids maps sf's registry's name ids to f's. Translating names keeps a
// list's order, since names compare by their text.
func (f *family) merge(sf *family, ids []int32) {
	merged := make([]*sample, 0, len(f.samples)+len(sf.samples))
	i := 0 // f's cells before i are in merged
	for _, c := range sf.samples {
		k := c.key
		for j := range f.keys {
			if k[j] < 0 {
				k[j] = ^ids[^k[j]]
			}
		}
		for i < len(f.samples) && f.reg.compareKeys(f.samples[i].key, k) < 0 {
			merged = append(merged, f.samples[i])
			i++
		}
		var s *sample
		if i < len(f.samples) && f.samples[i].key == k {
			s = f.samples[i]
			i++
		} else {
			s = f.newSample(k)
		}
		merged = append(merged, s)
		s.fold(c)
	}
	f.samples = append(merged, f.samples[i:]...)
}

// fold adds source cell c into s: counters and histograms accumulate,
// gauges take the maximum, and the greater exemplar (then the earlier
// At) survives.
func (s *sample) fold(c *sample) {
	s.c += c.c
	s.g = max(s.g, c.g)
	if c.h == nil {
		return
	}
	for i, n := range c.h.counts {
		s.h.counts[i] += n
	}
	s.h.sum += c.h.sum
	s.h.count += c.h.count
	if c.h.exSet && (!s.h.exSet || c.h.ex.Value > s.h.ex.Value ||
		(c.h.ex.Value == s.h.ex.Value && c.h.ex.At < s.h.ex.At)) {
		s.h.ex = c.h.ex
		s.h.exSet = true
	}
}
