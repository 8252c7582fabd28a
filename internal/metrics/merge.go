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
// Merge keeps no order: exports sort (see Snapshot), so merging the
// same sources in any order exports the same bytes, exact exemplar
// ties aside. It is how the parallel experiment harness and the
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
		f := r.declareLocked(sf.name, sf.help, sf.kind, sf.bounds, sf.keys)
		for _, c := range sf.samples {
			k := c.key
			for i := range sf.keys {
				if k[i] < 0 {
					k[i] = ^ids[^k[i]]
				}
			}
			s := f.cellLocked(k)
			s.c += c.c
			s.g = max(s.g, c.g)
			if c.h == nil {
				continue
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
	}
}
