package analyzer

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// The reference: the collector as it was before per-flow rows — one
// FlowStats per flow ID in a map, created on first use and looked up on
// every delivery. The methods are kept verbatim (only the receiver type
// is renamed); TestCollectorMatchesReference drives both with one
// delivery script and compares what they export.
type refCollector struct {
	perFlow  map[uint32]*FlowStats
	perClass map[ethernet.Class]*classSamples

	// sink, when set, observes every recorded delivery.
	sink LatencySink

	// Telemetry handles, indexed by traffic class (BE/RC/TS); zero
	// values are no-ops.
	metDelivered [3]metrics.Counter
	metLatency   [3]metrics.Histogram
}

// newRefCollector returns an empty collector.
func newRefCollector() *refCollector {
	return &refCollector{
		perFlow:  make(map[uint32]*FlowStats),
		perClass: make(map[ethernet.Class]*classSamples),
	}
}

// SetDeadline registers flowID's deadline for miss accounting.
func (c *refCollector) SetDeadline(flowID uint32, d sim.Time) {
	c.stats(flowID).deadline = d
}

// RegisterFlow pre-registers a flow's class so fully-lost flows (zero
// receives) still count toward their class's Sent/Lost totals.
func (c *refCollector) RegisterFlow(flowID uint32, cls ethernet.Class) {
	c.stats(flowID).Class = cls
}

func (c *refCollector) stats(flowID uint32) *FlowStats {
	st, ok := c.perFlow[flowID]
	if !ok {
		st = &FlowStats{FlowID: flowID, MinLat: math.MaxInt64}
		c.perFlow[flowID] = st
	}
	return st
}

// Record ingests one frame arriving at the given instant. Latency is
// measured from the tester timestamp the generator stamped at
// injection.
func (c *refCollector) Record(f *ethernet.Frame, arrival sim.Time) {
	st := c.stats(f.FlowID)
	st.Class = f.Class
	lat := arrival - f.SentAt
	if lat < 0 {
		lat = 0
	}
	st.Received++
	if f.Class < ethernet.Class(len(c.metDelivered)) {
		c.metDelivered[f.Class].Inc()
		c.metLatency[f.Class].Observe(int64(lat))
	}
	st.sumLat += float64(lat)
	st.sumLatSq += float64(lat) * float64(lat)
	if lat < st.MinLat {
		st.MinLat = lat
	}
	if lat > st.MaxLat {
		st.MaxLat = lat
	}
	missed := st.deadline > 0 && lat > st.deadline
	if missed {
		st.DeadlineMisses++
	}
	if c.sink != nil {
		c.sink.ObserveLatency(f, arrival, lat, missed)
	}
	if !st.seenSeq {
		st.seenSeq = true
		st.SeqGaps += uint64(f.Seq) // frames lost before the first arrival
	} else if f.Seq > st.lastSeq+1 {
		st.SeqGaps += uint64(f.Seq - st.lastSeq - 1)
	} else if f.Seq <= st.lastSeq {
		st.Reordered++
	}
	if f.Seq > st.lastSeq || !st.seenSeq {
		st.lastSeq = f.Seq
	}
	cs, ok := c.perClass[f.Class]
	if !ok {
		cs = &classSamples{}
		c.perClass[f.Class] = cs
	}
	cs.add(lat)
}

// NoteDuplicate records a FRER-eliminated duplicate for flowID. The
// frame is accounted as redundancy overhead, not as a delivery, so
// loss/latency statistics never double-count member streams.
func (c *refCollector) NoteDuplicate(flowID uint32) {
	c.stats(flowID).Duplicates++
}

// NoteRogue records a FRER rogue discard (arrival outside the
// recovery window) for flowID.
func (c *refCollector) NoteRogue(flowID uint32) {
	c.stats(flowID).Rogue++
}

// Merge folds src's statistics into c — how the partitioned testbed
// reassembles one collector view from the per-partition collectors its
// NICs recorded into. Per-flow accumulators add (counts, latency sums,
// misses, FRER eliminations), extrema fold, and per-class percentile
// sample sets concatenate (exact while below the decimation
// threshold). Sequence-tracking state (lastSeq/seenSeq) carries over
// only when c has not itself received the flow: every flow is
// delivered at exactly one NIC, so in partition merges at most one
// side has receive-state for any flow and the fold is exact. Telemetry
// handles are registry-side and merge with metrics.Registry.Merge.
func (c *refCollector) Merge(src *refCollector) {
	if src == nil || src == c {
		return
	}
	for id, st := range src.perFlow {
		dst := c.stats(id)
		dst.Class = st.Class
		dst.Received += st.Received
		dst.sumLat += st.sumLat
		dst.sumLatSq += st.sumLatSq
		if st.MinLat < dst.MinLat {
			dst.MinLat = st.MinLat
		}
		if st.MaxLat > dst.MaxLat {
			dst.MaxLat = st.MaxLat
		}
		dst.DeadlineMisses += st.DeadlineMisses
		if dst.deadline == 0 {
			dst.deadline = st.deadline
		}
		dst.SeqGaps += st.SeqGaps
		dst.Reordered += st.Reordered
		dst.Duplicates += st.Duplicates
		dst.Rogue += st.Rogue
		if !dst.seenSeq {
			dst.lastSeq, dst.seenSeq = st.lastSeq, st.seenSeq
		}
	}
	for cls, cs := range src.perClass {
		dst, ok := c.perClass[cls]
		if !ok {
			dst = &classSamples{}
			c.perClass[cls] = dst
		}
		dst.merge(cs)
	}
}

// Flow returns flowID's statistics, or nil if nothing arrived.
func (c *refCollector) Flow(flowID uint32) *FlowStats {
	st, ok := c.perFlow[flowID]
	if !ok {
		return nil
	}
	return st
}

// Flows returns all flow statistics sorted by flow ID.
func (c *refCollector) Flows() []*FlowStats {
	out := make([]*FlowStats, 0, len(c.perFlow))
	for _, st := range c.perFlow {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FlowID < out[j].FlowID })
	return out
}

// Summarize pools all flows of class cls. sent maps flowID to the
// generator's transmit count (for loss accounting); unknown flows count
// zero sent.
func (c *refCollector) Summarize(cls ethernet.Class, sent map[uint32]uint64) Summary {
	s := Summary{Class: cls, MinLat: math.MaxInt64}
	var sumLat, sumSq float64
	for _, st := range c.perFlow {
		if st.Class != cls {
			continue
		}
		s.Flows++
		s.Duplicates += st.Duplicates
		s.Rogue += st.Rogue
		if st.Received == 0 {
			continue // registered but fully lost: no latency samples
		}
		s.Received += st.Received
		sumLat += st.sumLat
		sumSq += st.sumLatSq
		if st.MinLat < s.MinLat {
			s.MinLat = st.MinLat
		}
		if st.MaxLat > s.MaxLat {
			s.MaxLat = st.MaxLat
		}
		s.DeadlineMisses += st.DeadlineMisses
	}
	for id, n := range sent {
		if st, ok := c.perFlow[id]; ok && st.Class == cls {
			s.Sent += n
		}
	}
	if s.Sent > s.Received {
		s.Lost = s.Sent - s.Received
	}
	if s.Sent > 0 {
		s.LossRate = float64(s.Lost) / float64(s.Sent)
	}
	if s.Received > 0 {
		n := float64(s.Received)
		mean := sumLat / n
		s.MeanLatency = sim.Time(mean)
		variance := sumSq/n - mean*mean
		if variance < 0 {
			variance = 0
		}
		s.Jitter = sim.Time(math.Sqrt(variance))
	} else {
		s.MinLat = 0
	}
	if cs, ok := c.perClass[cls]; ok {
		s.P50 = cs.quantile(0.50)
		s.P99 = cs.quantile(0.99)
	}
	return s
}

// script is one seeded delivery script, played into the row collector
// and the reference alike. Flows listen on one of two parts; each part
// admits a first batch, later a second (flows added late), and some
// flows are never admitted at all (the reference meets them at their
// first delivery, the collector by ID). Some admitted flows never
// deliver. Talkers stamp the right row, none, or another flow's.
type script struct {
	rng   *sim.Rand
	specs []*flows.Spec
	part  []int // listener part of specs[i]
	row   []uint32
}

func newScript(seed uint64) *script {
	s := &script{rng: sim.NewRand(seed)}
	n := 8 + s.rng.Intn(40)
	for i := 0; i < n; i++ {
		spec := &flows.Spec{ID: uint32(1 + 3*i + s.rng.Intn(3)), Class: ethernet.Class(s.rng.Intn(3))}
		if spec.Class == ethernet.ClassTS && s.rng.Intn(3) > 0 {
			spec.Deadline = sim.Time(100 + s.rng.Intn(400))
		}
		s.specs = append(s.specs, spec)
		s.part = append(s.part, s.rng.Intn(2))
	}
	s.row = make([]uint32, n)
	return s
}

// admit registers the flows [from, to) that are not left unadmitted on
// their parts: a batch per part on c, one flow at a time on ref.
func (s *script) admit(c [2]*Collector, ref [2]*refCollector, from, to int) {
	for p := 0; p < 2; p++ {
		var batch []*flows.Spec
		var at []int
		for i := from; i < to; i++ {
			if s.part[i] == p && i%7 != 3 { // every seventh flow is never admitted
				batch, at = append(batch, s.specs[i]), append(at, i)
			}
		}
		first := c[p].Admit(batch)
		for k, i := range at {
			s.row[i] = uint32(first + k + 1)
			spec := s.specs[i]
			ref[p].RegisterFlow(spec.ID, spec.Class)
			if spec.Class == ethernet.ClassTS && spec.Deadline > 0 {
				ref[p].SetDeadline(spec.ID, spec.Deadline)
			}
		}
	}
}

// play delivers count frames of the flows [0, upto), every third flow
// kept silent, and calls deliver with the frame (stamped) and arrival.
func (s *script) play(count, upto int, deliver func(p int, f *ethernet.Frame, arrival sim.Time, note int)) {
	seq := map[int]uint32{}
	for k := 0; k < count; k++ {
		i := s.rng.Intn(upto)
		if i%3 == 1 {
			continue // admitted but never delivered
		}
		spec := s.specs[i]
		f := &ethernet.Frame{FlowID: spec.ID, Class: spec.Class, Seq: seq[i], SentAt: sim.Time(k) * 1000}
		seq[i] += uint32(1 + s.rng.Intn(2)) // sometimes a gap
		if s.rng.Intn(9) == 0 {
			f.Seq = seq[i] / 2 // late or reordered
		}
		switch r := s.rng.Intn(10); {
		case r < 7:
			f.Row = s.row[i]
		case r == 7:
			f.Row = 0
		default:
			f.Row = uint32(s.rng.Intn(len(s.specs) + 2)) // another flow's row, or past the end
		}
		lat := sim.Time(50 + s.rng.Intn(600)) // the deadlines are 100..500: a first delivery may miss
		deliver(s.part[i], f, f.SentAt+lat, s.rng.Intn(12))
	}
}

// TestCollectorMatchesReference: over seeded scripts, the row collector
// exports what the map collector exported — per part, and after a
// two-part merge: Flows() value for value, and Summarize per class.
func TestCollectorMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 64; seed++ {
		s := newScript(seed)
		c := [2]*Collector{NewCollector(), NewCollector()}
		ref := [2]*refCollector{newRefCollector(), newRefCollector()}
		deliver := func(p int, f *ethernet.Frame, arrival sim.Time, note int) {
			switch note {
			case 0:
				ref[p].NoteDuplicate(f.FlowID)
				c[p].NoteDuplicate(f)
			case 1:
				ref[p].NoteRogue(f.FlowID)
				c[p].NoteRogue(f)
			default:
				ref[p].Record(f, arrival)
				c[p].Record(f, arrival)
			}
		}
		half := len(s.specs) / 2
		s.admit(c, ref, 0, half)
		s.play(200, half, deliver)
		s.admit(c, ref, half, len(s.specs)) // flows added late
		s.play(400, len(s.specs), deliver)

		sent := map[uint32]uint64{9999: 5}
		for _, spec := range s.specs {
			sent[spec.ID] = uint64(s.rng.Intn(40))
		}
		merged, refMerged := NewCollector(), newRefCollector()
		for p := 0; p < 2; p++ {
			compareCollectors(t, seed, fmt.Sprintf("part %d", p), c[p], ref[p], sent)
			merged.Merge(c[p])
			refMerged.Merge(ref[p])
		}
		compareCollectors(t, seed, "merged", merged, refMerged, sent)
	}
}

func compareCollectors(t *testing.T, seed uint64, what string, c *Collector, ref *refCollector, sent map[uint32]uint64) {
	t.Helper()
	got, want := c.Flows(), ref.Flows()
	if len(got) != len(want) {
		t.Fatalf("seed %d %s: %d flows, reference %d", seed, what, len(got), len(want))
	}
	for i := range want {
		if *got[i] != *want[i] {
			t.Fatalf("seed %d %s: flow %d\n got %+v\nwant %+v", seed, what, want[i].FlowID, *got[i], *want[i])
		}
		if c.Flow(want[i].FlowID) != got[i] {
			t.Fatalf("seed %d %s: Flow(%d) is not the row Flows lists", seed, what, want[i].FlowID)
		}
	}
	for _, cls := range []ethernet.Class{ethernet.ClassBE, ethernet.ClassRC, ethernet.ClassTS} {
		if g, w := c.Summarize(cls, sent), ref.Summarize(cls, sent); g != w {
			t.Fatalf("seed %d %s: %v summary\n got %+v\nwant %+v", seed, what, cls, g, w)
		}
	}
}

// TestAdmittedRowsStayPut: a *FlowStats handed out before a later batch
// is admitted is still the flow's row afterwards.
func TestAdmittedRowsStayPut(t *testing.T) {
	c := NewCollector()
	c.Admit([]*flows.Spec{{ID: 1, Class: ethernet.ClassTS}})
	st := c.Flow(1)
	for id := uint32(2); id < 200; id++ {
		c.Admit([]*flows.Spec{{ID: id, Class: ethernet.ClassTS}})
	}
	c.Record(&ethernet.Frame{FlowID: 1, Class: ethernet.ClassTS, Row: 1}, 10)
	if c.Flow(1) != st || st.Received != 1 {
		t.Fatalf("flow 1's row moved or missed its delivery: %+v", *st)
	}
}

// TestStampedRowSkipsTheIndex: a frame carrying its admitted row is
// recorded through the row alone. The by-ID index is set aside, so a
// fallback lookup (a row index read off by one, say) would write to a
// nil map and panic.
func TestStampedRowSkipsTheIndex(t *testing.T) {
	c := NewCollector()
	first := c.Admit([]*flows.Spec{{ID: 7, Class: ethernet.ClassTS}, {ID: 9, Class: ethernet.ClassRC}})
	byID := c.byID
	c.byID = nil
	c.Record(&ethernet.Frame{FlowID: 9, Class: ethernet.ClassRC, Row: uint32(first + 2)}, 10)
	c.NoteDuplicate(&ethernet.Frame{FlowID: 7, Class: ethernet.ClassTS, Row: uint32(first + 1)})
	c.byID = byID
	if st := c.Flow(9); st.Received != 1 || c.Flow(7).Duplicates != 1 {
		t.Fatalf("flow 9 %+v, flow 7 %+v", *st, *c.Flow(7))
	}
}

// The reference sample store: classSamples as it was before chunks, one
// slice grown by append (and copied at every growth). The methods are
// kept verbatim; only the type is renamed. TestClassSamplesMatchReference
// drives both with one latency stream and compares what they report.
type refSamples struct {
	samples []sim.Time
	stride  uint64 // keep one sample in 2^stride
	count   uint64
}

func (c *refSamples) add(lat sim.Time) {
	c.count++
	if c.count&((1<<c.stride)-1) != 0 {
		return
	}
	if len(c.samples) >= sampleCap {
		c.decimate()
		if c.count&((1<<c.stride)-1) != 0 {
			return
		}
	}
	c.samples = append(c.samples, lat)
}

// decimate halves the retained set in place (keep every other sample)
// and doubles the sampling stride.
func (c *refSamples) decimate() {
	kept := c.samples[:0]
	for i := 0; i < len(c.samples); i += 2 {
		kept = append(kept, c.samples[i])
	}
	c.samples = kept
	c.stride++
}

// merge folds src's retained samples into c. The coarser stride wins:
// the finer side is decimated until the strides match, then the sets
// concatenate (quantile sorts, so order is immaterial). While both
// sides are below the decimation threshold the merged set is the exact
// union — a partitioned run's percentiles equal the serial run's.
func (c *refSamples) merge(src *refSamples) {
	ss := append([]sim.Time(nil), src.samples...)
	st := src.stride
	for c.stride < st {
		c.decimate()
	}
	for st < c.stride {
		kept := ss[:0]
		for i := 0; i < len(ss); i += 2 {
			kept = append(kept, ss[i])
		}
		ss = kept
		st++
	}
	c.samples = append(c.samples, ss...)
	c.count += src.count
	for len(c.samples) > sampleCap {
		c.decimate()
	}
}

// quantile returns the q-quantile (0..1) of the retained samples.
func (c *refSamples) quantile(q float64) sim.Time {
	if len(c.samples) == 0 {
		return 0
	}
	sorted := append([]sim.Time(nil), c.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// TestClassSamplesMatchReference: seeded latency streams, some short,
// some ending inside a chunk, some past sampleCap (one or two
// decimations), then merges of collectors at equal and unequal strides
// in both directions; after every step the chunked store must agree
// with the append-based reference on count, stride and every reported
// quantile, and hold its samples in the reference's order.
func TestClassSamplesMatchReference(t *testing.T) {
	qs := []float64{0, 0.5, 0.9, 0.99, 1}
	check := func(t *testing.T, what string, c *classSamples, ref *refSamples) {
		t.Helper()
		if c.count != ref.count || c.stride != ref.stride || c.n != len(ref.samples) {
			t.Fatalf("%s: count/stride/retained %d/%d/%d, reference %d/%d/%d",
				what, c.count, c.stride, c.n, ref.count, ref.stride, len(ref.samples))
		}
		for _, q := range qs {
			if got, want := c.quantile(q), ref.quantile(q); got != want {
				t.Fatalf("%s: quantile(%v) = %v, reference %v", what, q, got, want)
			}
		}
		if !slices.Equal(c.flat(), ref.samples) {
			t.Fatalf("%s: retained samples differ from the reference's", what)
		}
	}
	// Stream lengths: empty, inside the first chunk, at chunk edges,
	// just below, at and past sampleCap, and past two decimations.
	lengths := []int{0, 1, 255, 256, 257, 3840, 3841, sampleCap - 1, sampleCap, sampleCap + 1,
		2*sampleCap + 3, 4*sampleCap + 5}
	rng := sim.NewRand(7)
	stream := func(n int) (*classSamples, *refSamples) {
		c, ref := &classSamples{}, &refSamples{}
		for i := 0; i < n; i++ {
			lat := sim.Time(rng.Int63n(int64(sim.Millisecond)))
			c.add(lat)
			ref.add(lat)
		}
		return c, ref
	}
	for _, n := range lengths {
		c, ref := stream(n)
		check(t, fmt.Sprintf("stream of %d", n), c, ref)
	}
	// Merges: every pair of lengths from a spread that covers equal and
	// unequal strides either way round; the merged store then keeps
	// receiving samples.
	spread := []int{0, 300, sampleCap + 10, 2*sampleCap + 3}
	if testing.Short() {
		spread = []int{0, 300, sampleCap + 10}
	}
	for _, a := range spread {
		for _, b := range spread {
			c, ref := stream(a)
			cb, refb := stream(b)
			c.merge(cb)
			ref.merge(refb)
			what := fmt.Sprintf("merge %d into %d", b, a)
			check(t, what, c, ref)
			for i := 0; i < 1000; i++ {
				lat := sim.Time(rng.Int63n(int64(sim.Millisecond)))
				c.add(lat)
				ref.add(lat)
			}
			check(t, what+" then 1000 more", c, ref)
		}
	}
}
