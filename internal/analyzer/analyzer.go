// Package analyzer is the software counterpart of the paper's TSN
// analyzer box: it receives TS/RC/BE flows at the network edge and
// computes per-flow and aggregate latency, jitter and packet loss —
// the three metrics of the paper's §IV.C evaluation. Jitter is reported
// as the standard deviation of latency, the paper's definition.
package analyzer

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// FlowStats accumulates one flow's receive-side statistics.
type FlowStats struct {
	FlowID   uint32
	Class    ethernet.Class
	Received uint64
	// Latency accumulators in float ns (sums of large ns values can
	// overflow int64 squared).
	sumLat   float64
	sumLatSq float64
	MinLat   sim.Time
	MaxLat   sim.Time
	// DeadlineMisses counts frames whose latency exceeded the flow's
	// deadline (set via SetDeadline).
	DeadlineMisses uint64
	deadline       sim.Time
	// SeqGaps counts sequence numbers skipped on arrival (in-path
	// loss positions); Reordered counts arrivals at or below the last
	// seen sequence number. A correct single-path TSN dataplane never
	// reorders.
	SeqGaps   uint64
	Reordered uint64
	lastSeq   uint32
	seenSeq   bool
	// Duplicates and Rogue count frames the 802.1CB sequence-recovery
	// function eliminated before this collector: redundancy working as
	// intended (duplicates) or out-of-window arrivals (rogue). Neither
	// contributes to Received — an eliminated copy is not a delivery.
	Duplicates uint64
	Rogue      uint64
	// Sum and Worst decompose latency by component, from the deliveries
	// whose span was begun (every frame a NIC injects): Sum accumulates
	// them, and Worst is the decomposition of the delivery MaxLat
	// measured, with its sequence number and arrival instant.
	Sum      Components
	Worst    Components
	WorstSeq uint32
	WorstAt  sim.Time
}

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

// ComponentsOf returns the decomposition a frame's span booked.
func ComponentsOf(s *ethernet.Span) Components {
	return Components{Prop: s.Prop, Ser: s.Ser, Queue: s.Queue, Gate: s.Gate, Shape: s.Shape}
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

// MeanLatency returns the average latency.
func (f *FlowStats) MeanLatency() sim.Time {
	if f.Received == 0 {
		return 0
	}
	return sim.Time(f.sumLat / float64(f.Received))
}

// Jitter returns the standard deviation of latency.
func (f *FlowStats) Jitter() sim.Time {
	if f.Received < 2 {
		return 0
	}
	n := float64(f.Received)
	mean := f.sumLat / n
	variance := f.sumLatSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return sim.Time(math.Sqrt(variance))
}

// sampleCap bounds the per-class latency sample store used for
// percentiles. Beyond it, samples are decimated deterministically
// (every other retained sample is dropped and the stride doubles),
// which keeps quantile estimates stable for arbitrarily long runs.
const sampleCap = 1 << 16

// A class's samples live in chunks that are allocated once and never
// copied: the first holds firstChunk samples, each next one twice as
// many up to lastChunk, and the rest lastChunk each. A class that
// delivers a few frames holds 2 KB; one at sampleCap holds maxChunks
// chunks, ≈ 555 KB.
const (
	firstChunk = 256
	growing    = 4 // chunks below lastChunk
	lastChunk  = firstChunk << growing
	grownAt    = firstChunk * (1<<growing - 1) // samples the growing chunks hold
	maxChunks  = growing + (sampleCap-grownAt+lastChunk-1)/lastChunk
)

// chunkAt returns the chunk holding sample i and i's offset in it.
func chunkAt(i int) (k, off int) {
	if i < grownAt {
		k = bits.Len(uint(i/firstChunk+1)) - 1
		return k, i - firstChunk*(1<<k-1)
	}
	i -= grownAt
	return growing + i/lastChunk, i % lastChunk
}

// classSamples keeps a strided latency sample set for one class: the n
// retained samples in order, sample i at chunkAt(i).
type classSamples struct {
	chunks [maxChunks][]sim.Time
	opened int        // chunks allocated, filled in order
	tail   []sim.Time // sample n's slot to its chunk's end; empty when push must find it
	n      int
	stride uint64 // keep one sample in 2^stride
	count  uint64
}

func (c *classSamples) add(lat sim.Time) {
	c.count++
	if c.count&((1<<c.stride)-1) != 0 {
		return
	}
	if c.n >= sampleCap {
		c.decimate()
		if c.count&((1<<c.stride)-1) != 0 {
			return
		}
	}
	c.push(lat)
}

// push appends one retained sample. When the chunk in use is full, or
// decimation moved the end, it finds sample n's slot again, opening its
// chunk if the store never reached it.
func (c *classSamples) push(lat sim.Time) {
	if len(c.tail) == 0 {
		k, off := chunkAt(c.n)
		if k == c.opened {
			c.chunks[k] = make([]sim.Time, firstChunk<<min(k, growing))
			c.opened++
		}
		c.tail = c.chunks[k][off:]
	}
	c.tail[0] = lat
	c.tail = c.tail[1:]
	c.n++
}

// at returns the slot of retained sample i.
func (c *classSamples) at(i int) *sim.Time {
	k, off := chunkAt(i)
	return &c.chunks[k][off]
}

// decimate halves the retained set in place (keep every other sample)
// and doubles the sampling stride.
func (c *classSamples) decimate() {
	kept := 0
	for i := 0; i < c.n; i += 2 {
		*c.at(kept) = *c.at(i)
		kept++
	}
	c.n, c.tail = kept, nil
	c.stride++
}

// flat returns a copy of the retained samples in order.
func (c *classSamples) flat() []sim.Time {
	out := make([]sim.Time, 0, c.n)
	for k := 0; k < c.opened && len(out) < c.n; k++ {
		out = append(out, c.chunks[k][:min(len(c.chunks[k]), c.n-len(out))]...)
	}
	return out
}

// everyOther keeps samples 0, 2, 4, … of s in place: one decimation.
func everyOther(s []sim.Time) []sim.Time {
	kept := s[:0]
	for i := 0; i < len(s); i += 2 {
		kept = append(kept, s[i])
	}
	return kept
}

// merge folds src's retained samples into c. The coarser stride wins:
// the finer side is decimated until the strides match, then the sets
// concatenate (quantile sorts, so order is immaterial). While both
// sides are below the decimation threshold the merged set is the exact
// union — a partitioned run's percentiles equal the serial run's.
func (c *classSamples) merge(src *classSamples) {
	ss, st := src.flat(), src.stride
	for c.stride < st {
		c.decimate()
	}
	for ; st < c.stride; st++ {
		ss = everyOther(ss)
	}
	all := append(c.flat(), ss...)
	for len(all) > sampleCap {
		all = everyOther(all)
		c.stride++
	}
	c.n, c.tail = 0, nil
	for _, lat := range all {
		c.push(lat)
	}
	c.count += src.count
}

// quantile returns the q-quantile (0..1) of the retained samples.
func (c *classSamples) quantile(q float64) sim.Time {
	if c.n == 0 {
		return 0
	}
	sorted := c.flat()
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// LatencySink receives every delivery the collector records, with the
// computed latency and deadline verdict — the hook the observability
// layer uses for its component histograms and miss dumps without the
// analyzer importing it. The per-flow state is the collector's row.
type LatencySink interface {
	ObserveLatency(f *ethernet.Frame, arrival, lat sim.Time, missed bool)
}

// Collector receives frames and maintains statistics. It implements
// the receive half of a TSNNic endpoint.
type Collector struct {
	// rows holds every flow's statistics; a frame's Row, minus one,
	// indexes it. Each admitted batch is backed by one block, so a
	// *FlowStats stays valid however many rows follow. byID finds a row
	// on the cold paths: admission, Flow, Merge and a frame that carries
	// no row of this collector.
	rows     []*FlowStats
	byID     map[uint32]int
	perClass map[ethernet.Class]*classSamples

	// sink, when set, observes every recorded delivery.
	sink LatencySink

	// Telemetry handles, indexed by traffic class (BE/RC/TS); zero
	// values are no-ops.
	metDelivered [3]metrics.Counter
	metLatency   [3]metrics.Histogram
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		byID:     make(map[uint32]int),
		perClass: make(map[ethernet.Class]*classSamples),
	}
}

// LatencyBounds is the end-to-end latency bucket layout: 1 µs to
// ~8 ms in quarter-decade-ish steps, in nanoseconds.
var LatencyBounds = metrics.ExponentialBounds(1000, 2, 14)

// Instrument resolves the collector's per-class telemetry from reg: a
// delivered-frames counter and an end-to-end latency histogram for
// each traffic class. A nil registry is a no-op.
func (c *Collector) Instrument(reg *metrics.Registry) {
	delivered := reg.Counters("tsn_flows_delivered_total", "frames delivered to end stations", "class")
	latency := reg.Histograms("tsn_e2e_latency_ns", "end-to-end frame latency, nanoseconds", LatencyBounds, "class")
	for _, cls := range []ethernet.Class{ethernet.ClassBE, ethernet.ClassRC, ethernet.ClassTS} {
		class := metrics.Name(cls.String())
		c.metDelivered[cls] = delivered.With(class)
		c.metLatency[cls] = latency.With(class)
	}
}

// SetLatencySink installs the per-delivery observation hook.
func (c *Collector) SetLatencySink(s LatencySink) { c.sink = s }

// Admit gives every flow of a batch its row, all in one new block, and
// returns the first: specs[i] gets row first+i, which its talker stamps
// into each frame as Row first+i+1. A TS flow's deadline counts misses;
// an admitted flow counts toward its class's Sent/Lost totals even if
// nothing arrives. An ID is admitted once.
func (c *Collector) Admit(specs []*flows.Spec) int {
	first := len(c.rows)
	if len(c.byID) == 0 {
		c.byID = make(map[uint32]int, len(specs))
	}
	c.rows = slices.Grow(c.rows, len(specs))
	block := make([]FlowStats, len(specs))
	for i, spec := range specs {
		st := &block[i]
		st.FlowID, st.Class = spec.ID, spec.Class
		if spec.Class == ethernet.ClassTS && spec.Deadline > 0 {
			st.deadline = spec.Deadline
		}
		c.add(st)
	}
	if len(c.byID) != len(c.rows) {
		panic("analyzer: a flow ID admitted twice")
	}
	return first
}

// lookup returns flowID's row number, adding the row on first use.
func (c *Collector) lookup(flowID uint32) int {
	if r, ok := c.byID[flowID]; ok {
		return r
	}
	return c.add(&FlowStats{FlowID: flowID})
}

// add files st, new, as the row of its flow and returns the row number.
func (c *Collector) add(st *FlowStats) int {
	st.MinLat = math.MaxInt64
	c.byID[st.FlowID] = len(c.rows)
	c.rows = append(c.rows, st)
	return len(c.rows) - 1
}

// row returns the statistics of f's flow: the row f carries, or the
// flow's row by ID, which it stamps into f so the sink reads the same.
func (c *Collector) row(f *ethernet.Frame) *FlowStats {
	if r := int(f.Row) - 1; uint(r) < uint(len(c.rows)) && c.rows[r].FlowID == f.FlowID {
		return c.rows[r]
	}
	r := c.lookup(f.FlowID)
	f.Row = uint32(r + 1)
	return c.rows[r]
}

// Record ingests one frame arriving at the given instant. Latency is
// measured from the tester timestamp the generator stamped at
// injection.
func (c *Collector) Record(f *ethernet.Frame, arrival sim.Time) {
	st := c.row(f)
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
	if f.Span.Active() {
		d := ComponentsOf(&f.Span)
		st.Sum.add(d)
		if lat > st.MaxLat || st.Received == 1 {
			st.Worst, st.WorstSeq, st.WorstAt = d, f.Seq, arrival
		}
	}
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

// NoteDuplicate records f as a FRER-eliminated duplicate. The frame is
// accounted as redundancy overhead, not as a delivery, so loss/latency
// statistics never double-count member streams.
func (c *Collector) NoteDuplicate(f *ethernet.Frame) {
	c.row(f).Duplicates++
}

// NoteRogue records f as a FRER rogue discard (arrival outside the
// recovery window).
func (c *Collector) NoteRogue(f *ethernet.Frame) {
	c.row(f).Rogue++
}

// Merge folds src's statistics into c — how the partitioned testbed
// reassembles one collector view from the per-partition collectors its
// NICs recorded into. Per-flow accumulators add (counts, latency and
// component sums, misses, FRER eliminations), extrema and the worst
// delivery's decomposition fold, and per-class percentile
// sample sets concatenate (exact while below the decimation
// threshold). Sequence-tracking state (lastSeq/seenSeq) carries over
// only when c has not itself received the flow: every flow is
// delivered at exactly one NIC, so in partition merges at most one
// side has receive-state for any flow and the fold is exact. The flows
// new to c get their rows in one block. Telemetry handles are
// registry-side and merge with metrics.Registry.Merge.
func (c *Collector) Merge(src *Collector) {
	if src == nil || src == c {
		return
	}
	added := 0
	for _, st := range src.rows {
		if _, ok := c.byID[st.FlowID]; !ok {
			added++
		}
	}
	c.rows = slices.Grow(c.rows, added)
	block := make([]FlowStats, added)
	for _, st := range src.rows {
		r, ok := c.byID[st.FlowID]
		if !ok {
			block[0].FlowID = st.FlowID
			r, block = c.add(&block[0]), block[1:]
		}
		dst := c.rows[r]
		dst.Class = st.Class
		if st.MaxLat > dst.MaxLat || dst.Received == 0 {
			dst.Worst, dst.WorstSeq, dst.WorstAt = st.Worst, st.WorstSeq, st.WorstAt
		}
		dst.Sum.add(st.Sum)
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

// Flow returns flowID's statistics, or nil if the flow has no row.
func (c *Collector) Flow(flowID uint32) *FlowStats {
	r, ok := c.byID[flowID]
	if !ok {
		return nil
	}
	return c.rows[r]
}

// Flows returns all flow statistics sorted by flow ID.
func (c *Collector) Flows() []*FlowStats {
	out := append([]*FlowStats(nil), c.rows...)
	sort.Slice(out, func(i, j int) bool { return out[i].FlowID < out[j].FlowID })
	return out
}

// Delivered returns the statistics of every flow that received a frame,
// sorted by flow ID.
func (c *Collector) Delivered() []*FlowStats {
	return slices.DeleteFunc(c.Flows(), func(st *FlowStats) bool { return st.Received == 0 })
}

// TopByWorst returns the n delivered flows with the highest worst-case
// latency, worst first (ties by flow ID) — the exit summary's shortlist.
func (c *Collector) TopByWorst(n int) []*FlowStats {
	top := c.Delivered()
	sort.SliceStable(top, func(i, j int) bool { return top[i].MaxLat > top[j].MaxLat })
	return top[:min(n, len(top))]
}

// Summary aggregates statistics across flows of one class.
type Summary struct {
	Class    ethernet.Class
	Flows    int
	Received uint64
	Sent     uint64
	Lost     uint64
	LossRate float64
	// MeanLatency / Jitter pool every frame of the class.
	MeanLatency    sim.Time
	Jitter         sim.Time
	MinLat, MaxLat sim.Time
	// P50/P99 are latency quantiles over (possibly decimated) class
	// samples.
	P50, P99       sim.Time
	DeadlineMisses uint64
	// Duplicates/Rogue pool the FRER elimination counts of the class's
	// flows (see FlowStats).
	Duplicates uint64
	Rogue      uint64
}

// Summarize pools all flows of class cls. sent maps flowID to the
// generator's transmit count (for loss accounting); unknown flows count
// zero sent.
func (c *Collector) Summarize(cls ethernet.Class, sent map[uint32]uint64) Summary {
	s := Summary{Class: cls, MinLat: math.MaxInt64}
	var sumLat, sumSq float64
	for _, st := range c.rows {
		if st.Class != cls {
			continue
		}
		s.Flows++
		s.Sent += sent[st.FlowID]
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
