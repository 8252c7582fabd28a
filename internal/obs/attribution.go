// Package obs is the observability layer over the simulation: it
// aggregates the per-frame latency spans the dataplane books into
// per-flow attributions, retains flight-recorder dumps for the worst
// deadline misses, and serves the whole picture over HTTP (server.go) —
// the first concrete slice of the TSN-as-a-Service control plane the
// roadmap points at.
//
// Unlike the dataplane, everything here is mutex-guarded: the
// simulation thread feeds observations while the telemetry server reads
// them from its own goroutines.
package obs

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/tsnbuilder/tsnbuilder/internal/analyzer"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/trace"
)

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

// fromSpan converts a frame's span into a Components value.
func fromSpan(s *ethernet.Span) Components {
	return Components{Prop: s.Prop, Ser: s.Ser, Queue: s.Queue, Gate: s.Gate, Shape: s.Shape}
}

// FlowLatency is one flow's attribution aggregate.
type FlowLatency struct {
	FlowID uint32         `json:"flow"`
	Class  ethernet.Class `json:"-"`
	Count  uint64         `json:"count"`
	Misses uint64         `json:"deadline_misses"`
	// Sum accumulates every delivery's decomposition; Sum.Total()/Count
	// is the mean end-to-end latency.
	Sum Components `json:"sum"`
	// Worst is the decomposition of the worst (highest-latency)
	// delivery, with its end-to-end latency, sequence number and
	// arrival instant.
	Worst    Components `json:"worst"`
	WorstLat sim.Time   `json:"worst_ns"`
	WorstSeq uint32     `json:"worst_seq"`
	WorstAt  sim.Time   `json:"worst_at_ns"`
}

// MissDump is a flight-recorder capture taken when a flow set a new
// worst deadline miss: the offending frame plus the recent dataplane
// events of its flow — the span chain that made it late.
type MissDump struct {
	FlowID uint32        `json:"flow"`
	Seq    uint32        `json:"seq"`
	Lat    sim.Time      `json:"latency_ns"`
	At     sim.Time      `json:"at_ns"`
	Comp   Components    `json:"components"`
	Events []trace.Event `json:"events"`
}

// EventDump is a flight-recorder capture of the newest DumpWindow
// events taken on a non-miss trigger: a watchdog degradation or an
// injected fault.
type EventDump struct {
	Reason string        `json:"reason"`
	At     sim.Time      `json:"at_ns"`
	Events []trace.Event `json:"events"`
}

// maxMissDumps bounds retained deadline-miss dumps: each new global
// worst replaces the mildest retained dump once the ring is full.
// maxEventDumps bounds the reason-tagged captures the same way.
const (
	maxMissDumps  = 8
	maxEventDumps = 4
)

// DumpWindow is how many of the newest flight-recorder events a dump
// reads, so a dump is the same whatever the ring's capacity.
const DumpWindow = 1 << 16

// Metric names and bucket layout of the attribution families.
const (
	MetricComponent = "tsn_latency_component_ns"
	MetricMiss      = "tsn_deadline_miss_ns"
)

// ComponentBounds buckets component latencies: 100 ns to ~3.3 ms.
var ComponentBounds = metrics.ExponentialBounds(100, 2, 16)

// componentNames orders the five components for metric labeling.
var componentNames = [5]string{"propagation", "store_and_forward", "queue", "gate", "shaping"}

// Attribution aggregates per-frame spans into per-flow latency
// decompositions and the registry's component histograms. It implements
// analyzer.LatencySink. Safe for concurrent reads while the simulation
// observes.
type Attribution struct {
	mu sync.Mutex
	// rows are the per-flow aggregates under the collector's row numbers
	// (a frame's Row minus one); byID holds every aggregate, for Flow,
	// Flows, Merge and a frame without a row. Admit only notes a batch
	// (unmade): the next delivery makes the aggregates of every noted
	// flow in one block, so building a network costs a flow ID each
	// here, and a network that never delivers holds no aggregates. The
	// exports skip aggregates with Count 0.
	rows   []*FlowLatency
	byID   map[uint32]*FlowLatency
	unmade []batch

	// comp[class][component] and miss[class] are resolved once; zero
	// handles (nil registry) no-op.
	comp [3][5]metrics.Histogram
	miss [3]metrics.Histogram

	flight     *trace.Flight
	dumps      []MissDump
	eventDumps []EventDump
	worstMiss  sim.Time
}

// NewAttribution builds the aggregation layer. reg may be nil (no
// histograms); flight may be nil (no miss dumps).
func NewAttribution(reg *metrics.Registry, flight *trace.Flight) *Attribution {
	a := &Attribution{byID: make(map[uint32]*FlowLatency), flight: flight}
	reg.Help(MetricComponent, "per-delivery latency attribution by component, nanoseconds")
	reg.Help(MetricMiss, "end-to-end latency of deadline-missing deliveries, nanoseconds")
	for _, cls := range []ethernet.Class{ethernet.ClassBE, ethernet.ClassRC, ethernet.ClassTS} {
		l := metrics.L("class", cls.String())
		for ci, name := range componentNames {
			a.comp[cls][ci] = reg.Histogram(MetricComponent, ComponentBounds, l, metrics.L("component", name))
		}
		a.miss[cls] = reg.Histogram(MetricMiss, analyzer.LatencyBounds, l)
	}
	return a
}

// batch is an admitted batch whose aggregates are not made yet: the
// flows of rows first, first+1, ….
type batch struct {
	first int
	ids   []uint32
}

// Admit notes a batch of flows under the collector's rows: specs[i] is
// row first+i. Implements analyzer.LatencySink.
func (a *Attribution) Admit(first int, specs []*flows.Spec) {
	ids := make([]uint32, len(specs))
	for i, spec := range specs {
		ids[i] = spec.ID
	}
	a.mu.Lock()
	a.unmade = append(a.unmade, batch{first, ids})
	a.mu.Unlock()
}

// makeAdmitted gives every noted flow that has no aggregate one, all in
// one block, and files each under its row.
func (a *Attribution) makeAdmitted() {
	n, end := 0, len(a.rows)
	for _, b := range a.unmade {
		n, end = n+len(b.ids), max(end, b.first+len(b.ids))
	}
	if len(a.byID) == 0 {
		a.byID = make(map[uint32]*FlowLatency, n)
	}
	a.rows = slices.Grow(a.rows, end-len(a.rows))
	block := make([]FlowLatency, n)
	for _, b := range a.unmade {
		for i, id := range b.ids {
			fl := a.byID[id]
			if fl == nil {
				fl, block = &block[0], block[1:]
				fl.FlowID = id
				a.byID[id] = fl
			}
			a.file(b.first+i, fl)
		}
	}
	a.unmade = nil
}

// file puts fl under row r.
func (a *Attribution) file(r int, fl *FlowLatency) {
	for len(a.rows) <= r {
		a.rows = append(a.rows, nil)
	}
	a.rows[r] = fl
}

// filed returns the aggregate under row r if it is flow id's, else nil.
func (a *Attribution) filed(r int, id uint32) *FlowLatency {
	if uint(r) < uint(len(a.rows)) {
		if fl := a.rows[r]; fl != nil && fl.FlowID == id {
			return fl
		}
	}
	return nil
}

// row returns the aggregate of f's flow: the row f carries (made first
// if its batch is still unmade), or the flow's aggregate by ID — created
// at its first delivery and filed under f's row, if any.
func (a *Attribution) row(f *ethernet.Frame) *FlowLatency {
	r := int(f.Row) - 1
	if fl := a.filed(r, f.FlowID); fl != nil {
		return fl
	}
	if len(a.unmade) > 0 {
		a.makeAdmitted()
		if fl := a.filed(r, f.FlowID); fl != nil {
			return fl
		}
	}
	fl := a.byID[f.FlowID]
	if fl == nil {
		fl = &FlowLatency{FlowID: f.FlowID}
		a.byID[f.FlowID] = fl
	}
	if r >= 0 {
		a.file(r, fl)
	}
	return fl
}

// ObserveLatency ingests one delivery: the frame's span decomposition,
// its measured end-to-end latency and whether it missed its deadline.
// Implements analyzer.LatencySink. Steady-state cost is a mutex pair,
// a row index and six histogram writes — no allocation; a new global
// worst deadline miss additionally captures a flight-recorder dump.
func (a *Attribution) ObserveLatency(f *ethernet.Frame, arrival, lat sim.Time, missed bool) {
	if !f.Span.Active() {
		return
	}
	c := fromSpan(&f.Span)
	a.mu.Lock()
	fl := a.row(f)
	fl.Class = f.Class
	fl.Count++
	fl.Sum.add(c)
	if lat > fl.WorstLat || fl.Count == 1 {
		fl.Worst, fl.WorstLat, fl.WorstSeq, fl.WorstAt = c, lat, f.Seq, arrival
	}
	cls := f.Class
	if cls > ethernet.ClassTS {
		cls = ethernet.ClassBE
	}
	a.comp[cls][0].Observe(int64(c.Prop))
	a.comp[cls][1].Observe(int64(c.Ser))
	a.comp[cls][2].Observe(int64(c.Queue))
	a.comp[cls][3].Observe(int64(c.Gate))
	a.comp[cls][4].Observe(int64(c.Shape))
	if missed {
		fl.Misses++
		a.observeMiss(cls, f, arrival, lat, c)
	}
	a.mu.Unlock()
}

// observeMiss books a deadline miss. The exemplar (and its string
// build) only happens when the miss beats the class sample's current
// exemplar, and the flight-recorder dump only on a new global worst —
// both stay off the steady-state path.
func (a *Attribution) observeMiss(cls ethernet.Class, f *ethernet.Frame, arrival, lat sim.Time, c Components) {
	h := a.miss[cls]
	if ex, ok := h.Exemplar(); !h.Active() || (ok && int64(lat) <= ex.Value) {
		h.Observe(int64(lat))
	} else {
		h.ObserveExemplar(int64(lat),
			fmt.Sprintf("flow=%d seq=%d", f.FlowID, f.Seq), int64(arrival))
	}
	if lat <= a.worstMiss {
		return
	}
	a.worstMiss = lat
	d := MissDump{FlowID: f.FlowID, Seq: f.Seq, Lat: lat, At: arrival, Comp: c,
		Events: a.flight.SnapshotFlow(f.FlowID, DumpWindow)}
	if len(a.dumps) >= maxMissDumps {
		copy(a.dumps, a.dumps[1:])
		a.dumps = a.dumps[:len(a.dumps)-1]
	}
	a.dumps = append(a.dumps, d)
}

// Merge folds src's aggregates into a — how the partitioned testbed
// reassembles one attribution view from the per-partition layers its
// collectors fed. Per-flow sums add and worst-delivery records fold
// (every flow is delivered at one NIC, so in partition merges at most
// one side has data for any flow and the fold is exact); retained
// dumps combine ordered by severity (misses) or capture time (event
// dumps), keeping the worst/newest within the usual caps. The metric
// histograms are registry-side and merge with metrics.Registry.Merge.
func (a *Attribution) Merge(src *Attribution) {
	if src == nil || src == a {
		return
	}
	delivered := src.Flows()
	src.mu.Lock()
	dumps := append([]MissDump(nil), src.dumps...)
	eventDumps := append([]EventDump(nil), src.eventDumps...)
	worst := src.worstMiss
	src.mu.Unlock()

	a.mu.Lock()
	defer a.mu.Unlock()
	block := make([]FlowLatency, len(delivered))
	for i, in := range delivered {
		fl := a.byID[in.FlowID]
		if fl == nil {
			fl = &block[i]
			fl.FlowID = in.FlowID
			a.byID[in.FlowID] = fl
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
	if worst > a.worstMiss {
		a.worstMiss = worst
	}
	// Serial retention appends each new global worst, so the ring is
	// sorted by latency; keep that invariant (consumers read the last
	// element as the global worst).
	a.dumps = append(a.dumps, dumps...)
	sort.SliceStable(a.dumps, func(i, j int) bool { return a.dumps[i].Lat < a.dumps[j].Lat })
	if len(a.dumps) > maxMissDumps {
		a.dumps = append(a.dumps[:0], a.dumps[len(a.dumps)-maxMissDumps:]...)
	}
	a.eventDumps = append(a.eventDumps, eventDumps...)
	sort.SliceStable(a.eventDumps, func(i, j int) bool { return a.eventDumps[i].At < a.eventDumps[j].At })
	if len(a.eventDumps) > maxEventDumps {
		a.eventDumps = append(a.eventDumps[:0], a.eventDumps[len(a.eventDumps)-maxEventDumps:]...)
	}
}

// Flow returns one flow's aggregate (copy) and whether it was delivered.
func (a *Attribution) Flow(id uint32) (FlowLatency, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	fl := a.byID[id]
	if fl == nil || fl.Count == 0 {
		return FlowLatency{}, false
	}
	return *fl, true
}

// Flows returns every delivered flow's aggregate sorted by flow ID.
func (a *Attribution) Flows() []FlowLatency {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]FlowLatency, 0, len(a.byID))
	for _, fl := range a.byID {
		if fl.Count > 0 {
			out = append(out, *fl)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FlowID < out[j].FlowID })
	return out
}

// TopByWorst returns the n flows with the highest worst-case latency,
// worst first — the exit summary's shortlist.
func (a *Attribution) TopByWorst(n int) []FlowLatency {
	all := a.Flows()
	sort.SliceStable(all, func(i, j int) bool { return all[i].WorstLat > all[j].WorstLat })
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// Dumps returns the retained deadline-miss dumps, oldest first.
func (a *Attribution) Dumps() []MissDump {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]MissDump(nil), a.dumps...)
}

// DumpNow captures the newest DumpWindow flight-recorder events under a
// reason tag — called from watchdog-degradation and fault-injection
// hooks.
func (a *Attribution) DumpNow(reason string, at sim.Time) {
	events := a.flight.Snapshot(DumpWindow)
	a.mu.Lock()
	if len(a.eventDumps) >= maxEventDumps {
		copy(a.eventDumps, a.eventDumps[1:])
		a.eventDumps = a.eventDumps[:len(a.eventDumps)-1]
	}
	a.eventDumps = append(a.eventDumps, EventDump{Reason: reason, At: at, Events: events})
	a.mu.Unlock()
}

// EventDumps returns the retained reason-tagged captures, oldest first.
func (a *Attribution) EventDumps() []EventDump {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]EventDump(nil), a.eventDumps...)
}
