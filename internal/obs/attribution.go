// Package obs is the observability layer over the simulation: it books
// the per-frame latency spans the dataplane records into component
// histograms, retains flight-recorder dumps for the worst deadline
// misses, and serves the whole picture over HTTP (server.go) — the
// first concrete slice of the TSN-as-a-Service control plane the
// roadmap points at.
//
// The server's goroutines read only what is safe to share: the dumps,
// under their mutex, and the registry snapshot and per-flow rows the
// simulation thread publishes.
package obs

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"github.com/tsnbuilder/tsnbuilder/internal/analyzer"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/trace"
)

// MissDump is a flight-recorder capture taken when a flow set a new
// worst deadline miss: the offending frame plus the recent dataplane
// events of its flow — the span chain that made it late.
type MissDump struct {
	FlowID uint32              `json:"flow"`
	Seq    uint32              `json:"seq"`
	Lat    sim.Time            `json:"latency_ns"`
	At     sim.Time            `json:"at_ns"`
	Comp   analyzer.Components `json:"components"`
	Events []trace.Event       `json:"events"`
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

// Attribution books every delivery's span into the registry's component
// histograms and keeps flight-recorder dumps of the worst deadline
// misses and of reason-tagged triggers. It implements
// analyzer.LatencySink; the per-flow decomposition is the collector's
// row (analyzer.FlowStats). Only the dumps are read from other
// goroutines, so only they take the mutex.
type Attribution struct {
	// comp[class][component] and miss[class] are resolved once; zero
	// handles (nil registry) no-op.
	comp [3][5]metrics.Histogram
	miss [3]metrics.Histogram

	flight *trace.Flight
	// worstMiss is the worst deadline-missing latency seen, the
	// simulation thread's alone.
	worstMiss sim.Time

	mu         sync.Mutex
	dumps      []MissDump
	eventDumps []EventDump
}

// NewAttribution builds the aggregation layer. reg may be nil (no
// histograms); flight may be nil (no miss dumps).
func NewAttribution(reg *metrics.Registry, flight *trace.Flight) *Attribution {
	a := &Attribution{flight: flight}
	comp := reg.Histograms(MetricComponent, "per-delivery latency attribution by component, nanoseconds",
		ComponentBounds, "class", "component")
	miss := reg.Histograms(MetricMiss, "end-to-end latency of deadline-missing deliveries, nanoseconds",
		analyzer.LatencyBounds, "class")
	for _, cls := range []ethernet.Class{ethernet.ClassBE, ethernet.ClassRC, ethernet.ClassTS} {
		class := metrics.Name(cls.String())
		for ci, name := range componentNames {
			a.comp[cls][ci] = comp.With(class, metrics.Name(name))
		}
		a.miss[cls] = miss.With(class)
	}
	return a
}

// ObserveLatency ingests one delivery: the frame's span decomposition,
// its measured end-to-end latency and whether it missed its deadline.
// Implements analyzer.LatencySink. Steady-state cost is five histogram
// writes, a sixth on a miss — no lock and no allocation; a new global
// worst deadline miss additionally captures a flight-recorder dump.
func (a *Attribution) ObserveLatency(f *ethernet.Frame, arrival, lat sim.Time, missed bool) {
	if !f.Span.Active() {
		return
	}
	cls := f.Class
	if cls > ethernet.ClassTS {
		cls = ethernet.ClassBE
	}
	s := &f.Span
	a.comp[cls][0].Observe(int64(s.Prop))
	a.comp[cls][1].Observe(int64(s.Ser))
	a.comp[cls][2].Observe(int64(s.Queue))
	a.comp[cls][3].Observe(int64(s.Gate))
	a.comp[cls][4].Observe(int64(s.Shape))
	if missed {
		a.observeMiss(cls, f, arrival, lat)
	}
}

// observeMiss books a deadline miss. The exemplar (and its string
// build) only happens when the miss beats the class sample's current
// exemplar, and the flight-recorder dump only on a new global worst —
// both stay off the steady-state path.
func (a *Attribution) observeMiss(cls ethernet.Class, f *ethernet.Frame, arrival, lat sim.Time) {
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
	d := MissDump{FlowID: f.FlowID, Seq: f.Seq, Lat: lat, At: arrival, Comp: analyzer.ComponentsOf(&f.Span),
		Events: a.flight.SnapshotFlow(f.FlowID, DumpWindow)}
	a.mu.Lock()
	a.dumps = pushRing(a.dumps, d, maxMissDumps)
	a.mu.Unlock()
}

// Merge folds src's dumps into a — how the partitioned testbed
// reassembles one attribution view from the per-partition layers its
// collectors fed, after every part has stopped. Retained dumps combine
// ordered by severity (misses) or capture time (event dumps), keeping
// the worst/newest within the usual caps. The metric histograms are
// registry-side and merge with metrics.Registry.Merge.
func (a *Attribution) Merge(src *Attribution) {
	if src == nil || src == a {
		return
	}
	dumps, eventDumps := src.Dumps(), src.EventDumps()
	a.worstMiss = max(a.worstMiss, src.worstMiss)

	a.mu.Lock()
	defer a.mu.Unlock()
	// Serial retention appends each new global worst, so the ring is
	// sorted by latency; keep that invariant (consumers read the last
	// element as the global worst).
	a.dumps = mergeRing(a.dumps, dumps, maxMissDumps, func(d MissDump) sim.Time { return d.Lat })
	a.eventDumps = mergeRing(a.eventDumps, eventDumps, maxEventDumps, func(d EventDump) sim.Time { return d.At })
}

// pushRing appends v to ring, dropping the oldest entry once it holds n.
func pushRing[T any](ring []T, v T, n int) []T {
	if len(ring) >= n {
		ring = append(ring[:0], ring[1:]...)
	}
	return append(ring, v)
}

// mergeRing appends more to ring, orders the whole by key (stably) and
// keeps the last n.
func mergeRing[T any](ring, more []T, n int, key func(T) sim.Time) []T {
	ring = append(ring, more...)
	slices.SortStableFunc(ring, func(x, y T) int { return cmp.Compare(key(x), key(y)) })
	return append(ring[:0], ring[max(0, len(ring)-n):]...)
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
	a.eventDumps = pushRing(a.eventDumps, EventDump{Reason: reason, At: at, Events: events}, maxEventDumps)
	a.mu.Unlock()
}

// EventDumps returns the retained reason-tagged captures, oldest first.
func (a *Attribution) EventDumps() []EventDump {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]EventDump(nil), a.eventDumps...)
}
