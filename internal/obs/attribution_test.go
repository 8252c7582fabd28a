package obs

import (
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/analyzer"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/trace"
)

// spanFrame builds a frame whose span decomposes lat into fixed shares:
// 20% prop, 10% ser, 40% queue, 20% gate, 10% shape (lat must divide
// by 10 for the books to balance exactly).
func spanFrame(flow, seq uint32, cls ethernet.Class, lat sim.Time) *ethernet.Frame {
	f := &ethernet.Frame{FlowID: flow, Seq: seq, Class: cls, SentAt: 1000}
	f.Span.Begin(f.SentAt)
	gate, shape := lat/5, lat/10
	prop, ser := lat/5, lat/10
	f.Span.Claim(gate, shape)
	f.Span.OnDeliver(f.SentAt+lat, prop, ser)
	return f
}

func TestSpanFrameBalances(t *testing.T) {
	f := spanFrame(1, 0, ethernet.ClassTS, 1000)
	if got := f.Span.Total(); got != 1000 {
		t.Fatalf("test fixture out of balance: span total %v, want 1000", got)
	}
}

// fedCollector returns a collector whose latency sink is a, and a
// record function that delivers a spanFrame of lat into it.
func fedCollector(a *Attribution) (*analyzer.Collector, func(flow, seq uint32, cls ethernet.Class, lat sim.Time)) {
	c := analyzer.NewCollector()
	c.SetLatencySink(a)
	return c, func(flow, seq uint32, cls ethernet.Class, lat sim.Time) {
		f := spanFrame(flow, seq, cls, lat)
		c.Record(f, f.SentAt+lat)
	}
}

func TestAttributionAggregates(t *testing.T) {
	reg := metrics.New()
	c, record := fedCollector(NewAttribution(reg, nil))

	record(7, 0, ethernet.ClassTS, 1000)
	record(7, 1, ethernet.ClassTS, 3000)
	record(7, 2, ethernet.ClassTS, 2000)
	record(9, 0, ethernet.ClassRC, 5000)

	st := c.Flow(7)
	if st.Received != 3 || st.MaxLat != 3000 || st.WorstSeq != 1 || st.WorstAt != 4000 {
		t.Fatalf("flow 7 row wrong: %+v", *st)
	}
	if got := st.Worst.Total(); got != st.MaxLat {
		t.Fatalf("worst components sum to %v, want exactly %v", got, st.MaxLat)
	}
	if got := st.Sum.Total(); got != 6000 {
		t.Fatalf("sum of components = %v, want 6000", got)
	}
	top := c.TopByWorst(1)
	if len(top) != 1 || top[0].FlowID != 9 {
		t.Fatalf("TopByWorst wrong: %+v", top)
	}

	var b strings.Builder
	if err := reg.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), MetricComponent) {
		t.Fatal("component histogram family missing from export")
	}
}

// TestAttributionSkipsInactiveSpans: a delivery whose span was never
// begun books no component, in the histograms or in the row.
func TestAttributionSkipsInactiveSpans(t *testing.T) {
	reg := metrics.New()
	c := analyzer.NewCollector()
	c.SetLatencySink(NewAttribution(reg, nil))
	c.Record(&ethernet.Frame{FlowID: 3, Class: ethernet.ClassBE, Seq: 4}, 100)
	if st := c.Flow(3); st.Received != 1 || st.Worst != (analyzer.Components{}) || st.WorstSeq != 0 {
		t.Fatalf("inactive span was decomposed: %+v", *st)
	}
	for _, fam := range reg.Snapshot().Families {
		if fam.Name != MetricComponent {
			continue
		}
		for _, s := range fam.Samples {
			if s.Count != 0 {
				t.Fatalf("inactive span observed into %s %v", fam.Name, s.Labels)
			}
		}
	}
}

func TestAttributionMissDumpsWorstChain(t *testing.T) {
	fl := trace.NewFlight(64)
	for i := 0; i < 6; i++ {
		fl.Record(trace.Event{At: sim.Time(i), Kind: trace.KindEnqueue, FlowID: uint32(1 + i%2)})
	}
	reg := metrics.New()
	a := NewAttribution(reg, fl)

	a.ObserveLatency(spanFrame(1, 5, ethernet.ClassTS, 4000), 5000, 4000, true)
	dumps := a.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("dumps = %d, want 1", len(dumps))
	}
	d := dumps[0]
	if d.FlowID != 1 || d.Seq != 5 || d.Lat != 4000 {
		t.Fatalf("dump header wrong: %+v", d)
	}
	if len(d.Events) != 3 {
		t.Fatalf("dump holds %d events, want flow 1's 3", len(d.Events))
	}
	if got := d.Comp.Total(); got != d.Lat {
		t.Fatalf("dump components sum to %v, want %v", got, d.Lat)
	}

	// A milder miss does not replace the retained worst.
	a.ObserveLatency(spanFrame(2, 0, ethernet.ClassTS, 2000), 3000, 2000, true)
	if len(a.Dumps()) != 1 {
		t.Fatal("milder miss captured a dump")
	}
	// A new global worst adds one.
	a.ObserveLatency(spanFrame(2, 1, ethernet.ClassTS, 9000), 10000, 9000, true)
	if got := a.Dumps(); len(got) != 2 || got[1].FlowID != 2 {
		t.Fatalf("worse miss not captured: %+v", got)
	}

	// The per-class miss exemplar tracks the class's own worst, with
	// the offending frame's identity in the label.
	if ex, ok := histExemplar(reg, t); !ok {
		t.Fatal("miss exemplar missing")
	} else if ex.Value != 9000 || !strings.Contains(ex.Label, "flow=2") {
		t.Fatalf("exemplar = %+v, want value 9000 labelled flow=2", ex)
	}
}

// histExemplar digs the TS-class miss histogram's exemplar out of the
// registry export.
func histExemplar(reg *metrics.Registry, t *testing.T) (metrics.Exemplar, bool) {
	t.Helper()
	for _, fam := range reg.Snapshot().Families {
		if fam.Name != MetricMiss {
			continue
		}
		for _, s := range fam.Samples {
			for _, l := range s.Labels {
				if l.Value == "TS" && s.Exemplar != nil {
					return *s.Exemplar, true
				}
			}
		}
	}
	return metrics.Exemplar{}, false
}

func TestEventDumpRing(t *testing.T) {
	fl := trace.NewFlight(8)
	fl.Record(trace.Event{At: 1, Kind: trace.KindEnqueue, FlowID: 1})
	a := NewAttribution(nil, fl)
	for i := 0; i < maxEventDumps+2; i++ {
		a.DumpNow("fault:link-down", sim.Time(i))
	}
	dumps := a.EventDumps()
	if len(dumps) != maxEventDumps {
		t.Fatalf("event dumps = %d, want %d", len(dumps), maxEventDumps)
	}
	if dumps[0].At != 2 || dumps[len(dumps)-1].At != sim.Time(maxEventDumps+1) {
		t.Fatalf("ring evicted wrong end: %+v", dumps)
	}
	if dumps[0].Reason != "fault:link-down" || len(dumps[0].Events) != 1 {
		t.Fatalf("dump content wrong: %+v", dumps[0])
	}
}

// TestObserveLatencySteadyStateAllocs pins the per-delivery observation
// at zero allocations.
func TestObserveLatencySteadyStateAllocs(t *testing.T) {
	reg := metrics.New()
	a := NewAttribution(reg, trace.NewFlight(64))
	f := spanFrame(4, 0, ethernet.ClassTS, 1000)
	if allocs := testing.AllocsPerRun(1000, func() {
		a.ObserveLatency(f, 2000, 1000, false)
	}); allocs != 0 {
		t.Fatalf("steady-state ObserveLatency allocates %.1f/op, want 0", allocs)
	}
}

// TestAttributionMergeFoldsFlowsAndDumps merges two partition-style
// collectors and their attributions into empty targets and checks
// per-flow folding, the global-worst invariant of the dump ring, and
// idempotence guards.
func TestAttributionMergeFoldsFlowsAndDumps(t *testing.T) {
	target := NewAttribution(nil, nil)
	pa, pb := NewAttribution(nil, nil), NewAttribution(nil, nil)
	ca, recordA := fedCollector(pa)
	cb, recordB := fedCollector(pb)
	ca.Admit([]*flows.Spec{{ID: 1, Class: ethernet.ClassTS, Deadline: 400}})
	cb.Admit([]*flows.Spec{{ID: 2, Class: ethernet.ClassTS, Deadline: 400}})
	recordA(1, 0, ethernet.ClassTS, 100)
	recordA(1, 1, ethernet.ClassTS, 900)
	recordB(2, 0, ethernet.ClassTS, 500)
	recordB(2, 1, ethernet.ClassTS, 200)

	merged := analyzer.NewCollector()
	for _, p := range []struct {
		c *analyzer.Collector
		a *Attribution
	}{{ca, pa}, {cb, pb}} {
		merged.Merge(p.c)
		target.Merge(p.a)
	}
	target.Merge(nil)    // no-op
	target.Merge(target) // no-op

	if rows := merged.Delivered(); len(rows) != 2 {
		t.Fatalf("merged %d flows, want 2", len(rows))
	}
	if f1 := merged.Flow(1); f1.Received != 2 || f1.DeadlineMisses != 1 || f1.MaxLat != 900 || f1.WorstSeq != 1 {
		t.Fatalf("flow 1 fold wrong: %+v", *f1)
	}
	if f2 := merged.Flow(2); f2.Received != 2 || f2.MaxLat != 500 || f2.Sum.Total() != 700 {
		t.Fatalf("flow 2 fold wrong: %+v", *f2)
	}
	if top := merged.TopByWorst(1); len(top) != 1 || top[0].FlowID != 1 {
		t.Fatalf("TopByWorst = %+v, want flow 1", top)
	}
	dumps := target.Dumps()
	if len(dumps) != 2 || dumps[0].FlowID != 2 || dumps[1].FlowID != 1 || dumps[1].Lat != 900 {
		t.Fatalf("merged dumps %+v, want flow 2's miss then flow 1's worst", dumps)
	}
}
