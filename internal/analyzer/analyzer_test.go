package analyzer

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

func frame(flow uint32, cls ethernet.Class, sent sim.Time) *ethernet.Frame {
	return &ethernet.Frame{FlowID: flow, Class: cls, SentAt: sent}
}

func TestRecordBasics(t *testing.T) {
	c := NewCollector()
	c.Record(frame(1, ethernet.ClassTS, 0), 100)
	c.Record(frame(1, ethernet.ClassTS, 50), 250)
	st := c.Flow(1)
	if st == nil {
		t.Fatal("no stats")
	}
	if st.Received != 2 {
		t.Fatalf("Received = %d", st.Received)
	}
	if st.MeanLatency() != 150 {
		t.Fatalf("MeanLatency = %v, want 150", st.MeanLatency())
	}
	if st.MinLat != 100 || st.MaxLat != 200 {
		t.Fatalf("min/max = %v/%v", st.MinLat, st.MaxLat)
	}
	// Jitter = stddev of {100,200} = 50.
	if st.Jitter() != 50 {
		t.Fatalf("Jitter = %v, want 50", st.Jitter())
	}
}

func TestJitterZeroForConstantLatency(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 10; i++ {
		c.Record(frame(1, ethernet.ClassTS, sim.Time(i*1000)), sim.Time(i*1000+130))
	}
	if got := c.Flow(1).Jitter(); got != 0 {
		t.Fatalf("Jitter = %v, want 0", got)
	}
	if c.Flow(1).MeanLatency() != 130 {
		t.Fatal("mean wrong")
	}
}

func TestJitterSingleSample(t *testing.T) {
	c := NewCollector()
	c.Record(frame(1, ethernet.ClassTS, 0), 99)
	if c.Flow(1).Jitter() != 0 {
		t.Fatal("single-sample jitter must be 0")
	}
}

func TestDeadlineMisses(t *testing.T) {
	c := NewCollector()
	c.Admit([]*flows.Spec{{ID: 1, Class: ethernet.ClassTS, Deadline: 100}})
	c.Record(frame(1, ethernet.ClassTS, 0), 99)  // hit
	c.Record(frame(1, ethernet.ClassTS, 0), 150) // miss
	if got := c.Flow(1).DeadlineMisses; got != 1 {
		t.Fatalf("DeadlineMisses = %d", got)
	}
}

func TestNegativeLatencyClamped(t *testing.T) {
	c := NewCollector()
	c.Record(frame(1, ethernet.ClassTS, 100), 50)
	if c.Flow(1).MinLat != 0 {
		t.Fatal("negative latency not clamped")
	}
}

func TestFlowsSorted(t *testing.T) {
	c := NewCollector()
	for _, id := range []uint32{5, 1, 3} {
		c.Record(frame(id, ethernet.ClassTS, 0), 10)
	}
	got := c.Flows()
	if len(got) != 3 || got[0].FlowID != 1 || got[1].FlowID != 3 || got[2].FlowID != 5 {
		t.Fatalf("Flows order wrong: %v", got)
	}
}

func TestFlowMissing(t *testing.T) {
	c := NewCollector()
	if c.Flow(9) != nil {
		t.Fatal("missing flow returned stats")
	}
}

func TestSummarize(t *testing.T) {
	c := NewCollector()
	// Two TS flows, one RC flow.
	c.Record(frame(1, ethernet.ClassTS, 0), 100)
	c.Record(frame(1, ethernet.ClassTS, 0), 100)
	c.Record(frame(2, ethernet.ClassTS, 0), 300)
	c.Record(frame(3, ethernet.ClassRC, 0), 1000)
	sent := map[uint32]uint64{1: 3, 2: 1, 3: 1}

	ts := c.Summarize(ethernet.ClassTS, sent)
	if ts.Flows != 2 || ts.Received != 3 || ts.Sent != 4 {
		t.Fatalf("TS summary = %+v", ts)
	}
	if ts.Lost != 1 || ts.LossRate != 0.25 {
		t.Fatalf("loss = %d rate %v", ts.Lost, ts.LossRate)
	}
	if ts.MeanLatency != sim.Time((100+100+300)/3) {
		t.Fatalf("mean = %v", ts.MeanLatency)
	}
	if ts.MinLat != 100 || ts.MaxLat != 300 {
		t.Fatalf("min/max = %v/%v", ts.MinLat, ts.MaxLat)
	}

	rc := c.Summarize(ethernet.ClassRC, sent)
	if rc.Flows != 1 || rc.Received != 1 || rc.Lost != 0 {
		t.Fatalf("RC summary = %+v", rc)
	}
}

func TestSummarizeEmptyClass(t *testing.T) {
	c := NewCollector()
	s := c.Summarize(ethernet.ClassBE, nil)
	if s.Flows != 0 || s.Received != 0 || s.MinLat != 0 || s.MeanLatency != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestPercentiles(t *testing.T) {
	c := NewCollector()
	// 100 samples with latencies 1..100 µs.
	for i := 1; i <= 100; i++ {
		c.Record(frame(1, ethernet.ClassTS, 0), sim.Time(i)*sim.Microsecond)
	}
	s := c.Summarize(ethernet.ClassTS, nil)
	if s.P50 < 49*sim.Microsecond || s.P50 > 52*sim.Microsecond {
		t.Fatalf("P50 = %v", s.P50)
	}
	if s.P99 < 98*sim.Microsecond || s.P99 > 100*sim.Microsecond {
		t.Fatalf("P99 = %v", s.P99)
	}
}

func TestPercentilesPerClass(t *testing.T) {
	c := NewCollector()
	c.Record(frame(1, ethernet.ClassTS, 0), 10)
	c.Record(frame(2, ethernet.ClassBE, 0), 1000)
	ts := c.Summarize(ethernet.ClassTS, nil)
	be := c.Summarize(ethernet.ClassBE, nil)
	if ts.P99 != 10 || be.P99 != 1000 {
		t.Fatalf("per-class quantiles mixed: %v / %v", ts.P99, be.P99)
	}
}

func TestPercentileDecimation(t *testing.T) {
	c := NewCollector()
	// Push well past the sample cap with a uniform 0..999 µs pattern;
	// the decimated quantiles must stay representative.
	n := sampleCap*2 + 1000
	for i := 0; i < n; i++ {
		lat := sim.Time(i%1000) * sim.Microsecond
		c.Record(frame(1, ethernet.ClassTS, 0), lat)
	}
	s := c.Summarize(ethernet.ClassTS, nil)
	if s.P50 < 400*sim.Microsecond || s.P50 > 600*sim.Microsecond {
		t.Fatalf("decimated P50 = %v, want ~500µs", s.P50)
	}
	cs := c.perClass[ethernet.ClassTS]
	if cs.n > sampleCap {
		t.Fatalf("sample store grew to %d", cs.n)
	}
	if cs.stride == 0 {
		t.Fatal("decimation never engaged")
	}
}

func seqFrame(flow uint32, seq uint32) *ethernet.Frame {
	return &ethernet.Frame{FlowID: flow, Class: ethernet.ClassTS, Seq: seq}
}

func TestSeqTrackingInOrder(t *testing.T) {
	c := NewCollector()
	for seq := uint32(0); seq < 10; seq++ {
		c.Record(seqFrame(1, seq), sim.Time(seq))
	}
	st := c.Flow(1)
	if st.SeqGaps != 0 || st.Reordered != 0 {
		t.Fatalf("clean stream: gaps=%d reordered=%d", st.SeqGaps, st.Reordered)
	}
}

func TestSeqTrackingGaps(t *testing.T) {
	c := NewCollector()
	for _, seq := range []uint32{0, 1, 4, 5, 9} {
		c.Record(seqFrame(1, seq), 0)
	}
	st := c.Flow(1)
	// Missing: 2,3 and 6,7,8 → 5 gaps.
	if st.SeqGaps != 5 {
		t.Fatalf("SeqGaps = %d, want 5", st.SeqGaps)
	}
	if st.Reordered != 0 {
		t.Fatalf("Reordered = %d", st.Reordered)
	}
}

func TestSeqTrackingFirstFrameLost(t *testing.T) {
	c := NewCollector()
	c.Record(seqFrame(1, 3), 0) // frames 0..2 never arrived
	if got := c.Flow(1).SeqGaps; got != 3 {
		t.Fatalf("SeqGaps = %d, want 3", got)
	}
}

func TestSeqTrackingReorder(t *testing.T) {
	c := NewCollector()
	for _, seq := range []uint32{0, 2, 1, 3} {
		c.Record(seqFrame(1, seq), 0)
	}
	st := c.Flow(1)
	if st.Reordered != 1 {
		t.Fatalf("Reordered = %d, want 1", st.Reordered)
	}
	// Gap at 1 (when 2 arrived) is later filled; the counter keeps the
	// pessimistic count — documented behaviour.
	if st.SeqGaps != 1 {
		t.Fatalf("SeqGaps = %d, want 1", st.SeqGaps)
	}
}

func TestSummarizeZeroLoss(t *testing.T) {
	c := NewCollector()
	c.Record(frame(1, ethernet.ClassTS, 0), 10)
	s := c.Summarize(ethernet.ClassTS, map[uint32]uint64{1: 1})
	if s.Lost != 0 || s.LossRate != 0 {
		t.Fatalf("loss = %+v", s)
	}
}

func TestRegisteredButLostFlowCountsAsLoss(t *testing.T) {
	// A flow whose every frame was dropped must still contribute its
	// sent count to the class summary (the fully-lost blind spot).
	c := NewCollector()
	c.Admit([]*flows.Spec{{ID: 1, Class: ethernet.ClassTS}})
	c.Record(frame(2, ethernet.ClassTS, 0), 100)
	s := c.Summarize(ethernet.ClassTS, map[uint32]uint64{1: 10, 2: 1})
	if s.Sent != 11 || s.Received != 1 || s.Lost != 10 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Flows != 2 {
		t.Fatalf("Flows = %d, want 2", s.Flows)
	}
	// The lost flow must not poison min/mean latency.
	if s.MinLat != 100 || s.MeanLatency != 100 {
		t.Fatalf("latency stats poisoned: %+v", s)
	}
}

// clsSeqFrame is frame with an explicit sequence number and class.
func clsSeqFrame(flow uint32, cls ethernet.Class, seq uint32, sent sim.Time) *ethernet.Frame {
	f := frame(flow, cls, sent)
	f.Seq = seq
	return f
}

// TestMergeDisjointFlowsMatchesSerial records the same deliveries into
// one collector and into two partition collectors (flows disjoint, as
// in a partitioned run), merges the partitions, and checks every
// exported statistic matches the serial collector exactly.
func TestMergeDisjointFlowsMatchesSerial(t *testing.T) {
	serial := NewCollector()
	pa, pb := NewCollector(), NewCollector()
	merged := NewCollector()

	for _, c := range []*Collector{serial, pa} {
		c.Admit([]*flows.Spec{{ID: 1, Class: ethernet.ClassTS, Deadline: 120}})
	}
	for _, c := range []*Collector{serial, pb} {
		c.Admit([]*flows.Spec{{ID: 2, Class: ethernet.ClassRC}, {ID: 3, Class: ethernet.ClassTS}}) // 3 is fully lost: zero receives
	}

	// Flow 1 (partition A): a hit, a miss, a sequence gap.
	for _, c := range []*Collector{serial, pa} {
		c.Record(clsSeqFrame(1, ethernet.ClassTS, 0, 0), 100)
		c.Record(clsSeqFrame(1, ethernet.ClassTS, 1, 50), 200)  // miss (150 > 120)
		c.Record(clsSeqFrame(1, ethernet.ClassTS, 3, 100), 180) // gap: seq 2 skipped
	}
	// Flow 2 (partition B).
	for _, c := range []*Collector{serial, pb} {
		c.Record(clsSeqFrame(2, ethernet.ClassRC, 0, 0), 900)
		c.Record(clsSeqFrame(2, ethernet.ClassRC, 1, 0), 1100)
		c.NoteDuplicate(frame(2, ethernet.ClassRC, 0))
		c.NoteRogue(frame(2, ethernet.ClassRC, 0))
	}

	merged.Merge(pa)
	merged.Merge(pb)

	sent := map[uint32]uint64{1: 4, 2: 2, 3: 5}
	for _, cls := range []ethernet.Class{ethernet.ClassTS, ethernet.ClassRC} {
		want := serial.Summarize(cls, sent)
		got := merged.Summarize(cls, sent)
		if got != want {
			t.Fatalf("%v summary mismatch:\n got %+v\nwant %+v", cls, got, want)
		}
	}
	for _, id := range []uint32{1, 2, 3} {
		ws, gs := serial.Flow(id), merged.Flow(id)
		if (ws == nil) != (gs == nil) {
			t.Fatalf("flow %d presence mismatch", id)
		}
		if ws == nil {
			continue
		}
		if *gs != *ws {
			t.Fatalf("flow %d mismatch:\n got %+v\nwant %+v", id, *gs, *ws)
		}
	}
}

// TestClassSamplesMergeDecimated checks the stride-aligned merge: a
// decimated side and a fresh side combine without losing either set's
// coverage, and the count reflects every observation.
func TestClassSamplesMergeDecimated(t *testing.T) {
	a, b := &classSamples{}, &classSamples{}
	for i := 0; i < sampleCap+10; i++ { // forces one decimation in a
		a.add(sim.Time(i))
	}
	for i := 0; i < 100; i++ {
		b.add(sim.Time(1000000 + i))
	}
	if a.stride == 0 {
		t.Fatal("a never decimated; test is vacuous")
	}
	wantCount := a.count + b.count
	a.merge(b)
	if a.count != wantCount {
		t.Fatalf("merged count = %d, want %d", a.count, wantCount)
	}
	if a.n > sampleCap {
		t.Fatalf("merged retained %d samples, over the %d cap", a.n, sampleCap)
	}
	// The merged set still spans both inputs.
	if q := a.quantile(0.999); q < 1000000 {
		t.Fatalf("p99.9 = %v; b's samples lost in merge", q)
	}
	if q := a.quantile(0.001); q > 100000 {
		t.Fatalf("p0.1 = %v; a's samples lost in merge", q)
	}
}
