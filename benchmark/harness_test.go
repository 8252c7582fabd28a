package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

func TestStripFamilyRemovesOnlyItsSamples(t *testing.T) {
	text := strings.Join([]string{
		"# HELP tsn_sim_events_total discrete events executed",
		"# TYPE tsn_sim_events_total counter",
		"tsn_sim_events_total 1106908",
		"# HELP tsn_sim_heap_depth_high_water worst-case scheduler heap depth",
		"# TYPE tsn_sim_heap_depth_high_water gauge",
		"tsn_sim_heap_depth_high_water 1060",
		`tsn_sim_heap_depth_high_water{part="1"} 530`,
		"tsn_sim_heap_depth_high_water_total 7",
		"tsn_flows_delivered_total{class=\"TS\"} 102400",
		"",
	}, "\n")
	got := string(stripFamily([]byte(text), heapDepthFamily))
	for _, gone := range []string{"tsn_sim_heap_depth_high_water 1060", `{part="1"} 530`} {
		if strings.Contains(got, gone) {
			t.Errorf("sample %q survived the strip", gone)
		}
	}
	for _, kept := range []string{
		"# HELP tsn_sim_heap_depth_high_water", "# TYPE tsn_sim_heap_depth_high_water",
		"tsn_sim_heap_depth_high_water_total 7", "tsn_sim_events_total 1106908", `class="TS"} 102400`,
	} {
		if !strings.Contains(got, kept) {
			t.Errorf("line %q was stripped", kept)
		}
	}
	// Two expositions that differ only in the gauge strip equal.
	other := strings.Replace(text, "1060", "2510", 1)
	if !bytes.Equal(stripFamily([]byte(other), heapDepthFamily), []byte(got)) {
		t.Error("strip did not cancel a heap-depth difference")
	}
}

func TestPromSum(t *testing.T) {
	text := []byte(`# HELP tsn_svc_queue_depth_high_water admission queue depth high water
tsn_svc_queue_depth_high_water{class="derive"} 3
tsn_svc_queue_depth_high_water{class="reconfig"} 1
tsn_svc_queue_depth 9
tsn_sim_events_total 1042
`)
	if got := promSum(text, "tsn_svc_queue_depth_high_water", `class="derive"`); got != 3 {
		t.Errorf("labelled sample = %v", got)
	}
	if got := promSum(text, "tsn_svc_queue_depth_high_water"); got != 4 {
		t.Errorf("family sum = %v", got)
	}
	if got := promSum(text, "tsn_svc_queue_depth"); got != 9 {
		t.Errorf("a longer family name leaked into the sum: %v", got)
	}
	if got := promSum(text, "tsn_absent"); got != 0 {
		t.Errorf("absent family = %v", got)
	}
}

// cacheSlots is svc.Options.CacheSize's default.
const cacheSlots = 512

func TestSeedDeterminesInputs(t *testing.T) {
	a, b, c := deriveSpecs(42, coldRequests), deriveSpecs(42, coldRequests), deriveSpecs(43, coldRequests)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different derive specs")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same derive specs")
	}
	if len(a) <= cacheSlots {
		t.Errorf("derive-cold posts %d specs, the cache holds %d: it would stop evicting", len(a), cacheSlots)
	}
	seen := make(map[string]bool)
	for i, sp := range a {
		if err := sp.Normalize(); err != nil {
			t.Fatalf("spec %d invalid: %v", i, err)
		}
		if seen[sp.Hash()] {
			t.Fatalf("spec %d repeats an earlier one", i)
		}
		seen[sp.Hash()] = true
	}

	for _, name := range []string{"ring-ts64", "ring-mixed", "mesh-serial", "mesh-part"} {
		x, err := dataplaneInputs(name, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		y, _ := dataplaneInputs(name, 7, 2)
		if x != y || x.Params.Seed != 7 {
			t.Errorf("%s: inputs not a function of the seed: %+v vs %+v", name, x, y)
		}
	}
	serial, _ := dataplaneInputs("mesh-serial", 7, 4)
	part, _ := dataplaneInputs("mesh-part", 7, 4)
	if serial.Params != part.Params || serial.DurMs != part.DurMs || part.Partitions != 4 || serial.Partitions != 0 {
		t.Errorf("mesh-part must be mesh-serial's inputs on 4 partitions: %+v vs %+v", serial, part)
	}
	if _, err := dataplaneInputs("derive-hot", 7, 2); err == nil {
		t.Error("a service workload has no dataplane inputs")
	}
}

func TestReconfigDeltas(t *testing.T) {
	if reconfigCommits%16 != 15 {
		t.Errorf("N = %d: the final WAL tail is not the longest one", reconfigCommits)
	}
	d := reconfigDeltas(reconfigCommits)
	for i := 1; i < len(d); i++ {
		if d[i] == d[i-1] {
			t.Fatalf("delta %d repeats its predecessor: nothing to reconfigure", i)
		}
		if d[i].Empty() {
			t.Fatalf("delta %d is empty", i)
		}
	}
}

func TestSelfTimeIsSpanMinusChildCoverage(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, Name: "round", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "build", StartNs: 10, EndNs: 30},
		// Two concurrent clients: their spans overlap on [50, 60] and
		// one runs past its parent's end.
		{ID: 3, Parent: 1, Name: "post", StartNs: 40, EndNs: 60},
		{ID: 4, Parent: 1, Name: "post", StartNs: 50, EndNs: 120},
		{ID: 5, Parent: 2, Name: "inner", StartNs: 12, EndNs: 17},
	}
	got := make(map[string]SelfTime)
	for _, st := range selfTimes(spans) {
		got[st.Name] = st
	}
	// round: 100 − ([10,30] ∪ [40,100]) = 100 − 80.
	if st := got["round"]; st.SelfNs != 20 || st.TotalNs != 100 || st.Count != 1 {
		t.Errorf("round = %+v, want self 20 of 100", st)
	}
	if st := got["build"]; st.SelfNs != 15 {
		t.Errorf("build self = %d, want 20 − 5", st.SelfNs)
	}
	if st := got["post"]; st.Count != 2 || st.TotalNs != 90 || st.SelfNs != 90 {
		t.Errorf("post = %+v, want 2 spans, 90 total, all self", st)
	}
}

func TestNilTracerIsANoOp(t *testing.T) {
	var tr *Tracer
	id := tr.Start("x", 0)
	tr.End(id)
	if id != 0 || tr.Spans() != nil {
		t.Errorf("untraced run recorded something: id %d spans %v", id, tr.Spans())
	}
	live := newTracer("w")
	a := live.Start("outer", 0)
	b := live.Start("inner", a)
	live.End(b)
	live.End(a)
	sp := live.Spans()
	if len(sp) != 2 || sp[1].Parent != a || sp[0].Workload != "w" || sp[0].EndNs < sp[1].EndNs {
		t.Errorf("spans = %+v", sp)
	}
}

func TestJSONLineCarriesExactlyTheContractKeys(t *testing.T) {
	for _, traced := range []bool{false, true} {
		res := &Result{Traced: traced, Attempted: 12, Failed: 0, Metrics: map[string]float64{
			"ops_per_s": 1234.5678, "lat_p50_ms": 9, "sim.events": 7,
		}}
		var buf bytes.Buffer
		if err := printJSONLine(&buf, res); err != nil {
			t.Fatal(err)
		}
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(&buf)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		if line.Correct == nil || !*line.Correct || *line.Attempted != 12 || *line.Failed != 0 {
			t.Errorf("header fields wrong: %+v", line)
		}
		table := endToEnd
		if traced {
			table = perLayer
		}
		if len(line.Metrics) != len(table) {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(line.Metrics), len(table))
		}
		for _, m := range table {
			if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("traced=%v: metric %s = %+v ok=%v", traced, m.Name, got, ok)
			}
		}
	}
}

func TestBypassAssertions(t *testing.T) {
	clean := map[string]float64{}
	if bad := assertBypass("ring-ts64", clean); len(bad) != 0 {
		t.Errorf("ring-ts64 with everything idle: %v", bad)
	}
	if bad := assertBypass("ring-ts64", map[string]float64{"psim.windows": 5}); len(bad) != 1 {
		t.Errorf("psim on a serial workload must be flagged: %v", bad)
	}
	if bad := assertBypass("mesh-part", clean); len(bad) != 1 {
		t.Errorf("mesh-part without windows must be flagged: %v", bad)
	}
	if bad := assertBypass("derive-hot", map[string]float64{"svc.cache_hit_ratio": 0.99}); len(bad) != 1 {
		t.Errorf("a miss on derive-hot must be flagged: %v", bad)
	}
	if bad := assertBypass("derive-cold", map[string]float64{"wal.bytes_per_commit": 590}); len(bad) != 1 {
		t.Errorf("WAL traffic off reconfig must be flagged: %v", bad)
	}
	if bad := assertBypass("ring-mixed", map[string]float64{"tsnswitch.drops_queue_full": 2191}); len(bad) != 0 {
		t.Errorf("ring-mixed with BE drops: %v", bad)
	}
	if bad := assertBypass("mesh-serial", map[string]float64{"tsnswitch.drops_queue_full": 1}); len(bad) != 1 {
		t.Errorf("drops off ring-mixed must be flagged: %v", bad)
	}
}

// A small ring and a small mesh through the real round function: the
// correctness gate passes, two rounds export the same digest, and the
// partitioned digest equals the serial reference.
func TestDataplaneRoundGateAndDigest(t *testing.T) {
	ring := dataplaneInput{DurMs: 30, Params: workload.Params{
		Topology: "ring", Switches: 6, TSFlows: 64, Hops: 3, WireSize: 64, SlotUs: 65, Seed: 3}}
	round := dataplaneRound(ring)
	a, err := round(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := round(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.problems) != 0 || a.failed != 0 || a.ops == 0 || a.attempted != a.ops {
		t.Errorf("gate: problems %v failed %d ops %d attempted %d", a.problems, a.failed, a.ops, a.attempted)
	}
	if a.digest != b.digest || a.digest == "" {
		t.Errorf("two rounds of one input export different digests: %s vs %s", a.digest, b.digest)
	}
	if a.counts["psim.windows"] != 0 || a.counts["sim.events"] == 0 {
		t.Errorf("counts: %v", a.counts)
	}
	// A deadline no frame can meet must surface as failed operations.
	tight := ring
	tight.Params.TSDeadline = 1
	c, err := dataplaneRound(tight)(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.failed == 0 || len(c.problems) == 0 {
		t.Errorf("deadline misses not counted: failed %d problems %v", c.failed, c.problems)
	}

	mesh := dataplaneInput{DurMs: 30, Partitions: 2, Params: workload.Params{
		Topology: "mesh", Switches: 16, TSFlows: 128, Hops: 3, WireSize: 64, SlotUs: 65, Seed: 3}}
	p, err := dataplaneRound(mesh)(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := serialReference(mesh)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.problems) != 0 || p.digest != ref {
		t.Errorf("partitioned: problems %v, digest equals serial = %v", p.problems, p.digest == ref)
	}
	if p.counts["psim.windows"] == 0 {
		t.Error("a partitioned run stepped no windows")
	}
}

// One reconfig round through the real service, in memory and durable:
// gapless acks, the same journal from both, the crash image recovers to
// that journal, WAL bytes are accounted — and only the durable round
// touches the disk.
func TestReconfigRound(t *testing.T) {
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)

	mem, err := reconfigRound(5, false)(newTracer("reconfig"), 0)
	if err != nil {
		t.Fatal(err)
	}
	mem.release()
	if _, err := os.Stat(stateRoot); !os.IsNotExist(err) {
		t.Errorf("the in-memory round left %s behind (stat: %v)", stateRoot, err)
	}
	if mem.recoveryMs != 0 || mem.counts["wal.bytes_per_commit"] != 0 {
		t.Errorf("the in-memory round reports WAL figures: recovery %v ms, counts %v", mem.recoveryMs, mem.counts)
	}

	s, err := reconfigRound(5, true)(newTracer("reconfig"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.release()
	for _, r := range []*roundSample{mem, s} {
		if len(r.problems) != 0 || r.failed != 0 || r.ops != reconfigCommits {
			t.Errorf("gate: problems %v failed %d ops %d", r.problems, r.failed, r.ops)
		}
		if len(r.latMs) != reconfigCommits || r.setupS <= 0 {
			t.Errorf("samples: %d latencies, setup %v s", len(r.latMs), r.setupS)
		}
	}
	if s.digest != mem.digest {
		t.Errorf("durable journal digest %.12s differs from the in-memory one %.12s", s.digest, mem.digest)
	}
	if s.recoveryMs <= 0 {
		t.Errorf("recovery took %v ms", s.recoveryMs)
	}
	if s.counts["wal.bytes_per_commit"] <= 0 || s.counts["wal.checkpoint_bytes"] <= 0 {
		t.Errorf("state-dir accounting: %v", s.counts)
	}
}
