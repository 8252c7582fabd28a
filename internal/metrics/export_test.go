package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func buildRegistry() *Registry {
	r := New()
	rx := r.Counters("tsn_switch_rx_frames_total", "frames received by the ingress pipeline", "switch")
	rx.With(Int(0)).Add(10)
	rx.With(Int(1)).Add(20)
	r.Gauges("tsn_pool_occupancy", "", "switch", "port").With(Int(0), Int(2)).Set(7)
	h := r.Histograms("tsn_residence_ns", "", []int64{1000, 10000}, "switch").With(Int(0))
	h.Observe(500)
	h.Observe(5000)
	h.Observe(50000)
	return r
}

// parsePrometheus is a minimal text-exposition parser: it validates
// the line grammar this package emits and returns metric→value
// entries keyed by "name{labels}".
func parsePrometheus(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	types := make(map[string]string)
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[0] == "" {
				t.Fatalf("line %d: malformed HELP: %q", ln+1, line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q", ln+1, parts[1])
			}
			types[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		}
		// Sample line: name[{labels}] value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value separator: %q", ln+1, line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("line %d: unterminated label set: %q", ln+1, line)
			}
			name = key[:i]
			body := key[i+1 : len(key)-1]
			for _, pair := range strings.Split(body, ",") {
				kv := strings.SplitN(pair, "=", 2)
				if len(kv) != 2 || !strings.HasPrefix(kv[1], `"`) || !strings.HasSuffix(kv[1], `"`) {
					t.Fatalf("line %d: malformed label %q", ln+1, pair)
				}
			}
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := types[name]; !ok {
			if _, ok := types[base]; !ok {
				t.Fatalf("line %d: sample %q has no preceding TYPE", ln+1, name)
			}
		}
		out[key] = val
	}
	return out
}

func TestWritePrometheus(t *testing.T) {
	var buf bytes.Buffer
	if err := buildRegistry().Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	samples := parsePrometheus(t, text)

	if v := samples[`tsn_switch_rx_frames_total{switch="0"}`]; v != 10 {
		t.Fatalf("rx switch 0 = %g, want 10 in:\n%s", v, text)
	}
	if v := samples[`tsn_pool_occupancy{port="2",switch="0"}`]; v != 7 {
		t.Fatalf("occupancy = %g in:\n%s", v, text)
	}
	// Histogram exposition: cumulative buckets, sum, count.
	if v := samples[`tsn_residence_ns_bucket{switch="0",le="1000"}`]; v != 1 {
		t.Fatalf("le=1000 bucket = %g in:\n%s", v, text)
	}
	if v := samples[`tsn_residence_ns_bucket{switch="0",le="10000"}`]; v != 2 {
		t.Fatalf("le=10000 bucket = %g", v)
	}
	if v := samples[`tsn_residence_ns_bucket{switch="0",le="+Inf"}`]; v != 3 {
		t.Fatalf("le=+Inf bucket = %g", v)
	}
	if v := samples[`tsn_residence_ns_count{switch="0"}`]; v != 3 {
		t.Fatalf("count = %g", v)
	}
	if v := samples[`tsn_residence_ns_sum{switch="0"}`]; v != 55500 {
		t.Fatalf("sum = %g", v)
	}
	if !strings.Contains(text, "# HELP tsn_switch_rx_frames_total frames received") {
		t.Fatalf("missing HELP line in:\n%s", text)
	}
}

func TestWritePrometheusLabelEscaping(t *testing.T) {
	r := New()
	r.Counters("weird", "", "detail").With(Name("a\"b\\c\nd")).Inc()
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `weird{detail="a\"b\\c\nd"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("escaping wrong:\n%s", buf.String())
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	snap := buildRegistry().Snapshot()
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(got.Families) != len(snap.Families) {
		t.Fatalf("families = %d, want %d", len(got.Families), len(snap.Families))
	}
	for i, f := range got.Families {
		if f.Name != snap.Families[i].Name || f.Kind != snap.Families[i].Kind {
			t.Fatalf("family %d mismatch: %+v vs %+v", i, f, snap.Families[i])
		}
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	r := New()
	c := r.Counters("c", "").With()
	c.Inc()
	snap := r.Snapshot()
	c.Add(100)
	if snap.Families[0].Samples[0].Value != 1 {
		t.Fatal("snapshot shares state with live registry")
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	mk := func() string {
		r := New()
		for i := 0; i < 5; i++ {
			r.Counters("a", "", "i").With(Int(i)).Inc()
			r.Gauges("b", "", "i").With(Int(i)).Set(int64(i))
		}
		var buf bytes.Buffer
		if err := r.Snapshot().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if mk() != mk() {
		t.Fatal("exposition not deterministic")
	}
}

// TestSnapshotHistogramsAreCopies: histogram counts are carved from one
// per-snapshot array, which must neither follow the live registry nor
// let one sample's slice grow into its neighbour's.
func TestSnapshotHistogramsAreCopies(t *testing.T) {
	r := New()
	hs := r.Histograms("h", "", []int64{10, 20}, "i")
	b := hs.With(Name("b"))
	a := hs.With(Name("a"))
	a.ObserveExemplar(5, "first", 1)
	b.Observe(15)
	snap := r.Snapshot()
	a.ObserveExemplar(500, "later", 2)
	b.Observe(15)
	sa, sb := snap.Families[0].Samples[0], snap.Families[0].Samples[1]
	if fmt.Sprint(sa.Counts, sb.Counts) != "[1 0 0] [0 1 0]" || sa.Count != 1 || sb.Count != 1 {
		t.Fatalf("snapshot follows the live registry: %v %v", sa.Counts, sb.Counts)
	}
	if sa.Exemplar == nil || sa.Exemplar.Label != "first" {
		t.Fatalf("snapshot exemplar follows the live registry: %+v", sa.Exemplar)
	}
	_ = append(sa.Counts, 99)
	if fmt.Sprint(sb.Counts) != "[0 1 0]" {
		t.Fatalf("appending to one sample's counts wrote into the next: %v", sb.Counts)
	}
}

// TestSnapshotEmptyRegistryJSON pins the empty export: no families is
// null, not [], and a declared family without a cell exports nothing.
func TestSnapshotEmptyRegistryJSON(t *testing.T) {
	r := New()
	r.Counters("never_instrumented", "declared only", "switch")
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "{\n  \"families\": null\n}\n" {
		t.Fatalf("empty snapshot JSON = %q", got)
	}
}

// instanceShapedRegistry mirrors the registry of svc's default managed
// instance (4-switch line, 24 TS flows): 26 families, 387 samples, 968
// labels, 25 histogram samples — what one /metrics scrape snapshots on
// the control loop.
func instanceShapedRegistry() *Registry {
	r := New()
	keys := []string{"switch", "port", "queue"}
	values := func(n, i int) []Value {
		vs := make([]Value, n)
		for k := range vs {
			vs[k] = Int(i + k)
		}
		return vs
	}
	fam := 0
	add := func(kind Kind, bounds, nLabels int, samples ...int) {
		for _, n := range samples {
			name := fmt.Sprintf("tsn_family_%02d", fam)
			fam++
			for i := 0; i < n; i++ {
				switch kind {
				case KindCounter:
					r.Counters(name, "shape stand-in", keys[:nLabels]...).With(values(nLabels, i)...).Add(uint64(i))
				case KindGauge:
					r.Gauges(name, "shape stand-in", keys[:nLabels]...).With(values(nLabels, i)...).Set(int64(i))
				case KindHistogram:
					r.Histograms(name, "shape stand-in", ExponentialBounds(100, 2, bounds), keys[:nLabels]...).
						With(values(nLabels, i)...).Observe(int64(i) * 300)
				}
			}
		}
	}
	add(KindCounter, 0, 0, 1, 1, 1)                      // sim events, reconfig retries, watchdog audits
	add(KindGauge, 0, 0, 1)                              // heap depth high water
	add(KindCounter, 0, 1, 3, 4, 4, 4, 4, 4, 3, 2, 4, 4) // per class / switch / outcome
	add(KindGauge, 0, 1, 4)                              // degrade level
	add(KindCounter, 0, 2, 24, 14)                       // drops by reason, pool alloc failures
	add(KindGauge, 0, 2, 14, 14)                         // pool occupancy, high water
	add(KindCounter, 0, 3, 112, 28)                      // queue enqueues, gate rollovers
	add(KindGauge, 0, 3, 112)                            // queue depth high water
	add(KindHistogram, 14, 1, 3, 3)                      // e2e latency, deadline miss
	add(KindHistogram, 16, 2, 15)                        // latency components
	add(KindHistogram, 12, 1, 4)                         // queue residence
	return r
}

// BenchmarkRegistrySnapshot is the cost a scrape puts on the control
// loop. Budget: ≤ 80 allocs, ≤ 60 KB (28 / 47.7 KB measured; 532 /
// 145.7 KB when every label and bounds slice was re-copied per sample).
func BenchmarkRegistrySnapshot(b *testing.B) {
	r := instanceShapedRegistry()
	snap := r.Snapshot()
	var samples, labels, hists int
	for _, f := range snap.Families {
		samples += len(f.Samples)
		for _, s := range f.Samples {
			labels += len(s.Labels)
			if f.Kind == KindHistogram {
				hists++
			}
		}
	}
	if len(snap.Families) != 26 || samples != 387 || labels != 968 || hists != 25 {
		b.Fatalf("registry shape %d families / %d samples / %d labels / %d histograms, want 26/387/968/25",
			len(snap.Families), samples, labels, hists)
	}
	b.ReportAllocs()
	for b.Loop() {
		snap = r.Snapshot()
	}
	_ = snap
}

// TestExportIgnoresRegistrationOrder: the same cells, declared and
// resolved in two different orders (families, cells within a family,
// integer and name values), export byte-identical Prometheus text and
// JSON, with families in name order and cells in value order.
func TestExportIgnoresRegistrationOrder(t *testing.T) {
	type op struct {
		family string
		vals   []Value
		n      int64
	}
	ops := []op{
		{"tsn_switch_drops_total", []Value{Int(10), Name("queue-full")}, 3},
		{"tsn_switch_drops_total", []Value{Int(2), Name("meter")}, 1},
		{"tsn_switch_drops_total", []Value{Int(2), Name("gate")}, 4},
		{"tsn_pool_occupancy", []Value{Int(3), Name("shared")}, 9},
		{"tsn_pool_occupancy", []Value{Int(3), Int(11)}, 5},
		{"tsn_pool_occupancy", []Value{Int(3), Int(2)}, 6},
		{"tsn_e2e_latency_ns", []Value{Name("TS")}, 700},
		{"tsn_e2e_latency_ns", []Value{Name("BE")}, 90},
		{"tsn_sim_events_total", nil, 42},
	}
	build := func(order []int) *Registry {
		r := New()
		for _, i := range order {
			o := ops[i]
			switch o.family {
			case "tsn_switch_drops_total", "tsn_sim_events_total":
				keys := []string{"switch", "reason"}[:len(o.vals)]
				r.Counters(o.family, "help "+o.family, keys...).With(o.vals...).Add(uint64(o.n))
			case "tsn_pool_occupancy":
				r.Gauges(o.family, "help "+o.family, "switch", "port").With(o.vals...).Set(o.n)
			default:
				r.Histograms(o.family, "help "+o.family, []int64{100, 1000}, "class").
					With(o.vals...).ObserveExemplar(o.n, "flow=1", o.n)
			}
		}
		return r
	}
	fwd := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	rev := []int{8, 7, 6, 5, 4, 3, 2, 1, 0}
	shuffled := []int{4, 8, 1, 6, 3, 0, 7, 5, 2}
	wantProm, wantJSON := exportBytes(t, build(fwd))
	for _, order := range [][]int{rev, shuffled} {
		if prom, js := exportBytes(t, build(order)); prom != wantProm || js != wantJSON {
			t.Fatalf("order %v exports differently:\n--- got ---\n%s--- want ---\n%s", order, prom, wantProm)
		}
	}
	var types, samples []string
	for _, line := range strings.Split(wantProm, "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			types = append(types, name)
		} else if strings.HasPrefix(line, "tsn_switch_drops_total") || strings.HasPrefix(line, "tsn_pool_occupancy") {
			samples = append(samples, line)
		}
	}
	wantTypes := []string{"tsn_e2e_latency_ns histogram", "tsn_pool_occupancy gauge",
		"tsn_sim_events_total counter", "tsn_switch_drops_total counter"}
	wantSamples := []string{
		`tsn_pool_occupancy{port="2",switch="3"} 6`,
		`tsn_pool_occupancy{port="11",switch="3"} 5`,
		`tsn_pool_occupancy{port="shared",switch="3"} 9`,
		`tsn_switch_drops_total{reason="gate",switch="2"} 4`,
		`tsn_switch_drops_total{reason="meter",switch="2"} 1`,
		`tsn_switch_drops_total{reason="queue-full",switch="10"} 3`,
	}
	if fmt.Sprint(types) != fmt.Sprint(wantTypes) || fmt.Sprint(samples) != fmt.Sprint(wantSamples) {
		t.Fatalf("export order:\n%s\nwant families %v and samples %v", wantProm, wantTypes, wantSamples)
	}
}
