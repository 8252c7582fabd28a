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
	r.Help("tsn_switch_rx_frames_total", "frames received by the ingress pipeline")
	r.Counter("tsn_switch_rx_frames_total", L("switch", "0")).Add(10)
	r.Counter("tsn_switch_rx_frames_total", L("switch", "1")).Add(20)
	r.Gauge("tsn_pool_occupancy", L("switch", "0"), L("port", "2")).Set(7)
	h := r.Histogram("tsn_residence_ns", []int64{1000, 10000}, L("switch", "0"))
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
	r.Counter("weird", L("detail", "a\"b\\c\nd")).Inc()
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
	c := r.Counter("c")
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
			r.Counter("a", L("i", fmt.Sprint(i))).Inc()
			r.Gauge("b", L("i", fmt.Sprint(i))).Set(int64(i))
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
	a := r.Histogram("h", []int64{10, 20}, L("i", "a"))
	b := r.Histogram("h", []int64{10, 20}, L("i", "b"))
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
// null, not [].
func TestSnapshotEmptyRegistryJSON(t *testing.T) {
	r := New()
	r.Help("never_instrumented", "help only")
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
	labels := func(n, i int) []Label {
		ls := make([]Label, n)
		for k := range ls {
			ls[k] = L([]string{"switch", "port", "queue"}[k], strconv.Itoa(i+k))
		}
		return ls
	}
	fam := 0
	add := func(kind Kind, bounds, nLabels int, samples ...int) {
		for _, n := range samples {
			name := fmt.Sprintf("tsn_family_%02d", fam)
			fam++
			r.Help(name, "shape stand-in")
			for i := 0; i < n; i++ {
				switch kind {
				case KindCounter:
					r.Counter(name, labels(nLabels, i)...).Add(uint64(i))
				case KindGauge:
					r.Gauge(name, labels(nLabels, i)...).Set(int64(i))
				case KindHistogram:
					r.Histogram(name, ExponentialBounds(100, 2, bounds), labels(nLabels, i)...).Observe(int64(i) * 300)
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap = r.Snapshot()
	}
	_ = snap
}
