package svc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/israce"
)

// benchDelta is request i of the repository benchmark's reconfig
// sequence (benchmark/service.go): meter_size alternates, unicast_size
// cycles three sizes, so every request changes the live configuration.
func benchDelta(i int) ReconfigRequest {
	return ReconfigRequest{
		MeterSize:   []int{128, 64}[i%2],
		UnicastSize: []int{384, 512, 256}[i%3],
	}
}

func benchDeltaBody(i int) string {
	b, _ := json.Marshal(benchDelta(i))
	return string(b)
}

const (
	committedSeries = `tsn_reconfig_txns_total{outcome="committed"}`
	simEventsSeries = "tsn_sim_events_total"
)

// parseExposition reads a Prometheus text body into series → value and
// fails on anything a scraper would choke on: a truncated last line, a
// sample without a value, a value that is not a number.
func parseExposition(body []byte) (map[string]float64, error) {
	if len(body) == 0 || body[len(body)-1] != '\n' {
		return nil, fmt.Errorf("exposition does not end in a newline (%d bytes)", len(body))
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("sample line %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out, nil
}

// scrape GETs /metrics and parses it; safe off the test goroutine.
func scrape(url string, hdr map[string]string) (map[string]float64, error) {
	req, err := http.NewRequest(http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %d %s", resp.StatusCode, body)
	}
	return parseExposition(body)
}

func hasFamily(series map[string]float64, name string) bool {
	for k := range series {
		if k == name || strings.HasPrefix(k, name+"{") {
			return true
		}
	}
	return false
}

// TestMetricsReadYourAcks: the loop is FIFO, so a scrape that starts
// after a 2xx sees that commit — for every k, not just eventually.
func TestMetricsReadYourAcks(t *testing.T) {
	_, ts := newTestService(t, Options{})
	for k := 1; k <= 20; k++ {
		if resp, body := postJSON(t, ts.URL+"/v1/reconfig", benchDeltaBody(k-1), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("reconfig %d: %d %s", k, resp.StatusCode, body)
		}
		series, err := scrape(ts.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := series[committedSeries]; got != float64(k) {
			t.Fatalf("after %d acks /metrics shows %s %v", k, committedSeries, got)
		}
	}
}

// TestMetricsScrapeUnderCommitsRace runs scrapers against a committing
// client. Under -race it proves the registry's unsynchronized cells are
// only read on the loop; in any build every scrape must parse whole and
// a scraper never sees the committed count go backwards.
func TestMetricsScrapeUnderCommitsRace(t *testing.T) {
	_, ts := newTestService(t, Options{})
	const commits, scrapers = 60, 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for sc := 0; sc < scrapers; sc++ {
		wg.Add(1)
		go func(sc int) {
			defer wg.Done()
			last := -1.0
			for n := 0; ; n++ {
				series, err := scrape(ts.URL, nil)
				if err != nil {
					t.Errorf("scraper %d scrape %d: %v", sc, n, err)
					return
				}
				if !hasFamily(series, simEventsSeries) || !hasFamily(series, MetricBreakerState) {
					t.Errorf("scraper %d scrape %d: a section is missing", sc, n)
					return
				}
				got := series[committedSeries]
				if got < last {
					t.Errorf("scraper %d: committed went %v → %v", sc, last, got)
					return
				}
				last = got
				select {
				case <-stop:
					return
				default:
				}
			}
		}(sc)
	}
	for i := 0; i < commits; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/reconfig", benchDeltaBody(i), nil); resp.StatusCode != http.StatusOK {
			t.Errorf("reconfig %d: %d %s", i, resp.StatusCode, body)
			break
		}
	}
	close(stop)
	wg.Wait()
	series, err := scrape(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := series[committedSeries]; got != commits && !t.Failed() {
		t.Fatalf("final committed = %v, want %d", got, commits)
	}
}

// TestMetricsDuringStalledRecovery: while the replay job holds the loop
// a scrape costs its deadline, not a hang — the service section (which
// explains the stall) is served, the instance section is omitted — and
// the abandoned job blocks nothing once the loop moves again.
func TestMetricsDuringStalledRecovery(t *testing.T) {
	dir := t.TempDir()
	s0, url0 := newDurableService(t, dir, Options{})
	if resp, body := postJSON(t, url0+"/v1/reconfig", benchDeltaBody(0), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed reconfig: %d %s", resp.StatusCode, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s0.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	hold := make(chan struct{})
	s, ts := newTestService(t, Options{StateDir: dir, recoverHold: hold})
	// Registered after newTestService's cleanup, so it runs first: a
	// failure below must not leave Shutdown waiting on a held loop.
	release := sync.OnceFunc(func() { close(hold) })
	t.Cleanup(release)
	if resp, body := getRaw(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("recovering readyz: %d %s", resp.StatusCode, body)
	}
	start := time.Now()
	series, err := scrape(ts.URL, map[string]string{"X-Request-Deadline": "50ms"})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("stalled scrape took %v against a 50ms deadline", took)
	}
	if !hasFamily(series, MetricRequests) {
		t.Fatalf("stalled scrape lacks the service section (%s)", MetricRequests)
	}
	if hasFamily(series, simEventsSeries) {
		t.Fatalf("stalled scrape has an instance section: the loop is held, who read it?")
	}

	release()
	waitRecovered(t, s)
	if series, err = scrape(ts.URL, nil); err != nil {
		t.Fatal(err)
	}
	if !hasFamily(series, MetricRequests) || !hasFamily(series, simEventsSeries) {
		t.Fatal("post-recovery scrape lacks a section")
	}

	// Teardown: ts.Close waits for every handler, Shutdown for the loop.
	// Both returning means the timed-out scraper and its abandoned job
	// (which ran into its buffered channel) left nothing blocked.
	torn := make(chan error, 1)
	go func() {
		ts.Close()
		torn <- s.Shutdown(ctx)
	}()
	select {
	case err := <-torn:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("teardown blocked:\n%s", buf[:runtime.Stack(buf, true)])
	}
}

// TestMetricsAfterShutdown: with the loop gone the handler snapshots
// the registry directly, so the final instance section stays readable.
func TestMetricsAfterShutdown(t *testing.T) {
	s, ts := newTestService(t, Options{})
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/reconfig", benchDeltaBody(i), nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("reconfig %d: %d %s", i, resp.StatusCode, body)
		}
	}
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-shutdown /metrics: %d", rec.Code)
	}
	series, err := parseExposition(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := series[committedSeries]; got != 2 || !hasFamily(series, simEventsSeries) {
		t.Fatalf("post-shutdown instance section: committed=%v sim_events=%v",
			got, hasFamily(series, simEventsSeries))
	}
}

// TestReconfigureAllocs gates the cost of an ack: a non-durable commit
// allocates for the delta it stages, never for the size of the
// network's telemetry (per-commit registry publication cost 495
// allocations on this instance), nor for a design it does not keep —
// staging checks the candidate's Builder without building one. The
// commit takes 15; the gate leaves 5 of margin.
func TestReconfigureAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	in, err := NewInstance(Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	i := 0
	allocs := testing.AllocsPerRun(300, func() {
		d := benchDelta(i)
		i++
		if out, err := in.Reconfigure(context.Background(), &d); err != nil || out.Seq == 0 {
			t.Fatalf("reconfigure %d: %+v %v", i, out, err)
		}
	})
	t.Logf("%.1f allocs per commit", allocs)
	if allocs > 20 {
		t.Fatalf("Instance.Reconfigure allocates %.1f per commit, gate is 20", allocs)
	}
}

// wedgedService returns a service whose last commit wedged behind a
// journal of the given length, and so did the repair that followed it,
// and that commit's verification error, read from its refusal.
func wedgedService(t *testing.T, journal int) (*Service, error) {
	t.Helper()
	s, _ := newTestService(t, Options{})
	for i := 0; i < journal; i++ {
		d := benchDelta(i)
		if out, err := s.Instance().Reconfigure(context.Background(), &d); err != nil || out.Seq == 0 {
			t.Fatalf("reconfigure %d: %+v %v", i, out, err)
		}
	}
	if err := s.Instance().Arm(1, 2, true); err != nil {
		t.Fatal(err)
	}
	d := ReconfigRequest{UnicastSize: s.Instance().LiveConfig().UnicastSize * 2}
	_, err := s.Instance().Reconfigure(context.Background(), &d)
	var refusal *Refusal
	if !errors.As(err, &refusal) || !strings.HasPrefix(refusal.Msg, verifyFailed) {
		t.Fatalf("armed wedge did not surface: %v", err)
	}
	return s, errors.New(strings.TrimPrefix(refusal.Msg, verifyFailed))
}

// verifyFailed leads the refusal of a commit that failed verification.
const verifyFailed = "post-commit verification failed: "

// TestHealthzDegradedIgnoresJournalLength: the endpoint polled hardest
// while the instance is wedged reads one error, not a copy of every
// journal entry under the mutex the loop needs.
func TestHealthzDegradedIgnoresJournalLength(t *testing.T) {
	healthz := func(s *Service) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		return rec
	}
	short, _ := wedgedService(t, 0)
	long, verifyErr := wedgedService(t, 2000)
	rec := healthz(long)
	var body struct{ Status, Detail string }
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if n := len(long.Instance().Status().Journal); n != 2000 {
		t.Fatalf("setup: journal has %d entries", n)
	}
	if rec.Code != http.StatusServiceUnavailable || body.Status != "degraded" || body.Detail != verifyErr.Error() {
		t.Fatalf("wedged healthz: %d %s", rec.Code, rec.Body)
	}
	if israce.Enabled {
		return
	}
	a0 := testing.AllocsPerRun(100, func() { healthz(short) })
	a2000 := testing.AllocsPerRun(100, func() { healthz(long) })
	if a2000 > a0 {
		t.Fatalf("/healthz allocations grow with the journal: %.0f at 0 entries, %.0f at 2000", a0, a2000)
	}
}

// TestMetricsServiceSectionOrderStable: the request cells are bound in
// the order requests first arrive, so the section's sample order must
// come from the registry's, not from that order or a map's — every
// scrape of an idle service is byte-equal, with tsn_svc_requests_total
// in (route, code) order.
func TestMetricsServiceSectionOrderStable(t *testing.T) {
	s, ts := newTestService(t, Options{})
	for _, rq := range []struct {
		path, body string
		code       int
	}{
		{"/v1/reconfig", benchDeltaBody(0), http.StatusOK},
		{"/v1/reconfig", `{"unicast_size":1}`, http.StatusConflict},
		{"/v1/reconfig", `{`, http.StatusBadRequest},
		{"/v1/derive", `{"topology":"linear","switches":3,"ts_flows":8}`, http.StatusOK},
		{"/v1/derive", `{`, http.StatusBadRequest},
	} {
		if resp, body := postJSON(t, ts.URL+rq.path, rq.body, nil); resp.StatusCode != rq.code {
			t.Fatalf("POST %s %s: %d %s, want %d", rq.path, rq.body, resp.StatusCode, body, rq.code)
		}
	}
	if _, err := scrape(ts.URL, nil); err != nil {
		t.Fatal(err)
	}
	section := func() string {
		var b strings.Builder
		if err := s.stats.reg.Snapshot().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	// A request is counted after its response is written: wait for the
	// last one (the scrape above) to land before comparing.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(section(), MetricRequests+`{code="200",route="metrics"}`) {
		if time.Now().After(deadline) {
			t.Fatalf("the /metrics request never showed up in:\n%s", section())
		}
		time.Sleep(time.Millisecond)
	}
	first := section()
	var routes []string
	for _, line := range strings.Split(first, "\n") {
		if strings.HasPrefix(line, MetricRequests+"{") {
			var code int
			var route string
			if _, err := fmt.Sscanf(line, MetricRequests+`{code="%d",route=%q}`, &code, &route); err != nil {
				t.Fatalf("sample line %q: %v", line, err)
			}
			routes = append(routes, fmt.Sprintf("%s %d", route, code))
		}
	}
	if len(routes) < 6 || !sort.StringsAreSorted(routes) {
		t.Fatalf("%s samples are not ≥ 6 in (route, code) order: %q", MetricRequests, routes)
	}
	for i := 1; i < 20; i++ {
		if got := section(); got != first {
			t.Fatalf("scrape %d of an idle service differs from the first:\n%s\n--- first ---\n%s", i, got, first)
		}
	}
}
