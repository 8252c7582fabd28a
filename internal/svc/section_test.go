package svc

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
)

// call serves one request on the service's handler, on the calling
// goroutine: the request is counted before call returns.
func call(s *Service, method, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// serviceSection cuts the service-level section — the tsn_svc_
// families, written first — off the front of a /metrics body.
func serviceSection(body string) string {
	rest := body
	for rest != "" {
		line, after, _ := strings.Cut(rest, "\n")
		name := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
		if !strings.HasPrefix(name, "tsn_svc_") {
			break
		}
		rest = after
	}
	return body[:len(body)-len(rest)]
}

// serviceSectionGolden is the section the serial script below produces.
const serviceSectionGolden = "testdata/service_section.prom"

// TestMetricsServiceSectionGolden: a fixed serial script — a derive miss
// and hit, a 400, a 409 and a 200 reconfiguration, a 504 through
// X-Request-Deadline, then /healthz and /readyz — scrapes a service
// section byte-equal to the golden file, declared families, bound cells
// and request cells alike.
func TestMetricsServiceSectionGolden(t *testing.T) {
	s, _ := newTestService(t, Options{})
	spec := `{"topology":"linear","switches":3,"ts_flows":8}`
	for _, rq := range []struct {
		method, path, body string
		hdr                map[string]string
		code               int
	}{
		{http.MethodPost, "/v1/derive", spec, nil, http.StatusOK},
		{http.MethodPost, "/v1/derive", spec, nil, http.StatusOK},
		{http.MethodPost, "/v1/reconfig", `{`, nil, http.StatusBadRequest},
		{http.MethodPost, "/v1/reconfig", `{"unicast_size":1}`, nil, http.StatusConflict},
		{http.MethodPost, "/v1/reconfig", benchDeltaBody(0), nil, http.StatusOK},
		{http.MethodPost, "/v1/derive", `{"topology":"linear","switches":4,"ts_flows":8}`,
			map[string]string{"X-Request-Deadline": "1ns"}, http.StatusGatewayTimeout},
		{http.MethodGet, "/healthz", "", nil, http.StatusOK},
		{http.MethodGet, "/readyz", "", nil, http.StatusOK},
	} {
		if rec := call(s, rq.method, rq.path, rq.body, rq.hdr); rec.Code != rq.code {
			t.Fatalf("%s %s %s: %d %s, want %d", rq.method, rq.path, rq.body, rec.Code, rec.Body, rq.code)
		}
	}
	rec := call(s, http.MethodGet, "/metrics", "", nil)
	want, err := os.ReadFile(serviceSectionGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := serviceSection(rec.Body.String()); got != string(want) {
		t.Fatalf("service section differs from %s:\n%s\n--- want ---\n%s", serviceSectionGolden, got, want)
	}
}

// TestMetricsScrapesRaceNewCells: /metrics scrapes run while traffic
// binds new (route, code) cells, under -race; once the traffic ends,
// every cell counts exactly its requests.
func TestMetricsScrapesRaceNewCells(t *testing.T) {
	s, _ := newTestService(t, Options{})
	const rounds = 20
	traffic := []struct {
		method, path, body string
		hdr                map[string]string
		route              string
		code               int
	}{
		{http.MethodGet, "/v1/derive", "", nil, "derive", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/derive", `{`, nil, "derive", http.StatusBadRequest},
		{http.MethodPost, "/v1/derive", `{"topology":"linear","switches":3,"ts_flows":8}`,
			map[string]string{"X-Request-Deadline": "1ns"}, "derive", http.StatusGatewayTimeout},
		{http.MethodGet, "/v1/reconfig", "", nil, "reconfig", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/reconfig", `{`, nil, "reconfig", http.StatusBadRequest},
		{http.MethodGet, "/v1/config", "", nil, "config", http.StatusOK},
		{http.MethodGet, "/v1/journal", "", nil, "journal", http.StatusOK},
		{http.MethodGet, "/healthz", "", nil, "healthz", http.StatusOK},
		{http.MethodGet, "/readyz", "", nil, "readyz", http.StatusOK},
	}
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for range 2 {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rec := call(s, http.MethodGet, "/metrics", "", nil); rec.Code != http.StatusOK {
					t.Errorf("/metrics = %d", rec.Code)
					return
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for _, rq := range traffic {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				if rec := call(s, rq.method, rq.path, rq.body, rq.hdr); rec.Code != rq.code {
					t.Errorf("%s %s: %d %s, want %d", rq.method, rq.path, rec.Code, rec.Body, rq.code)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()
	for _, rq := range traffic {
		if got := s.stats.reg.CounterValue(MetricRequests,
			metrics.L("route", rq.route), metrics.L("code", strconv.Itoa(rq.code))); got != rounds {
			t.Errorf("%s{route=%q,code=%d} = %d, want %d", MetricRequests, rq.route, rq.code, got, rounds)
		}
	}
}
