package svc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

// testWorkload is a tiny managed network that builds in milliseconds.
func testWorkload() workload.Params {
	return workload.Params{
		Topology: "linear", Switches: 2, TSFlows: 4, Hops: 2,
		WireSize: 200, SlotUs: 65, Seed: 1,
	}
}

func newTestService(t *testing.T, opts Options) (*Service, *httptest.Server) {
	t.Helper()
	if opts.Workload.Topology == "" {
		opts.Workload = testWorkload()
	}
	s, err := NewService(opts)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	liveServices++
	t.Cleanup(func() {
		ts.Close()
		shutdownTestService(t, s)
	})
	return s, ts
}

// liveServices counts the services newTestService and serveTestService
// started whose cleanup has not run yet; svc tests run serially.
var liveServices int

// shutdownTestService shuts s down, then fails t unless within 2 s no
// more instance control loops run than services are still live: nothing
// of a service may outlive its Shutdown, so a loop left over is this
// test's leak or an earlier test's.
func shutdownTestService(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)
	liveServices--
	stacks := make([]byte, 1<<20)
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		stacks = stacks[:runtime.Stack(stacks[:cap(stacks)], true)]
		if bytes.Count(stacks, []byte("svc.(*Instance).loop(")) <= liveServices {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("an instance control loop outlived Shutdown (%d services live):\n%s", liveServices, stacks)
		}
	}
}

func postJSON(t *testing.T, url string, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

const specBody = `{"topology":"linear","switches":3,"ts_flows":8}`

func TestServiceDeriveCacheCoherence(t *testing.T) {
	_, ts := newTestService(t, Options{})
	url := ts.URL + "/v1/derive"

	r1, b1 := postJSON(t, url, specBody, nil)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first derive: %d %s", r1.StatusCode, b1)
	}
	if got := r1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first derive X-Cache = %q", got)
	}
	var dr DeriveResponse
	if err := json.Unmarshal(b1, &dr); err != nil {
		t.Fatalf("bad derive body: %v", err)
	}
	if dr.Config.UnicastSize <= 0 || dr.MemoryKb <= 0 || len(dr.Memory) == 0 {
		t.Fatalf("implausible derivation: %+v", dr)
	}
	if dr.SpecHash != r1.Header.Get("X-Spec-Hash") {
		t.Fatal("body hash and header hash disagree")
	}

	r2, b2 := postJSON(t, url, specBody, nil)
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second derive X-Cache = %q", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("cached body differs from original")
	}

	// The coherence oracle's fresh path: a no-cache recompute must be
	// byte-identical to what the cache serves.
	r3, b3 := postJSON(t, url, specBody, map[string]string{"Cache-Control": "no-cache"})
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("fresh derive: %d %s", r3.StatusCode, b3)
	}
	if !bytes.Equal(b1, b3) {
		t.Fatalf("fresh body differs from cached body:\n%s\nvs\n%s", b1, b3)
	}
}

func TestServiceDeriveRejectsBadSpecs(t *testing.T) {
	_, ts := newTestService(t, Options{})
	url := ts.URL + "/v1/derive"
	for _, c := range []struct {
		name, body, want string // want "" accepts any error text
	}{
		{"malformed", `{"topology":`, ""},
		{"unknown topology", `{"topology":"moebius","switches":3,"ts_flows":8}`, ""},
		{"missing topology", `{"switches":3,"ts_flows":8}`, ""},
		{"too many switches", `{"topology":"linear","switches":1000,"ts_flows":8}`, ""},
		{"frer without bidir-ring", `{"topology":"linear","switches":3,"ts_flows":8,"frer_flows":2}`, ""},
		{"ring below its floor", `{"topology":"ring","switches":2,"ts_flows":4}`, ""},
		{"bidir-ring below its floor", `{"topology":"bidir-ring","switches":2,"ts_flows":4}`, ""},
		{"scale topology", `{"topology":"mesh","switches":4,"ts_flows":8}`, ""},
		{"misspelled key", `{"topology":"ring","switches":8,"ts_flows":64,"hop":3}`, `bad spec: json: unknown field "hop"`},
	} {
		resp, body := postJSON(t, url, c.body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s", c.name, resp.StatusCode, body)
		}
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: no error body: %s", c.name, body)
		} else if c.want != "" && e.Error != c.want {
			t.Errorf("%s: error %q, want %q", c.name, e.Error, c.want)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/v1/derive?x=1", specBody, nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("query string broke derive: %d", resp.StatusCode)
	}
}

// TestDeriveIgnoresTSDeadline: ts_deadline_ns is accepted and dropped
// by Normalize — a derivation never reads a deadline — so a body with
// it answers exactly as the same body without it.
func TestDeriveIgnoresTSDeadline(t *testing.T) {
	_, ts := newTestService(t, Options{})
	url := ts.URL + "/v1/derive"
	for _, c := range []struct{ without, with string }{
		{specBody, `{"topology":"linear","switches":3,"ts_flows":8,"ts_deadline_ns":250000}`},
		{`{"topology":"ring","switches":2,"ts_flows":4}`, `{"topology":"ring","switches":2,"ts_flows":4,"ts_deadline_ns":1}`},
	} {
		r1, b1 := postJSON(t, url, c.without, map[string]string{"Cache-Control": "no-cache"})
		r2, b2 := postJSON(t, url, c.with, map[string]string{"Cache-Control": "no-cache"})
		if r1.StatusCode != r2.StatusCode || r1.Header.Get("X-Spec-Hash") != r2.Header.Get("X-Spec-Hash") || !bytes.Equal(b1, b2) {
			t.Errorf("%s answers %d %q %s; %s answers %d %q %s", c.without, r1.StatusCode, r1.Header.Get("X-Spec-Hash"), b1,
				c.with, r2.StatusCode, r2.Header.Get("X-Spec-Hash"), b2)
		}
	}
}

func TestServiceReconfigCommitAndJournal(t *testing.T) {
	s, ts := newTestService(t, Options{})
	live := s.Instance().LiveConfig()

	grown := live.UnicastSize * 2
	resp, body := postJSON(t, ts.URL+"/v1/reconfig",
		`{"unicast_size":`+jsonInt(grown)+`}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reconfig: %d %s", resp.StatusCode, body)
	}
	var rr ReconfigResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Seq != 1 || rr.State != "committed" || rr.Config.UnicastSize != grown {
		t.Fatalf("reconfig response: %+v", rr)
	}

	// The accepted transaction is observable: /v1/config carries it...
	var cfg ConfigJSON
	getJSON(t, ts.URL+"/v1/config", &cfg)
	if cfg.UnicastSize != grown {
		t.Fatalf("live config unicast_size = %d, want %d", cfg.UnicastSize, grown)
	}
	// ...and the journal records it as entry 1.
	var journal []JournalEntry
	getJSON(t, ts.URL+"/v1/journal", &journal)
	if len(journal) != 1 || journal[0].Seq != 1 || journal[0].Config.UnicastSize != grown {
		t.Fatalf("journal: %+v", journal)
	}
}

func TestServiceReconfigValidationRejection(t *testing.T) {
	s, ts := newTestService(t, Options{})
	// Shrinking the unicast table below its live occupancy is a
	// validation rejection: 409, and NOT a breaker failure.
	resp, body := postJSON(t, ts.URL+"/v1/reconfig", `{"unicast_size":1}`, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("shrink-below-occupancy: %d %s", resp.StatusCode, body)
	}
	if s.Breaker().State() != BreakerClosed {
		t.Fatal("validation rejection moved the breaker")
	}
	resp, _ = postJSON(t, ts.URL+"/v1/reconfig", `{}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty delta: %d", resp.StatusCode)
	}
}

// TestServiceReconfigBadDelta: a negative size or a field the request
// does not have is a 400 naming it, and commits nothing.
func TestServiceReconfigBadDelta(t *testing.T) {
	_, ts := newTestService(t, Options{})
	for _, tc := range []struct{ body, want string }{
		{`{"unicast_size":-5}`, "bad delta: negative unicast_size -5"},
		{`{"meter_size":64,"buffer_num":-1}`, "bad delta: negative buffer_num -1"},
		{`{"meter_size":64,"gate_size":4}`, `bad delta: json: unknown field "gate_size"`},
		{`{"gate_size":4}`, `bad delta: json: unknown field "gate_size"`},
		{`{"unicast_size":0}`, "empty delta: nothing to reconfigure"},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/reconfig", tc.body, nil)
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || resp.StatusCode != http.StatusBadRequest || e.Error != tc.want {
			t.Errorf("%s: %d %s, want 400 %q", tc.body, resp.StatusCode, body, tc.want)
		}
	}
	var journal []JournalEntry
	getJSON(t, ts.URL+"/v1/journal", &journal)
	if len(journal) != 0 {
		t.Fatalf("a rejected delta was journaled: %+v", journal)
	}
}

// TestServiceWedgeTripsBreakerAndHealth: a wedge that also wedges the
// repair leaves the instance fenced — degraded, unready — and trips the
// breaker.
func TestServiceWedgeTripsBreakerAndHealth(t *testing.T) {
	s, ts := newTestService(t, Options{})
	setBreaker(s.brk, 1)
	if err := s.Instance().Arm(1, 2, true); err != nil {
		t.Fatal(err)
	}
	live := s.Instance().LiveConfig()
	resp, body := postJSON(t, ts.URL+"/v1/reconfig",
		`{"unicast_size":`+jsonInt(live.UnicastSize*2)+`}`, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("wedged commit: %d %s (must NOT be 2xx — partial state)", resp.StatusCode, body)
	}
	// The wedge is visible: health degraded, readiness gone, breaker open.
	hr, hb := getRaw(t, ts.URL+"/healthz")
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after wedge: %d %s", hr.StatusCode, hb)
	}
	rr, _ := getRaw(t, ts.URL+"/readyz")
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after wedge: %d", rr.StatusCode)
	}
	if s.Breaker().State() != BreakerOpen {
		t.Fatalf("breaker = %v after wedged commit", s.Breaker().State())
	}
	resp, body = postJSON(t, ts.URL+"/v1/reconfig", `{"meter_size":64}`, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker admitted a reconfig: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("breaker rejection missing Retry-After")
	}
}

// TestFailedCommitKeepsLiveAtJournalTail: a wedged grow answers 500,
// and the instance repairs itself — driving back to the journal tail
// stages the wedge's leftovers back — so a second grow commits with 200
// on the repaired network, the configuration in force is the journal
// tail and the instance is ready.
func TestFailedCommitKeepsLiveAtJournalTail(t *testing.T) {
	s, ts := newTestService(t, Options{})
	boot := s.Instance().LiveConfig()
	if err := s.Instance().Arm(1, 1, true); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/reconfig", `{"unicast_size":`+jsonInt(boot.UnicastSize*2)+`}`, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("wedged grow: %d %s, want 500", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/reconfig", `{"meter_size":`+jsonInt(boot.MeterSize*2)+`}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grow after the wedge: %d %s, want 200 (repaired)", resp.StatusCode, body)
	}
	var journal []JournalEntry
	var live ConfigJSON
	getJSON(t, ts.URL+"/v1/journal", &journal)
	getJSON(t, ts.URL+"/v1/config", &live)
	tail := boot
	if len(journal) > 0 {
		tail = journal[len(journal)-1].Config
	}
	if len(journal) != 1 || live != tail {
		t.Fatalf("live config %+v is not the journal tail %+v (journal %+v)", live, tail, journal)
	}
	if rr, rb := getRaw(t, ts.URL+"/readyz"); rr.StatusCode != http.StatusOK {
		t.Fatalf("readyz after the repair: %d %s", rr.StatusCode, rb)
	}
}

// TestRestoreDrivesBackToJournalTail: a configuration the engine
// committed but the journal never took — what a failed commit record
// leaves — is undone: restore drives the network back to the tail,
// verifies it there and unfences.
func TestRestoreDrivesBackToJournalTail(t *testing.T) {
	s, _ := newTestService(t, Options{})
	in := s.Instance()
	boot := in.LiveConfig()
	var moved, back core.Config
	var fence error
	err := in.submit(context.Background(), func() {
		grown := boot
		grown.MeterSize *= 2
		if err := in.driveTo(grown); err != nil {
			t.Error(err)
		}
		moved = in.net.LiveConfig()
		in.restore(errors.New("commit not durable"))
		back, fence = in.net.LiveConfig(), in.Fenced()
	})
	if err != nil {
		t.Fatal(err)
	}
	if moved == boot || back != boot || fence != nil {
		t.Fatalf("moved to %+v, restored to %+v (boot %+v), fence %v", moved, back, boot, fence)
	}
}

func TestServiceTransientAbsorbedByRetry(t *testing.T) {
	s, ts := newTestService(t, Options{})
	if err := s.Instance().Arm(0, 2, false); err != nil {
		t.Fatal(err)
	}
	live := s.Instance().LiveConfig()
	resp, body := postJSON(t, ts.URL+"/v1/reconfig",
		`{"unicast_size":`+jsonInt(live.UnicastSize*2)+`}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("transient not absorbed: %d %s", resp.StatusCode, body)
	}
	var rr ReconfigResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (two injected failures + success)", rr.Attempts)
	}
	if s.Breaker().State() != BreakerClosed {
		t.Fatal("absorbed transient moved the breaker")
	}
}

func TestServiceOverloadSheds429(t *testing.T) {
	s, ts := newTestService(t, Options{})
	// Hold the only derive slot so the next request finds a full class
	// with a zero wait bound — it must shed instantly, not queue.
	s.adm = NewAdmission(1, 0, 0)
	defer fill(t, s.adm.Derive)()
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/derive", specBody, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated derive: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("shed took %v — shedding must be fast", elapsed)
	}
}

func TestServiceDeadlineInQueue(t *testing.T) {
	s, ts := newTestService(t, Options{})
	defer fill(t, s.Admission().Derive)()
	resp, body := postJSON(t, ts.URL+"/v1/derive", specBody,
		map[string]string{"X-Request-Deadline": "50ms"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued past deadline: %d %s", resp.StatusCode, body)
	}
}

func TestServicePanicRecovery(t *testing.T) {
	s, _ := newTestService(t, Options{})
	h := s.route("boom", time.Second, func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler returned %d", rec.Code)
	}
	if got := s.stats.panics.Load(); got != 1 {
		t.Fatalf("panics counter = %d", got)
	}
	// The process survived; a normal request still works.
	hr := httptest.NewRecorder()
	s.Handler().ServeHTTP(hr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if hr.Code != http.StatusOK {
		t.Fatalf("healthz after panic: %d", hr.Code)
	}
}

func TestServiceHealthAndMetrics(t *testing.T) {
	_, ts := newTestService(t, Options{})
	hr, hb := getRaw(t, ts.URL+"/healthz")
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %s", hr.StatusCode, hb)
	}
	rr, rb := getRaw(t, ts.URL+"/readyz")
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d %s", rr.StatusCode, rb)
	}
	_, _ = postJSON(t, ts.URL+"/v1/derive", specBody, nil)
	mr, mb := getRaw(t, ts.URL+"/metrics")
	if mr.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", mr.StatusCode)
	}
	for _, want := range []string{
		MetricRequests, MetricQueueDepth, MetricBreakerState, MetricCache,
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
}

func TestServiceShutdownIdempotent(t *testing.T) {
	s, ts := newTestService(t, Options{})
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	// Work after shutdown reports closed, not deadlock.
	if _, err := s.Instance().Reconfigure(context.Background(), &ReconfigRequest{MeterSize: 64}); err != ErrInstanceClosed {
		t.Fatalf("post-shutdown Reconfigure err = %v", err)
	}
}

func getRaw(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, b := getRaw(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func jsonInt(v int) string {
	b, _ := json.Marshal(v)
	return string(b)
}
