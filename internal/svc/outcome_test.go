package svc

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/reconfig"
)

// breakerFailures reads the breaker's consecutive-failure count.
func breakerFailures(b *Breaker) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.failures
}

// setBreaker sets b's failure threshold and stops its clock, so an
// open breaker stays open and its Retry-After reads the whole cooldown.
func setBreaker(b *Breaker, threshold int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.threshold = threshold
	now := b.now()
	b.now = func() time.Time { return now }
}

// fill takes every slot of q, so the next request waits or sheds; the
// returned func frees them.
func fill(t *testing.T, q *ClassQueue) (release func()) {
	t.Helper()
	for range cap(q.slots) {
		if _, err := q.Acquire(context.Background(), false); err != nil {
			t.Fatal(err)
		}
	}
	return func() {
		for range cap(q.slots) {
			q.free()
		}
	}
}

// reconfigVia POSTs body to /v1/reconfig through the service's handler.
func reconfigVia(s *Service, body string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/reconfig", strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// holdLoop occupies the instance's control loop until a job queues
// behind it and d more has passed: a request whose deadline is shorter
// than d finds it lapsed when its job is taken.
func holdLoop(s *Service, d time.Duration) {
	in := s.Instance()
	held := make(chan struct{})
	go func() {
		_ = in.submit(context.Background(), func() {
			close(held)
			for len(in.jobs) == 0 {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(d)
		})
	}()
	<-held
}

// TestReconfigOutcomeTable pins every outcome of POST /v1/reconfig: its
// status, its exact body, whether it fed the breaker and whether it
// counted as an exceeded deadline. Each row runs on a fresh service
// whose breaker trips only far above one failure and whose clock is
// stopped, so every failed commit shows as one more consecutive
// failure and an open breaker's Retry-After is its whole cooldown.
func TestReconfigOutcomeTable(t *testing.T) {
	grow := `{"unicast_size":128}`
	for _, row := range []struct {
		name  string
		setup func(t *testing.T, s *Service)
		body  string
		hdr   map[string]string
		code  int
		want  string // the exact body
		retry string // the Retry-After header
		// recovering stalls a durable service's journal replay.
		recovering bool
		// failures and deadlines are the changes in the breaker's
		// failure count and in tsn_svc_deadline_exceeded_total.
		failures, deadlines int
	}{
		{
			name: "commit", body: grow, code: http.StatusOK,
			want: `{"seq":1,"state":"committed","attempts":1,"commit_at_ns":130000,"config":{"unicast_size":128,"multicast_size":0,"class_size":4,"meter_size":4,"gate_size":2,"queue_num":8,"port_num":2,"cbs_map_size":3,"cbs_size":3,"queue_depth":2,"buffer_num":16,"frer_size":0,"frer_history":0,"slot_ns":65000,"link_rate_bps":1000000000}}`,
		},
		{
			name: "bad delta", body: `{"unicast_size":-5}`, code: http.StatusBadRequest,
			want: `{"error":"bad delta: negative unicast_size -5"}`,
		},
		{
			name: "empty delta", body: `{}`, code: http.StatusBadRequest,
			want: `{"error":"empty delta: nothing to reconfigure"}`,
		},
		{
			name: "shrink below occupancy", body: `{"unicast_size":1}`, code: http.StatusConflict,
			want: `{"error":"reconfig: switch 0 unicast table holds 4 entries \u003e candidate size 1\nreconfig: switch 1 unicast table holds 4 entries \u003e candidate size 1"}`,
		},
		{
			name: "rolled back", body: grow, code: http.StatusInternalServerError, failures: 1,
			setup: func(t *testing.T, s *Service) {
				if err := s.Instance().Arm(0, reconfig.Retries+1, false); err != nil {
					t.Fatal(err)
				}
			},
			want: `{"error":"reconfig: commit failed at \"sw0:set_switch_tbl\": reconfig: injected failure before \"sw0:set_switch_tbl\""}`,
		},
		{
			name: "wedge", body: grow, code: http.StatusInternalServerError, failures: 1,
			setup: func(t *testing.T, s *Service) {
				if err := s.Instance().Arm(1, 1, true); err != nil {
					t.Fatal(err)
				}
			},
			want: `{"error":"post-commit verification failed: testbed: switch 0 set_switch_tbl is [128 0], expected [4 0]: partial reconfiguration left in place"}`,
		},
		{
			name: "fenced", body: `{"meter_size":64}`, code: http.StatusServiceUnavailable,
			setup: func(t *testing.T, s *Service) {
				// The wedge's repair wedges too: the instance stays fenced.
				if err := s.Instance().Arm(1, 2, true); err != nil {
					t.Fatal(err)
				}
				if rec := reconfigVia(s, grow, nil); rec.Code != http.StatusInternalServerError {
					t.Fatalf("wedge: %d %s", rec.Code, rec.Body)
				}
			},
			want: `{"error":"fenced: testbed: switch 0 set_switch_tbl is [128 0], expected [4 0]: partial reconfiguration left in place; back to the journal tail: commit resolved rolled-back: reconfig: commit failed at \"sw0:set_switch_tbl\" with rollback disabled: reconfig: injected failure before \"sw0:set_switch_tbl\""}`,
		},
		{
			name: "breaker open", body: grow, code: http.StatusServiceUnavailable,
			setup: func(t *testing.T, s *Service) {
				setBreaker(s.brk, 1)
				s.brk.Failure()
			},
			want: `{"error":"circuit breaker open: recent commits failed"}`, retry: "2",
		},
		{
			name: "queue full", body: grow, code: http.StatusTooManyRequests,
			setup: func(t *testing.T, s *Service) {
				s.adm = NewAdmission(1, 0, 0) // no room to wait
				fill(t, s.adm.Reconfig)
			},
			want: `{"error":"overloaded, retry later"}`, retry: "2",
		},
		{
			name: "recovering", body: grow, code: http.StatusServiceUnavailable, recovering: true,
			want: `{"error":"recovering: journal replay in progress"}`,
		},
		{
			name: "shutting down", body: grow, code: http.StatusServiceUnavailable,
			setup: func(t *testing.T, s *Service) { s.Instance().Close() },
			want:  `{"error":"instance shutting down"}`,
		},
		{
			name: "expired in the job queue", body: grow, code: http.StatusGatewayTimeout, deadlines: 1,
			hdr:   map[string]string{"X-Request-Deadline": "20ms"},
			setup: func(t *testing.T, s *Service) { holdLoop(s, 50*time.Millisecond) },
			want:  `{"error":"deadline expired before commit started"}`,
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			var opts Options
			var hold chan struct{}
			if row.recovering {
				hold = make(chan struct{})
				opts.StateDir, opts.recoverHold = t.TempDir(), hold
			}
			s, _ := newTestService(t, opts)
			if hold != nil {
				// Runs before newTestService's cleanup: Shutdown must not
				// wait on a held replay.
				t.Cleanup(sync.OnceFunc(func() { close(hold) }))
			}
			setBreaker(s.brk, 100)
			if row.setup != nil {
				row.setup(t, s)
			}
			f0, d0 := breakerFailures(s.Breaker()), s.stats.deadlineExceeded.Value()
			rec := reconfigVia(s, row.body, row.hdr)
			if got := strings.TrimSuffix(rec.Body.String(), "\n"); rec.Code != row.code || got != row.want {
				t.Errorf("%d %s, want %d %s", rec.Code, got, row.code, row.want)
			}
			if got := rec.Header().Get("Retry-After"); got != row.retry {
				t.Errorf("Retry-After %q, want %q", got, row.retry)
			}
			if got := breakerFailures(s.Breaker()) - f0; got != row.failures {
				t.Errorf("breaker failures +%d, want +%d", got, row.failures)
			}
			if got := s.stats.deadlineExceeded.Value() - d0; got != uint64(row.deadlines) {
				t.Errorf("%s +%d, want +%d", MetricDeadlines, got, row.deadlines)
			}
		})
	}
}

// TestDeriveExpiredDeadline: a deadline already past when the request
// arrives answers 504 on a cache miss and on a hit alike, though neither
// waits for anything.
func TestDeriveExpiredDeadline(t *testing.T) {
	_, ts := newTestService(t, Options{})
	expired := map[string]string{"X-Request-Deadline": "1ns"}
	const want = `{"error":"deadline expired during derivation"}` + "\n"
	if resp, body := postJSON(t, ts.URL+"/v1/derive", specBody, expired); resp.StatusCode != http.StatusGatewayTimeout || string(body) != want {
		t.Fatalf("expired miss: %d %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/derive", specBody, nil); resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("live miss: %d X-Cache %q %s", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/derive", specBody, expired); resp.StatusCode != http.StatusGatewayTimeout || string(body) != want {
		t.Fatalf("expired hit: %d %s", resp.StatusCode, body)
	}
}

// TestDeadlineCountIsThe504s: every way both POST routes time out —
// admission queue, job queue, already expired — counts once in
// tsn_svc_deadline_exceeded_total, which therefore equals the 504s of
// tsn_svc_requests_total.
func TestDeadlineCountIsThe504s(t *testing.T) {
	s, ts := newTestService(t, Options{})
	post := func(path, body, deadline string) {
		t.Helper()
		if resp, b := postJSON(t, ts.URL+path, body, map[string]string{"X-Request-Deadline": deadline}); resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("POST %s (deadline %s): %d %s, want 504", path, deadline, resp.StatusCode, b)
		}
	}
	grow := `{"unicast_size":128}`
	post("/v1/derive", specBody, "1ns")
	post("/v1/reconfig", grow, "1ns")
	for _, a := range []struct {
		q          *ClassQueue
		path, body string
	}{{s.Admission().Derive, "/v1/derive", specBody}, {s.Admission().Reconfig, "/v1/reconfig", grow}} {
		release := fill(t, a.q)
		post(a.path, a.body, "20ms")
		release()
	}
	holdLoop(s, 50*time.Millisecond)
	post("/v1/reconfig", grow, "20ms")

	series, err := scrape(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	var timeouts float64
	for k, v := range series {
		if strings.HasPrefix(k, MetricRequests+`{code="504",`) {
			timeouts += v
		}
	}
	if got := series[MetricDeadlines]; timeouts != 5 || got != timeouts {
		t.Fatalf("%s = %v, 504s in %s = %v, want both 5", MetricDeadlines, got, MetricRequests, timeouts)
	}
}
