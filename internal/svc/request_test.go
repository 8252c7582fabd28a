package svc

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/israce"
)

// hitWriter is the least a ResponseWriter can be: a reused header map
// and a byte count, so an allocation count sees only the service.
type hitWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *hitWriter) Header() http.Header         { return w.h }
func (w *hitWriter) WriteHeader(code int)        { w.code = code }
func (w *hitWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// TestDeriveHitAllocs gates what a cache hit costs the service itself:
// routing, admission, decode, normalize, key, lookup and headers. The
// header values are constants, the admission release is bound once, and
// no deadline is armed because a hit never waits (25 allocations before
// all three, 13 after; the gate leaves room across Go releases).
func TestDeriveHitAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	s, _ := newTestService(t, Options{})
	h := s.Handler()
	body := []byte(specBody)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/derive", nil)
	req.Body = io.NopCloser(rd)
	w := &hitWriter{h: http.Header{}}
	serve := func() {
		rd.Reset(body)
		clear(w.h)
		w.code, w.n = http.StatusOK, 0
		h.ServeHTTP(w, req)
	}
	serve() // the miss that makes the spec resident
	allocs := testing.AllocsPerRun(300, func() {
		serve()
		if w.code != http.StatusOK || w.h.Get("X-Cache") != "hit" {
			t.Fatalf("hit: status %d, X-Cache %q", w.code, w.h.Get("X-Cache"))
		}
	})
	t.Logf("%.1f allocs per cache hit", allocs)
	if allocs > 20 {
		t.Fatalf("a /v1/derive cache hit allocates %.1f, gate is 20", allocs)
	}
}

// serveRoute runs one request through route and hands the handler's
// context to probe.
func serveRoute(s *Service, deadline time.Duration, r *http.Request, probe func(ctx context.Context)) {
	s.route("probe", deadline, func(_ http.ResponseWriter, r *http.Request) {
		probe(r.Context())
	})(httptest.NewRecorder(), r)
}

func TestRequestDeadlineFromHeader(t *testing.T) {
	s, _ := newTestService(t, Options{})
	for _, c := range []struct {
		hdr  string
		want time.Duration
	}{
		{"", time.Second},
		{"250ms", 250 * time.Millisecond},
		{"10m", maxDeadline},
		{"-5s", time.Second},
		{"soon", time.Second},
	} {
		r := httptest.NewRequest(http.MethodGet, "/probe", nil)
		if c.hdr != "" {
			r.Header.Set("X-Request-Deadline", c.hdr)
		}
		var at time.Time
		var ok bool
		before := time.Now()
		serveRoute(s, time.Second, r, func(ctx context.Context) { at, ok = ctx.Deadline() })
		after := time.Now()
		if !ok || at.Before(before.Add(c.want)) || at.After(after.Add(c.want)) {
			t.Errorf("X-Request-Deadline %q: deadline %v (ok=%v), want now+%v", c.hdr, at, ok, c.want)
		}
	}
	// A client context that ends sooner keeps its own deadline.
	parent, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	want, _ := parent.Deadline()
	serveRoute(s, time.Second, httptest.NewRequest(http.MethodGet, "/probe", nil).WithContext(parent),
		func(ctx context.Context) {
			if at, _ := ctx.Deadline(); !at.Equal(want) {
				t.Errorf("deadline %v, want the parent's %v", at, want)
			}
		})
}

// TestRequestDeadlineLapses: with nothing armed Err reads the clock;
// Done, once asked for, closes at the deadline.
func TestRequestDeadlineLapses(t *testing.T) {
	s, _ := newTestService(t, Options{})
	serveRoute(s, 20*time.Millisecond, httptest.NewRequest(http.MethodGet, "/probe", nil), func(ctx context.Context) {
		if err := ctx.Err(); err != nil {
			t.Fatalf("fresh request Err = %v", err)
		}
		time.Sleep(30 * time.Millisecond)
		if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("lapsed, unarmed Err = %v", err)
		}
	})
	serveRoute(s, 20*time.Millisecond, httptest.NewRequest(http.MethodGet, "/probe", nil), func(ctx context.Context) {
		select {
		case <-ctx.Done():
		case <-time.After(2 * time.Second):
			t.Fatal("Done did not close at the deadline")
		}
		if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("armed Err = %v", err)
		}
	})
}

// TestRequestParentCanceled: a client that goes away cancels the
// request whether or not its deadline was armed.
func TestRequestParentCanceled(t *testing.T) {
	s, _ := newTestService(t, Options{})
	for _, armFirst := range []bool{false, true} {
		parent, cancel := context.WithCancel(context.Background())
		r := httptest.NewRequest(http.MethodGet, "/probe", nil).WithContext(parent)
		serveRoute(s, time.Minute, r, func(ctx context.Context) {
			if armFirst {
				_ = ctx.Done()
			}
			cancel()
			if err := ctx.Err(); !errors.Is(err, context.Canceled) {
				t.Errorf("armFirst=%v: Err after client cancel = %v", armFirst, err)
			}
			select {
			case <-ctx.Done():
			case <-time.After(2 * time.Second):
				t.Errorf("armFirst=%v: Done did not close after client cancel", armFirst)
			}
		})
	}
}

// TestRequestStopCancelsArmed: goroutines that ask for Done at once
// arm one deadline between them, and it is released when the route
// returns, not when it lapses.
func TestRequestStopCancelsArmed(t *testing.T) {
	s, _ := newTestService(t, Options{})
	var done <-chan struct{}
	serveRoute(s, time.Minute, httptest.NewRequest(http.MethodGet, "/probe", nil), func(ctx context.Context) {
		chans := make([]<-chan struct{}, 8)
		var wg sync.WaitGroup
		for i := range chans {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				chans[i] = ctx.Done()
			}(i)
		}
		wg.Wait()
		done = ctx.Done()
		for i, c := range chans {
			if c != done {
				t.Fatalf("goroutine %d armed a second deadline", i)
			}
		}
	})
	select {
	case <-done:
	default:
		t.Fatal("armed deadline still live after the route returned")
	}
}

// TestDeriveFollowerDeadline: a request that finds its spec's leader in
// flight waits for it only until its own deadline, then gets 504; the
// leader's body still lands in the cache.
func TestDeriveFollowerDeadline(t *testing.T) {
	s, ts := newTestService(t, Options{})
	spec := Spec{Topology: "linear", Switches: 3, TSFlows: 8}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	led := make(chan struct{})
	go func() {
		_, _, _ = s.Cache().Get(context.Background(), spec.Hash(), func() ([]byte, error) {
			close(led)
			<-gate
			return deriveBody(spec.Hash(), spec)
		})
	}()
	<-led
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/derive", specBody, map[string]string{"X-Request-Deadline": "50ms"})
	if elapsed := time.Since(start); resp.StatusCode != http.StatusGatewayTimeout || elapsed < 50*time.Millisecond {
		t.Fatalf("follower: %d after %v: %s", resp.StatusCode, elapsed, body)
	}
	if !strings.Contains(string(body), "deadline expired during derivation") {
		t.Fatalf("follower 504 body: %s", body)
	}
	close(gate)
	resp, body = postJSON(t, ts.URL+"/v1/derive", specBody, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("after the leader: %d X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}
}
