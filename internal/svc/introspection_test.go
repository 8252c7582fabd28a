package svc

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/trace"
)

// serveTestService serves a service on a real listener through its own
// Serve, so Shutdown is the drain the daemon performs (httptest's server
// would bypass it).
func serveTestService(t *testing.T) (*Service, string, chan error) {
	t.Helper()
	s, err := NewService(Options{Workload: testWorkload()})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	liveServices++
	t.Cleanup(func() { shutdownTestService(t, s) })
	return s, "http://" + ln.Addr().String(), served
}

// TestServiceServesIntrospection: the daemon answers the introspection
// set of the one obs.Server next to its API, outside the route
// middleware — an /events stream flushes its headers on the first poll
// (behind route's statusRecorder, which hides http.Flusher, http.Get
// would not return until the stream ended) and ends inside the Shutdown
// deadline, and none of these routes is booked as a service request.
func TestServiceServesIntrospection(t *testing.T) {
	s, base, served := serveTestService(t)
	if resp, body := postJSON(t, base+"/v1/reconfig", benchDeltaBody(0), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("reconfig: %d %s", resp.StatusCode, body)
	}
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d %s", path, resp.StatusCode, body)
		}
		return resp, body
	}
	// Empty today: the managed instance advances its engine only to
	// commit boundaries and starts no flows, so nothing is delivered and
	// the attribution has no flow to break down.
	var flows []json.RawMessage
	if _, body := get("/flows"); json.Unmarshal(body, &flows) != nil || len(flows) != 0 {
		t.Fatalf("/flows = %s, want an empty JSON array", body)
	}
	var rec map[string]json.RawMessage
	if _, body := get("/flightrec"); json.Unmarshal(body, &rec) != nil || rec["deadline_miss"] == nil || rec["triggered"] == nil {
		t.Fatalf("/flightrec = %s, want both dump lists", body)
	}
	if _, body := get("/debug/pprof/cmdline"); !strings.Contains(string(body), "svc.test") {
		t.Fatalf("/debug/pprof/cmdline = %q", body)
	}
	get("/healthz")

	client := &http.Client{Transport: &http.Transport{ResponseHeaderTimeout: 2 * time.Second}}
	stream, err := client.Get(base + "/events")
	if err != nil {
		t.Fatalf("/events sent no headers on its first poll: %v", err)
	}
	if ct := stream.Header.Get("Content-Type"); stream.StatusCode != http.StatusOK || ct != "application/x-ndjson" {
		t.Fatalf("/events = %d %q", stream.StatusCode, ct)
	}
	streamed := make(chan error, 1)
	go func() {
		_, cerr := io.Copy(io.Discard, stream.Body)
		stream.Body.Close()
		streamed <- cerr
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with an open /events stream: %v", err)
	}
	select {
	case err := <-streamed:
		if err != nil {
			t.Fatalf("/events did not end cleanly: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("/events still open after Shutdown returned")
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}

	// After Shutdown the handler reads the registry directly.
	scraped := httptest.NewRecorder()
	s.Handler().ServeHTTP(scraped, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	series, err := parseExposition(scraped.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	routes := map[string]bool{}
	for k := range series {
		if _, route, ok := strings.Cut(k, `,route="`); ok && strings.HasPrefix(k, MetricRequests+"{") {
			routes[strings.TrimSuffix(route, `"}`)] = true
		}
	}
	// The post-shutdown scrape is itself a routed request, counted only
	// after its body was written.
	if !routes["reconfig"] || !routes["healthz"] || len(routes) != 2 {
		t.Fatalf("%s books routes %v, want exactly reconfig and healthz", MetricRequests, routes)
	}
}

// TestIntrospectionUnderCommitsRace runs four scrapers — two polling
// /flows, two opening and abandoning /events streams — against a client
// committing reconfigurations: the handlers read the instance's
// attribution and flight recorder from their own goroutines while the
// control loop writes them (the race detector is the assertion).
func TestIntrospectionUnderCommitsRace(t *testing.T) {
	_, base, _ := serveTestService(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for sc := 0; sc < 4; sc++ {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// /events never ends on its own: leave it after two polls.
				ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
				req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					cancel()
					t.Errorf("%s: %v", path, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s = %d", path, resp.StatusCode)
				}
				_, _ = io.Copy(io.Discard, resp.Body) // ends with the context on /events
				resp.Body.Close()
				cancel()
			}
		}([]string{"/flows", "/events"}[sc%2])
	}
	for i := 0; i < 40; i++ {
		if resp, body := postJSON(t, base+"/v1/reconfig", benchDeltaBody(i), nil); resp.StatusCode != http.StatusOK {
			t.Errorf("reconfig %d: %d %s", i, resp.StatusCode, body)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestEventsStreamOnAnIdleInstance: a client that opens /events on an
// instance with no job in flight reads what the recorder already holds,
// without waiting for a next job. The events are recorded in a job
// before any client exists, so that job's own publication has no copy
// to fill; only the subscription's publication can deliver them.
func TestEventsStreamOnAnIdleInstance(t *testing.T) {
	s, base, _ := serveTestService(t)
	if err := s.inst.submit(context.Background(), func() {
		s.inst.net.Flight.Record(trace.Event{At: 5, Kind: trace.KindIngress, FlowID: 3, Seq: 9})
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	var ev struct {
		At   sim.Time `json:"at_ns"`
		Flow uint32   `json:"flow"`
	}
	if err != nil || json.Unmarshal([]byte(line), &ev) != nil || ev.At != 5 || ev.Flow != 3 {
		t.Fatalf("first /events line %q (%v), want the recorded event", line, err)
	}
}
