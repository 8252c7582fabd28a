package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/analyzer"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/trace"
)

// testServer wires a server over one observed miss, published without
// a health report, and returns it with a function that publishes the
// same state again with the given report.
func testServer(t *testing.T) (*Server, func(*HealthReport)) {
	t.Helper()
	fl := trace.NewFlight(64)
	fl.Record(trace.Event{At: 10, Kind: trace.KindEnqueue, FlowID: 7, Seq: 1})
	reg := metrics.New()
	attr := NewAttribution(reg, fl)
	coll := analyzer.NewCollector()
	coll.SetLatencySink(attr)
	coll.Admit([]*flows.Spec{{ID: 7, Class: ethernet.ClassTS, Deadline: 1000}})
	coll.Record(spanFrame(7, 1, ethernet.ClassTS, 5000), 6000)
	srv := NewServer(attr, fl)
	srv.MountPublished()
	publish := func(h *HealthReport) { srv.Publish(reg.Snapshot(), coll, h) }
	publish(nil)
	return srv, publish
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

func TestServerMetricsEndpoints(t *testing.T) {
	srv, _ := testServer(t)
	code, body := get(t, srv.Handler(), "/metrics")
	if code != 200 || !strings.Contains(body, MetricComponent) {
		t.Fatalf("/metrics = %d, component family present=%v", code,
			strings.Contains(body, MetricComponent))
	}
	code, body = get(t, srv.Handler(), "/metrics.json")
	if code != 200 || !strings.Contains(body, "\"families\"") {
		t.Fatalf("/metrics.json = %d body %q", code, body[:min(len(body), 80)])
	}
}

// TestServerHealthz: /healthz serves the last publication's report in
// its two shapes — the bare ok without one, the full body with one.
func TestServerHealthz(t *testing.T) {
	srv, publish := testServer(t)
	if code, body := get(t, srv.Handler(), "/healthz"); code != 200 || body != `{"status":"ok"}`+"\n" {
		t.Fatalf("unwatched /healthz = %d %q", code, body)
	}
	publish(&HealthReport{})
	if code, body := get(t, srv.Handler(), "/healthz"); code != 200 ||
		body != `{"audits":0,"detail":"","status":"ok","violations":0}`+"\n" {
		t.Fatalf("healthy /healthz = %d %q", code, body)
	}
	publish(&HealthReport{Degraded: true, Detail: "pool pressure 0.93 on switch 2", Audits: 41, Violations: 3})
	code, body := get(t, srv.Handler(), "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded /healthz = %d, want 503", code)
	}
	if want := `{"audits":41,"detail":"pool pressure 0.93 on switch 2","status":"degraded","violations":3}` + "\n"; body != want {
		t.Fatalf("degraded body = %q, want %q", body, want)
	}
	publish(&HealthReport{Audits: 42, Violations: 3})
	if code, _ = get(t, srv.Handler(), "/healthz"); code != 200 {
		t.Fatalf("recovered /healthz = %d, want 200", code)
	}
}

func TestServerFlowBreakdown(t *testing.T) {
	srv, _ := testServer(t)
	code, body := get(t, srv.Handler(), "/flows/7")
	if code != 200 {
		t.Fatalf("/flows/7 = %d", code)
	}
	var fj struct {
		Flow   uint32 `json:"flow"`
		Class  string `json:"class"`
		Misses uint64 `json:"deadline_misses"`
		Worst  struct {
			Prop  sim.Time `json:"prop_ns"`
			Ser   sim.Time `json:"ser_ns"`
			Queue sim.Time `json:"queue_ns"`
			Gate  sim.Time `json:"gate_ns"`
			Shape sim.Time `json:"shape_ns"`
		} `json:"worst"`
		WorstNs sim.Time `json:"worst_ns"`
	}
	if err := json.Unmarshal([]byte(body), &fj); err != nil {
		t.Fatal(err)
	}
	if fj.Flow != 7 || fj.Class != "TS" || fj.Misses != 1 {
		t.Fatalf("breakdown header wrong: %+v", fj)
	}
	sum := fj.Worst.Prop + fj.Worst.Ser + fj.Worst.Queue + fj.Worst.Gate + fj.Worst.Shape
	if sum != fj.WorstNs || fj.WorstNs != 5000 {
		t.Fatalf("components sum to %v, worst_ns %v — must match exactly", sum, fj.WorstNs)
	}

	if code, _ := get(t, srv.Handler(), "/flows/999"); code != 404 {
		t.Fatalf("unknown flow = %d, want 404", code)
	}
	if code, _ := get(t, srv.Handler(), "/flows/bogus"); code != 400 {
		t.Fatalf("bad id = %d, want 400", code)
	}
	code, body = get(t, srv.Handler(), "/flows")
	if code != 200 || !strings.Contains(body, `"flow":7`) {
		t.Fatalf("/flows = %d %q", code, body)
	}
}

func TestServerFlightrec(t *testing.T) {
	srv, _ := testServer(t)
	code, body := get(t, srv.Handler(), "/flightrec")
	if code != 200 {
		t.Fatalf("/flightrec = %d", code)
	}
	var out struct {
		Miss      []MissDump  `json:"deadline_miss"`
		Triggered []EventDump `json:"triggered"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Miss) != 1 || out.Miss[0].FlowID != 7 || len(out.Miss[0].Events) != 1 {
		t.Fatalf("flightrec dump wrong: %+v", out)
	}
}

func TestServerNilComponentsDegradeGracefully(t *testing.T) {
	srv := NewServer(nil, nil)
	srv.MountPublished()
	if code, _ := get(t, srv.Handler(), "/healthz"); code != 200 {
		t.Fatal("nil health should report ok")
	}
	if code, body := get(t, srv.Handler(), "/flows"); code != 200 || strings.TrimSpace(body) != "[]" {
		t.Fatalf("nil attr /flows = %d %q", code, body)
	}
	if code, _ := get(t, srv.Handler(), "/flows/1"); code != 404 {
		t.Fatal("nil attr /flows/1 should 404")
	}
	if code, _ := get(t, srv.Handler(), "/events"); code != 404 {
		t.Fatal("nil flight /events should 404")
	}
	if code, _ := get(t, srv.Handler(), "/metrics"); code != 200 {
		t.Fatal("empty snapshot /metrics should still 200")
	}
}

// TestServerEventStream drives the NDJSON feed over a real listener:
// events the writer publishes once the stream is open arrive as JSON
// lines, and the stream ends when the client goes away.
func TestServerEventStream(t *testing.T) {
	fl := trace.NewFlight(64)
	srv := NewServer(nil, fl)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fl.Record(trace.Event{At: 5, Kind: trace.KindIngress, FlowID: 3, Seq: 9, Switch: 1, Port: 2})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	srv.PublishEvents() // the subscription allocated the feed's ring
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	var ev struct {
		At   sim.Time `json:"at_ns"`
		Kind string   `json:"kind"`
		Flow uint32   `json:"flow"`
	}
	if err := json.Unmarshal([]byte(line), &ev); err != nil {
		t.Fatalf("bad NDJSON line %q: %v", line, err)
	}
	if ev.At != 5 || ev.Flow != 3 || ev.Kind == "" {
		t.Fatalf("streamed event wrong: %+v", ev)
	}
	cancel() // client departs; the handler's poll loop must exit
}

// TestServerEventStreamAfterLastPublish: a client that subscribes after
// the writer's last publication still reads the ring's events — from
// the copy FeedEvents made before serving, or from the publication its
// subscription asks the writer for through OnSubscribe.
func TestServerEventStreamAfterLastPublish(t *testing.T) {
	for _, eager := range []bool{true, false} {
		fl := trace.NewFlight(64)
		srv := NewServer(nil, fl)
		wake := make(chan struct{}, 1)
		if eager {
			srv.FeedEvents()
		} else {
			srv.OnSubscribe(func() { wake <- struct{}{} })
		}
		ts := httptest.NewServer(srv.Handler())
		fl.Record(trace.Event{At: 5, Kind: trace.KindIngress, FlowID: 3, Seq: 9})
		fl.Record(trace.Event{At: 7, Kind: trace.KindTxStart, FlowID: 3, Seq: 9})
		srv.PublishEvents() // the last publication

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if !eager {
			select { // the writer answers the subscription
			case <-wake:
				srv.PublishEvents()
			case <-ctx.Done():
				t.Fatal("the subscription never asked the writer to publish")
			}
		}
		rd := bufio.NewReader(resp.Body)
		for _, want := range []sim.Time{5, 7} {
			line, err := rd.ReadString('\n')
			var ev struct {
				At sim.Time `json:"at_ns"`
			}
			if err != nil || json.Unmarshal([]byte(line), &ev) != nil || ev.At != want {
				t.Fatalf("eager=%v: line %q (%v), want the event at %d", eager, line, err, want)
			}
		}
		cancel()
		resp.Body.Close()
		ts.Close()
	}
}

// TestServeShutdownDrainsStream exercises the owned-server lifecycle
// on a real listener: a live NDJSON /events stream is in flight when
// Shutdown fires, the stream must terminate cleanly (the poll loop
// honors the closing signal, not just client departure), Shutdown must
// return nil within its deadline, and the listener must stop accepting.
func TestServeShutdownDrainsStream(t *testing.T) {
	fl := trace.NewFlight(64)
	fl.Record(trace.Event{At: 5, Kind: trace.KindIngress, FlowID: 3, Seq: 9})
	srv := NewServer(nil, fl)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	resp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatal(err)
	}
	srv.PublishEvents()
	streamed := make(chan error, 1)
	go func() {
		_, cerr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		streamed <- cerr
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	select {
	case err := <-streamed:
		if err != nil {
			t.Fatalf("in-flight stream did not drain cleanly: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream still open after Shutdown returned")
	}
	select {
	case err := <-served:
		if err != http.ErrServerClosed {
			t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	if resp, err := http.Get(base + "/healthz"); err == nil {
		resp.Body.Close()
		t.Fatal("listener still accepting connections after Shutdown")
	}
}

// TestListenHoldDrainsOnSignal is the lifecycle the three binaries
// share: Listen serves on its own goroutine, a route mounted with Handle
// and the pprof subtree answer beside the introspection set, and one
// signal on the channel handed to Hold drains an in-flight /events
// stream, stops the listener and returns nil.
func TestListenHoldDrainsOnSignal(t *testing.T) {
	srv := NewServer(nil, trace.NewFlight(8))
	srv.Handle("/v1/ping", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "pong") })
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr
	for path, want := range map[string]string{"/v1/ping": "pong", "/debug/pprof/cmdline": "obs.test", "/flows": "[]"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(string(body), want) {
			t.Fatalf("%s = %d %q, want 200 containing %q", path, resp.StatusCode, body, want)
		}
	}
	if code, _ := get(t, srv.Handler(), "/metrics"); code != 404 {
		t.Fatalf("/metrics = %d without MountPublished, want 404", code)
	}
	stream, err := http.Get(base + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()

	sig := make(chan os.Signal, 1)
	held := make(chan error, 1)
	go func() { held <- srv.Hold("test", sig, 5*time.Second) }()
	select {
	case err := <-held:
		t.Fatalf("Hold returned %v before any signal", err)
	case <-time.After(50 * time.Millisecond):
	}
	sig <- syscall.SIGTERM
	select {
	case err := <-held:
		if err != nil {
			t.Fatalf("Hold = %v after a clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Hold did not return after the signal")
	}
	if _, err := io.Copy(io.Discard, stream.Body); err != nil {
		t.Fatalf("in-flight stream did not drain cleanly: %v", err)
	}
	select {
	case <-srv.Closing():
	default:
		t.Fatal("Closing() still open after the drain")
	}
	if resp, err := http.Get(base + "/flows"); err == nil {
		resp.Body.Close()
		t.Fatal("listener still accepting connections after Hold returned")
	}
}

// TestHoldReturnsServeFailure: a Serve that dies on its own (here: its
// listener is closed underneath it) ends the hold with that error
// instead of waiting for a signal that may never come.
func TestHoldReturnsServeFailure(t *testing.T) {
	srv := NewServer(nil, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { srv.served <- srv.Serve(ln) }()
	ln.Close()
	err = srv.Hold("test", make(chan os.Signal), 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), "test: serve:") {
		t.Fatalf("Hold = %v, want the serve failure", err)
	}
}
