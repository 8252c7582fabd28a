package obs

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/analyzer"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/trace"
)

// HealthReport is what /healthz serves: the watchdog's verdict and
// totals as of one publication.
type HealthReport struct {
	Degraded           bool
	Detail             string
	Audits, Violations uint64
}

// Server is the one HTTP server in the repository. It always serves the
// introspection set — /flows and /flows/{id} latency breakdowns from the
// last Publish, an NDJSON /events stream of the flight recorder as of
// the last PublishEvents, /flightrec miss dumps, /debug/pprof — and owns
// the listener (Listen or Serve, Hold, Shutdown). The rest is mounted
// with Handle: MountPublished, or svc.Service's API.
type Server struct {
	mux    *http.ServeMux
	pub    atomic.Pointer[publication]
	attr   *Attribution
	flight *trace.Flight

	// events is /events' copy of flight, made by FeedEvents or by the
	// first client, which then calls onSubscribe.
	evMu        sync.Mutex
	events      *trace.Flight
	onSubscribe func()
	// httpSrv is built eagerly so Serve and Shutdown never race on its
	// existence; served is the result of the Serve that Listen started.
	httpSrv *http.Server
	served  chan error
	// closing is closed by Shutdown so streaming handlers (/events)
	// terminate promptly — net/http's graceful Shutdown waits for
	// in-flight requests but does not cancel their contexts, and an
	// NDJSON stream would otherwise hold the drain open forever.
	closing   chan struct{}
	closeOnce sync.Once
}

// publication is what the simulation thread hands the HTTP goroutines:
// a registry snapshot, the delivered flows' breakdowns, by flow ID, and
// the health report (nil: nothing watches the network).
type publication struct {
	snap   metrics.Snapshot
	flows  []flowJSON
	health *HealthReport
}

// NewServer wires the introspection set. Either argument may be nil;
// the corresponding endpoints degrade gracefully (404/empty).
func NewServer(attr *Attribution, flight *trace.Flight) *Server {
	s := &Server{
		mux: http.NewServeMux(), attr: attr, flight: flight,
		served: make(chan error, 1), closing: make(chan struct{}),
	}
	s.httpSrv = &http.Server{Handler: s.mux}
	s.pub.Store(&publication{flows: []flowJSON{}})
	s.Handle("/flows", s.handleFlows)
	s.Handle("/flows/", s.handleFlow)
	s.Handle("/events", s.handleEvents)
	s.Handle("/flightrec", s.handleFlightrec)
	// Importing net/http/pprof registers its handlers on the default mux.
	s.Handle("/debug/pprof/", http.DefaultServeMux.ServeHTTP)
	return s
}

// Handle mounts one more route; call it before serving.
func (s *Server) Handle(pattern string, h http.HandlerFunc) { s.mux.HandleFunc(pattern, h) }

// MountPublished mounts the simulation binaries' set: /metrics[.json]
// and /healthz, each from the last Publish.
func (s *Server) MountPublished() {
	s.Handle("/metrics", s.published("text/plain; version=0.0.4; charset=utf-8", metrics.Snapshot.WritePrometheus))
	s.Handle("/metrics.json", s.published("application/json", metrics.Snapshot.WriteJSON))
	s.Handle("/healthz", s.healthz)
}

// published serves the last published snapshot in one export format.
func (s *Server) published(ctype string, write func(metrics.Snapshot, io.Writer) error) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ctype)
		_ = write(s.pub.Load().snap, w)
	}
}

// Publish stores a registry snapshot for /metrics, a copy of coll's
// delivered rows for /flows and health for /healthz, and PublishEvents;
// coll and health may be nil. Call it from the simulation thread
// (periodically, and once after the run): the handlers only ever read
// published copies, never the registry's cells, the collector's rows,
// the watchdog or the recorder's ring.
func (s *Server) Publish(snap metrics.Snapshot, coll *analyzer.Collector, health *HealthReport) {
	p := &publication{snap: snap, flows: []flowJSON{}, health: health}
	if coll != nil {
		for _, st := range coll.Delivered() {
			p.flows = append(p.flows, toFlowJSON(st))
		}
	}
	s.pub.Store(p)
	s.PublishEvents()
}

// FeedEvents makes /events' copy of a non-nil recorder before serving,
// so a client that arrives after the writer's last publication reads it.
func (s *Server) FeedEvents() { s.events = trace.NewFlight(s.flight.Cap()) }

// OnSubscribe sets what the first /events client calls after making the
// copy: fn arranges a PublishEvents on the writer and does not wait.
func (s *Server) OnSubscribe(fn func()) { s.onSubscribe = fn }

// PublishEvents copies the flight recorder's new records into /events'
// ring, if there is one. Call it on the recorder's writer goroutine.
func (s *Server) PublishEvents() {
	s.evMu.Lock()
	if s.events != nil {
		s.events.CopyFrom(s.flight)
	}
	s.evMu.Unlock()
}

// Handler returns the HTTP handler serving every endpoint.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Shutdown. Like http.Serve it
// always returns a non-nil error (http.ErrServerClosed after a clean
// Shutdown).
func (s *Server) Serve(ln net.Listener) error { return s.httpSrv.Serve(ln) }

// Listen binds addr, serves it on a goroutine until Shutdown and
// returns the bound address; Hold waits on that goroutine.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() { s.served <- s.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Hold blocks a process that called Listen until sig delivers (nil: its
// own SIGINT/SIGTERM), then drains within the timeout. A drain that had
// to force-close stuck clients is reported under who, not returned: the
// server is down either way. The only error is a Serve that failed.
func (s *Server) Hold(who string, sig <-chan os.Signal, drain time.Duration) error {
	if sig == nil {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		sig = ch
	}
	select {
	case got := <-sig:
		fmt.Printf("%s: %v — draining\n", who, got)
	case err := <-s.served:
		return fmt.Errorf("%s: serve: %w", who, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Printf("%s: drain timed out, connections force-closed (%v)\n", who, err)
	}
	<-s.served
	return nil
}

// Closing is closed when Shutdown begins.
func (s *Server) Closing() <-chan struct{} { return s.closing }

// Shutdown drains the server: the listener closes immediately, idle
// connections drop, streaming endpoints are told to finish, and
// in-flight requests get until ctx's deadline to complete. If the
// deadline expires first, remaining connections are force-closed and
// the context's error is returned — the server is down either way.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() { close(s.closing) })
	if err := s.httpSrv.Shutdown(ctx); err != nil {
		_ = s.httpSrv.Close()
		return err
	}
	return nil
}

// healthz answers /healthz from the last publication's report; without
// one it is always ok.
func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	h := s.pub.Load().health
	if h == nil {
		fmt.Fprintln(w, `{"status":"ok"}`)
		return
	}
	status := "ok"
	code := http.StatusOK
	if h.Degraded {
		status = "degraded"
		code = http.StatusServiceUnavailable
	}
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status": status, "detail": h.Detail,
		"audits": h.Audits, "violations": h.Violations,
	})
}

// flowJSON is the wire form of one flow's latency breakdown.
type flowJSON struct {
	Flow    uint32              `json:"flow"`
	Class   string              `json:"class"`
	Count   uint64              `json:"count"`
	Misses  uint64              `json:"deadline_misses"`
	MeanNs  sim.Time            `json:"mean_ns"`
	Sum     analyzer.Components `json:"sum"`
	Worst   analyzer.Components `json:"worst"`
	WorstNs sim.Time            `json:"worst_ns"`
	WSeq    uint32              `json:"worst_seq"`
	WAt     sim.Time            `json:"worst_at_ns"`
}

// toFlowJSON renders a delivered flow's row; mean_ns is the integer mean
// of the component sum.
func toFlowJSON(st *analyzer.FlowStats) flowJSON {
	return flowJSON{
		Flow: st.FlowID, Class: st.Class.String(), Count: st.Received,
		Misses: st.DeadlineMisses, MeanNs: st.Sum.Total() / sim.Time(st.Received), Sum: st.Sum,
		Worst: st.Worst, WorstNs: st.MaxLat, WSeq: st.WorstSeq, WAt: st.WorstAt,
	}
}

func (s *Server) handleFlows(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.pub.Load().flows)
}

func (s *Server) handleFlow(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/flows/")
	id, err := strconv.ParseUint(idStr, 10, 32)
	if err != nil {
		http.Error(w, "bad flow id", http.StatusBadRequest)
		return
	}
	flows := s.pub.Load().flows
	i, ok := slices.BinarySearchFunc(flows, uint32(id), func(fj flowJSON, id uint32) int { return cmp.Compare(fj.Flow, id) })
	if !ok {
		http.Error(w, "unknown flow", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(flows[i])
}

func (s *Server) handleFlightrec(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	miss, events := []MissDump{}, []EventDump{}
	if s.attr != nil {
		miss, events = s.attr.Dumps(), s.attr.EventDumps()
	}
	_ = json.NewEncoder(w).Encode(map[string]any{
		"deadline_miss": miss,
		"triggered":     events,
	})
}

// eventJSON is the wire form of one flight-recorder event.
type eventJSON struct {
	At     sim.Time `json:"at_ns"`
	Kind   string   `json:"kind"`
	Switch int      `json:"switch"`
	Port   int      `json:"port"`
	Queue  int      `json:"queue"`
	Flow   uint32   `json:"flow"`
	Seq    uint32   `json:"seq"`
	Detail string   `json:"detail,omitempty"`
}

// eventsPollInterval paces the NDJSON stream's ring polls.
const eventsPollInterval = 100 * time.Millisecond

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		http.Error(w, "flight recorder disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var cursor uint64
	buf := make([]trace.Event, 0, 256)
	s.evMu.Lock()
	first := s.events == nil
	if first {
		s.events = trace.NewFlight(s.flight.Cap())
	}
	s.evMu.Unlock()
	if first && s.onSubscribe != nil {
		s.onSubscribe()
	}
	ticker := time.NewTicker(eventsPollInterval)
	defer ticker.Stop()
	for {
		s.evMu.Lock()
		buf, cursor = s.events.Since(cursor, buf[:0])
		s.evMu.Unlock()
		for _, ev := range buf {
			if err := enc.Encode(eventJSON{
				At: ev.At, Kind: ev.Kind.String(),
				Switch: ev.Switch, Port: ev.Port, Queue: ev.Queue,
				Flow: ev.FlowID, Seq: ev.Seq, Detail: ev.Detail,
			}); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.closing:
			return
		case <-ticker.C:
		}
	}
}
