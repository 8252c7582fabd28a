// Package svc is the TSN-as-a-Service control plane: a long-running
// HTTP frontend over the paper's two core operations — derive a
// resource-efficient switch configuration from an application spec
// (POST /v1/derive), and transact a live reconfiguration against a
// managed running network (POST /v1/reconfig).
//
// The package is built as production robustness machinery around those
// two calls:
//
//   - per-request deadlines with context propagation into the
//     derivation cache and the commit queue;
//   - a bounded admission queue per request class with load shedding
//     (429 + Retry-After), shedding derivation before reconfiguration
//     and never aborting an in-flight commit;
//   - a singleflight + bounded-LRU derivation cache keyed by spec hash;
//   - a circuit breaker that trips on consecutive commit failures and
//     de-escalates when the watchdog reports the instance healthy;
//   - panic-recovery middleware that fails the request, never the
//     process;
//   - graceful drain: Shutdown stops the listener, waits for in-flight
//     requests, then stops the instance control loop.
//
// The service owns no HTTP server of its own: it mounts its routes on
// one obs.Server built over the managed instance's attribution and
// flight recorder, so the daemon also answers /flows, /events,
// /flightrec and /debug/pprof.
package svc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/obs"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

// Options configures NewService and NewInstance: which network the
// service manages and where, if anywhere, it keeps its durable state.
// Everything else about the control plane is fixed below.
type Options struct {
	// Workload selects the managed instance's network; a zero value
	// takes DefaultWorkload.
	Workload workload.Params
	// StateDir, when set, makes the control plane crash-consistent:
	// accepted reconfigurations journal through a WAL in this directory
	// and the instance replays them on startup (/readyz reports
	// "recovering" until the replay lands). Empty keeps the original
	// purely in-memory behavior.
	StateDir string
	// CheckpointEvery folds the journal into a checkpoint (rotating the
	// WAL) every n commits; zero takes DefaultCheckpointEvery. Only
	// meaningful with StateDir.
	CheckpointEvery int
	// recoverHold, when non-nil, stalls journal replay until the channel
	// closes — an in-package test hook for observing the recovering
	// window deterministically.
	recoverHold chan struct{}
}

// DefaultCheckpointEvery is the daemon's journal checkpoint interval.
const DefaultCheckpointEvery = 16

func (o *Options) defaults() {
	if o.Workload.Topology == "" {
		o.Workload = DefaultWorkload()
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = DefaultCheckpointEvery
	}
}

// The control plane's fixed limits.
const (
	// cacheSize bounds the derivation cache (entries).
	cacheSize = 512
	// deriveConcurrency/deriveQueue bound the derive class (running,
	// waiting). reconfigQueue bounds the reconfig wait queue
	// (concurrency is 1 — commits serialize).
	deriveConcurrency = 4
	deriveQueue       = 64
	reconfigQueue     = 16
	// deriveDeadline/reconfigDeadline are the default per-request
	// deadlines; the X-Request-Deadline header (a Go duration, e.g.
	// "500ms") overrides per request, capped at maxDeadline.
	deriveDeadline   = 2 * time.Second
	reconfigDeadline = 10 * time.Second
	// breakerThreshold consecutive commit failures trip the breaker;
	// breakerCooldown is the open→half-open delay.
	breakerThreshold = 3
	breakerCooldown  = 2 * time.Second
)

// maxDeadline caps client-requested deadlines.
const maxDeadline = 60 * time.Second

// maxBodyBytes bounds request bodies (a spec or a delta is tiny).
const maxBodyBytes = 1 << 20

// Service is the control plane: HTTP frontend, admission control,
// derivation cache, circuit breaker and the managed instance.
type Service struct {
	inst  *Instance
	cache *Cache
	adm   *Admission
	brk   *Breaker
	stats *stats
	srv   *obs.Server
}

// stats is the service-level telemetry: atomic cells written by any
// handler goroutine, folded into a registry snapshot at scrape time.
type stats struct {
	mu       sync.Mutex
	requests map[requestKey]*metrics.SyncCounter

	deadlineExceeded metrics.SyncCounter
	panics           metrics.SyncCounter
}

// requestKey is one tsn_svc_requests_total series. The code stays an
// int until a scrape formats it, so counting a request allocates nothing.
type requestKey struct {
	route string
	code  int
}

func newStats() *stats {
	return &stats{requests: make(map[requestKey]*metrics.SyncCounter)}
}

// request counts one finished request under its route and status code.
func (s *stats) request(route string, code int) {
	key := requestKey{route, code}
	s.mu.Lock()
	c, ok := s.requests[key]
	if !ok {
		c = &metrics.SyncCounter{}
		s.requests[key] = c
	}
	s.mu.Unlock()
	c.Inc()
}

// NewService builds the control plane and starts the managed instance.
// With Options.StateDir set it first opens the durable store and
// replays checkpoint + WAL tail; corrupt or mismatched state refuses to
// serve rather than serving a journal it cannot trust.
func NewService(opts Options) (*Service, error) {
	opts.defaults()
	brk := NewBreaker(breakerThreshold, breakerCooldown)
	// Watchdog recovery de-escalates the breaker: a healthy outcome
	// resets it; failures count only through handleReconfig's 500s.
	inst, err := NewInstance(opts, func(healthy bool) {
		if healthy && brk.State() != BreakerClosed {
			brk.Success()
		}
	})
	if err != nil {
		return nil, err
	}
	s := &Service{
		inst:  inst,
		cache: NewCache(cacheSize),
		adm:   NewAdmission(deriveConcurrency, deriveQueue, reconfigQueue),
		brk:   brk,
		stats: newStats(),
		// The introspection routes the server registers itself stay
		// outside route: its request writer hides http.Flusher (the
		// /events stream would stop flushing) and its deadline would cut
		// a stream or a 30 s CPU profile short.
		srv: inst.srv,
	}
	s.srv.Handle("/v1/derive", s.route("derive", deriveDeadline, s.handleDerive))
	s.srv.Handle("/v1/reconfig", s.route("reconfig", reconfigDeadline, s.handleReconfig))
	s.srv.Handle("/v1/config", s.route("config", 5*time.Second, s.handleConfig))
	s.srv.Handle("/v1/journal", s.route("journal", 5*time.Second, s.handleJournal))
	s.srv.Handle("/healthz", s.route("healthz", 5*time.Second, s.handleHealthz))
	s.srv.Handle("/readyz", s.route("readyz", 5*time.Second, s.handleReadyz))
	s.srv.Handle("/metrics", s.route("metrics", 5*time.Second, s.handleMetrics))
	return s, nil
}

// Instance exposes the managed instance (chaos campaigns arm faults on
// it in-process).
func (s *Service) Instance() *Instance { return s.inst }

// Breaker exposes the reconfiguration circuit breaker.
func (s *Service) Breaker() *Breaker { return s.brk }

// Admission exposes the admission queues.
func (s *Service) Admission() *Admission { return s.adm }

// Cache exposes the derivation cache.
func (s *Service) Cache() *Cache { return s.cache }

// Server exposes the HTTP server every route is mounted on (the daemon
// listens and holds through it).
func (s *Service) Server() *obs.Server { return s.srv }

// Handler returns the HTTP handler serving every endpoint.
func (s *Service) Handler() http.Handler { return s.srv.Handler() }

// Serve accepts connections on ln until Shutdown and always returns a
// non-nil error, http.ErrServerClosed after a clean Shutdown.
func (s *Service) Serve(ln net.Listener) error { return s.srv.Serve(ln) }

// Shutdown drains the service: the listener closes, in-flight requests
// get until ctx's deadline, then the instance control loop stops. Work
// accepted before the drain still resolves — the instance sentinel is
// FIFO-ordered behind queued commits. Both halves are idempotent.
func (s *Service) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	s.inst.Close()
	return err
}

// request is one routed request's ResponseWriter and context. As the
// writer it records the status code for request accounting. As the
// context it is the client's context with the route deadline at — but
// the deadline is armed (a context.WithDeadline and its runtime timer)
// only when something first calls Done, i.e. only when the request
// actually waits: a cache hit or a free admission slot never does.
// Until then Err reads the parent and the clock.
type request struct {
	http.ResponseWriter
	context.Context // the client's: Value, and the parent of the armed deadline
	code            int
	at              time.Time
	armed           atomic.Pointer[armedDeadline]
}

// armedDeadline is a request's deadline once something waits on it.
type armedDeadline struct {
	ctx    context.Context
	cancel context.CancelFunc
}

func (q *request) WriteHeader(code int) {
	q.code = code
	q.ResponseWriter.WriteHeader(code)
}

func (q *request) Deadline() (time.Time, bool) { return q.at, true }

// Done arms the deadline on first use. It is race-safe: the instance
// control loop may ask from its own goroutine while the handler waits.
func (q *request) Done() <-chan struct{} { return q.arm().Done() }

func (q *request) Err() error {
	if a := q.armed.Load(); a != nil {
		return a.ctx.Err()
	}
	if err := q.Context.Err(); err != nil {
		return err
	}
	if !time.Now().Before(q.at) {
		return context.DeadlineExceeded
	}
	return nil
}

func (q *request) arm() context.Context {
	if a := q.armed.Load(); a != nil {
		return a.ctx
	}
	ctx, cancel := context.WithDeadline(q.Context, q.at)
	if !q.armed.CompareAndSwap(nil, &armedDeadline{ctx, cancel}) {
		cancel() // another goroutine armed first; use its deadline
	}
	return q.armed.Load().ctx
}

// stop releases whatever the request armed.
func (q *request) stop() {
	if a := q.armed.Load(); a != nil {
		a.cancel()
	}
}

// route wraps a handler in the middleware stack: panic recovery
// outermost (a panicking request 500s, the process survives), then the
// per-request deadline, then request accounting — where every 504 is
// an exceeded deadline.
func (s *Service) route(name string, deadline time.Duration, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		d := deadline
		if hdr := r.Header.Get("X-Request-Deadline"); hdr != "" {
			if v, err := time.ParseDuration(hdr); err == nil && v > 0 {
				d = min(v, maxDeadline)
			}
		}
		q := &request{ResponseWriter: w, Context: r.Context(), code: http.StatusOK, at: time.Now().Add(d)}
		if at, ok := q.Context.Deadline(); ok && at.Before(q.at) {
			q.at = at
		}
		defer func() {
			q.stop()
			if p := recover(); p != nil {
				s.stats.panics.Inc()
				// The handler may have written nothing yet; best-effort
				// error body, never re-panic.
				writeError(q, http.StatusInternalServerError, fmt.Sprintf("internal panic: %v", p))
			}
			if q.code == http.StatusGatewayTimeout {
				s.stats.deadlineExceeded.Inc()
			}
			s.stats.request(name, q.code)
		}()
		h(q, r.WithContext(q))
	}
}

// Constant response header values, assigned to w.Header() without a
// per-response []string. The keys are already in canonical form.
var (
	headerJSON      = []string{"application/json"}
	headerCacheHit  = []string{"hit"}
	headerCacheMiss = []string{"miss"}
)

// writeJSON writes a 2xx JSON body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = headerJSON
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError writes the uniform error body.
func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header()["Content-Type"] = headerJSON
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: msg})
}

// refuse writes a refusal's status, Retry-After and error body.
func refuse(w http.ResponseWriter, r *Refusal) {
	if r.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(r.RetryAfter/time.Second)))
	}
	writeError(w, r.Code, r.Msg)
}

// admit takes a slot of q, or refuses the request — 429 with
// retryAfter when the queue sheds it, 504 when its deadline expires
// while it waits — and reports false.
func admit(w http.ResponseWriter, r *http.Request, q *ClassQueue, pressured bool, retryAfter time.Duration) (release func(), ok bool) {
	release, err := q.Acquire(r.Context(), pressured)
	switch {
	case err == nil:
		return release, true
	case errors.Is(err, ErrShed):
		refuse(w, &Refusal{Code: http.StatusTooManyRequests, Msg: "overloaded, retry later", RetryAfter: retryAfter})
	default:
		writeError(w, http.StatusGatewayTimeout, "deadline expired in admission queue")
	}
	return nil, false
}

// handleDerive serves POST /v1/derive: admission, spec normalization,
// then the singleflight cache. Cache-Control: no-cache recomputes and
// refreshes the entry (the coherence oracle's fresh path).
func (s *Service) handleDerive(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	release, ok := admit(w, r, s.adm.Derive, s.adm.Pressured(), time.Second)
	if !ok {
		return
	}
	defer release()

	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad spec: "+err.Error())
		return
	}
	if err := spec.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := spec.Hash()
	compute := func() ([]byte, error) { return deriveBody(key, spec) }

	var body []byte
	var cached bool
	// A deadline already past answers 504 before the cache is asked: a
	// hit or a free leader slot never waits, so nothing else would look.
	// Err reads the clock; it arms no timer.
	err := r.Context().Err()
	switch {
	case err != nil:
	case r.Header.Get("Cache-Control") == "no-cache":
		body, err = s.cache.Fresh(r.Context(), key, compute)
	default:
		body, cached, err = s.cache.Get(r.Context(), key, compute)
	}
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		writeError(w, http.StatusGatewayTimeout, "deadline expired during derivation")
		return
	default:
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	h := w.Header()
	h["Content-Type"] = headerJSON
	h["X-Spec-Hash"] = []string{key}
	if cached {
		h["X-Cache"] = headerCacheHit
	} else {
		h["X-Cache"] = headerCacheMiss
	}
	_, _ = w.Write(body)
}

// deriveBody computes the deterministic response body for a normalized
// spec: workload build (topology + flows + derivation + design) and a
// canonical JSON encoding.
func deriveBody(key string, spec Spec) ([]byte, error) {
	wl, err := workload.Build(spec.Params())
	if err != nil {
		return nil, err
	}
	resp := DeriveResponse{
		SpecHash:     key,
		Config:       wl.Der.Config,
		MaxOccupancy: wl.Der.Plan.MaxOccupancy,
		MemoryKb:     wl.Design.Report.TotalKb(),
	}
	resp.Memory = make([]MemoryItem, len(wl.Design.Report.Items)) // never empty: the required classes
	for i, it := range wl.Design.Report.Items {
		resp.Memory[i] = MemoryItem{Label: it.Name, Bits: it.Bits}
	}
	return json.Marshal(resp)
}

// handleReconfig serves POST /v1/reconfig: breaker, admission, then
// one serialized transaction against the managed instance. A 200 means
// committed and verified in force; anything else is a refusal, and the
// live configuration is exactly what it was — unless it is a 500: the
// engine itself broke its contract, and only that feeds the breaker.
func (s *Service) handleReconfig(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !s.brk.Allow() {
		refuse(w, &Refusal{Code: http.StatusServiceUnavailable,
			Msg: "circuit breaker open: recent commits failed", RetryAfter: s.brk.RetryAfter()})
		return
	}
	release, ok := admit(w, r, s.adm.Reconfig, false, 2*time.Second)
	if !ok {
		return
	}
	defer release()

	req, err := decodeDelta(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad delta: "+err.Error())
		return
	}
	if req.Empty() {
		writeError(w, http.StatusBadRequest, "empty delta: nothing to reconfigure")
		return
	}

	ack, err := s.inst.Reconfigure(r.Context(), req)
	if err != nil {
		// Declared here, not above: errors.As moves its target to the
		// heap, and an ack should not pay for that.
		var refusal *Refusal
		errors.As(err, &refusal)
		if refusal.Code == http.StatusInternalServerError {
			s.brk.Failure()
		}
		refuse(w, refusal)
		return
	}
	s.brk.Success()
	writeJSON(w, http.StatusOK, ack)
}

// handleConfig serves GET /v1/config: the network-wide configuration in
// force (each switch holds a table size minus its derived spare, see
// core.Design.Local). While journal replay is still running it is not
// yet known, so the endpoint refuses rather than answering stale.
func (s *Service) handleConfig(w http.ResponseWriter, _ *http.Request) {
	if s.inst.Recovering() {
		refuse(w, ErrRecovering)
		return
	}
	writeJSON(w, http.StatusOK, s.inst.LiveConfig())
}

// handleJournal serves GET /v1/journal: the committed-transaction
// journal (the accepted-then-lost oracle's ground truth).
func (s *Service) handleJournal(w http.ResponseWriter, _ *http.Request) {
	if s.inst.Recovering() {
		refuse(w, ErrRecovering)
		return
	}
	st := s.inst.Status()
	if st.Journal == nil {
		st.Journal = []JournalEntry{}
	}
	writeJSON(w, http.StatusOK, st.Journal)
}

// handleHealthz serves liveness + instance health: 200 while the
// process serves and the instance verifies clean, 503 once the
// watchdog degrades or a wedged commit left partial state.
func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	degraded, detail := s.inst.Health()
	body := map[string]any{
		"status":  "ok",
		"breaker": s.brk.State().String(),
	}
	code := http.StatusOK
	if degraded {
		body["status"] = "degraded"
		body["detail"] = detail
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

// handleReadyz serves readiness: ready to take traffic means journal
// replay has finished, the instance is healthy, the breaker is not
// open, and the reconfig queue has room. The recovering window gets its
// own distinct status so orchestrators and the crash campaign can tell
// "still replaying" from ordinary unreadiness.
func (s *Service) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.inst.Recovering() {
		body := map[string]any{
			"ready":   false,
			"status":  "recovering",
			"reasons": []string{"journal replay in progress"},
		}
		if err := s.inst.RecoverErr(); err != nil {
			body["reasons"] = []string{"journal replay failed: " + err.Error()}
		}
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	degraded, _ := s.inst.Health()
	reasons := []string{}
	if degraded {
		reasons = append(reasons, "instance degraded")
	}
	if s.brk.State() == BreakerOpen {
		reasons = append(reasons, "circuit breaker open")
	}
	if q := s.adm.Reconfig; q.Depth() >= q.MaxWait() && q.MaxWait() > 0 {
		reasons = append(reasons, "reconfig queue saturated")
	}
	select {
	case <-s.srv.Closing():
		reasons = append(reasons, "draining")
	default:
	}
	if len(reasons) > 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reasons": reasons})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// handleMetrics serves the Prometheus exposition: the service-level
// section first — it never touches the control loop and is what
// explains a stuck one — then the instance section, read through the
// loop and omitted if it does not answer within the request deadline.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.scrapeRegistry().Snapshot().WritePrometheus(w)
	snap, err := s.inst.MetricsSnapshot(r.Context())
	if err != nil {
		_, _ = fmt.Fprintf(w, "# instance metrics omitted: control loop busy: %v\n", err)
		return
	}
	_ = snap.WritePrometheus(w)
}

// Service metric names.
const (
	MetricRequests     = "tsn_svc_requests_total"
	MetricQueueDepth   = "tsn_svc_queue_depth"
	MetricQueueDepthHW = "tsn_svc_queue_depth_high_water"
	MetricShed         = "tsn_svc_shed_total"
	MetricBreakerState = "tsn_svc_breaker_state"
	MetricBreakerTrans = "tsn_svc_breaker_transitions_total"
	MetricCache        = "tsn_svc_derive_cache_total"
	MetricPanics       = "tsn_svc_panics_total"
	MetricDeadlines    = "tsn_svc_deadline_exceeded_total"
)

// scrapeRegistry folds the atomic service stats into a fresh registry.
// Built per scrape on one goroutine, so the registry's unsynchronized
// cells are never raced.
func (s *Service) scrapeRegistry() *metrics.Registry {
	reg := metrics.New()
	requests := reg.Counters(MetricRequests, "service requests finished, by route and status code", "route", "code")
	s.stats.mu.Lock()
	for k, c := range s.stats.requests {
		requests.With(metrics.Name(k.route), metrics.Int(k.code)).Add(c.Value())
	}
	s.stats.mu.Unlock()

	depth := reg.Gauges(MetricQueueDepth, "admission queue depth (waiting requests)", "class")
	depthHW := reg.Gauges(MetricQueueDepthHW, "admission queue depth high water", "class")
	shed := reg.Counters(MetricShed, "requests shed by admission control, by class and reason", "class", "reason")
	for _, q := range []*ClassQueue{s.adm.Derive, s.adm.Reconfig} {
		class := metrics.Name(q.name)
		depth.With(class).Set(q.Waiting.Value())
		depthHW.With(class).Set(q.DepthHW.Value())
		shed.With(class, metrics.Name("queue-full")).Add(q.ShedFull.Value())
		shed.With(class, metrics.Name("pressure")).Add(q.ShedPressure.Value())
		shed.With(class, metrics.Name("deadline")).Add(q.ShedDeadline.Value())
	}

	reg.Gauges(MetricBreakerState, "circuit breaker state (0 closed, 1 open, 2 half-open)").With().Set(int64(s.brk.State()))
	trans := reg.Counters(MetricBreakerTrans, "circuit breaker transitions, by target state", "to")
	trans.With(metrics.Name("open")).Add(s.brk.TransToOpen.Value())
	trans.With(metrics.Name("half-open")).Add(s.brk.TransToHalfOpen.Value())
	trans.With(metrics.Name("closed")).Add(s.brk.TransToClosed.Value())

	cache := reg.Counters(MetricCache, "derivation cache lookups, by outcome", "outcome")
	cache.With(metrics.Name("hit")).Add(s.cache.Hits.Value())
	cache.With(metrics.Name("miss")).Add(s.cache.Misses.Value())
	cache.With(metrics.Name("bypass")).Add(s.cache.Bypasses.Value())
	cache.With(metrics.Name("eviction")).Add(s.cache.Evictions.Value())

	reg.Counters(MetricPanics, "handler panics recovered").With().Add(s.stats.panics.Value())
	reg.Counters(MetricDeadlines, "requests that exceeded their deadline").With().Add(s.stats.deadlineExceeded.Value())
	return reg
}
