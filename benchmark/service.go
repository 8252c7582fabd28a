package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/svc"
)

// stateRoot is where durable-service state dirs are created: inside
// the working directory (the checkout), never in a source directory.
const stateRoot = ".bench_build"

// liveService is one tsnserve-equivalent: svc.NewService behind a real
// loopback listener, plus the keep-alive client the generator uses.
// Generator and server share the process and its cores — stated in the
// README, not hidden.
type liveService struct {
	svc      *svc.Service
	base     string
	client   *http.Client
	serveErr chan error
}

// startService builds the service, binds 127.0.0.1:0 and waits for the
// first /readyz 200. The returned duration is the user's set-up time:
// NewService → ready.
func startService(opts svc.Options, clients int) (*liveService, time.Duration, error) {
	t0 := time.Now()
	s, err := svc.NewService(opts)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	ls := &liveService{
		svc:  s,
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns: clients, MaxIdleConnsPerHost: clients, DisableCompression: true,
		}},
		serveErr: make(chan error, 1),
	}
	go func() { ls.serveErr <- s.Serve(ln) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, _, _, err := ls.do(http.MethodGet, "/readyz", nil)
		if err == nil && code == http.StatusOK {
			return ls, time.Since(t0), nil
		}
		if time.Now().After(deadline) {
			ls.stop()
			return nil, 0, fmt.Errorf("service never became ready (last: %d %v)", code, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop drains the service and waits for its goroutines: Shutdown
// closes the listener and the instance loop, Serve then returns.
func (ls *liveService) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	_ = ls.svc.Shutdown(ctx) // a drain timeout force-closes; nothing to add
	<-ls.serveErr
	ls.client.CloseIdleConnections()
}

// do issues one request and reads the whole body.
func (ls *liveService) do(method, path string, body []byte) (code int, hdr http.Header, resp []byte, err error) {
	req, err := http.NewRequest(method, ls.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	r, err := ls.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer r.Body.Close()
	resp, err = io.ReadAll(r.Body)
	return r.StatusCode, r.Header, resp, err
}

// get fetches path and insists on a 200.
func (ls *liveService) get(path string) ([]byte, error) {
	code, _, body, err := ls.do(http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, code, bytes.TrimSpace(body))
	}
	return body, nil
}

// promSum adds up every sample of family name in a Prometheus text
// exposition whose label set contains all of labels (`k="v"` strings).
func promSum(text []byte, name string, labels ...string) float64 {
	var sum float64
lines:
	for _, line := range strings.Split(string(text), "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				continue lines
			}
		}
		v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64)
		if err == nil {
			sum += v
		}
	}
	return sum
}

// reply is what the generator keeps of one response.
type reply struct {
	code  int
	cache string // X-Cache
	body  []byte
	err   error
}

// closedLoop posts bodies[i] to path for every i, from `clients`
// goroutines that each wait for their reply before sending the next —
// a network has few orchestrators, and each waits. It returns the
// replies in request order and each request's latency in ms.
func closedLoop(ls *liveService, tr *Tracer, parent int, path string, bodies [][]byte, clients int) ([]reply, []float64) {
	replies := make([]reply, len(bodies))
	lat := make([]float64, len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(bodies) {
					return
				}
				id := tr.Start("POST "+path, parent)
				t0 := time.Now()
				code, hdr, body, err := ls.do(http.MethodPost, path, bodies[i])
				lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
				tr.End(id)
				replies[i] = reply{code: code, cache: hdr.Get("X-Cache"), body: body, err: err}
			}
		}()
	}
	wg.Wait()
	return replies, lat
}

// --- derive workloads ---

// Request counts per round: the fixed work. derive-cold posts more
// distinct specs than the cache has slots, so it also evicts;
// derive-hot cycles its warmed set hotRequests/hotSpecs times.
const (
	coldRequests = 640 // the default cache holds 512
	hotSpecs     = 64
	hotRequests  = 16384
)

// deriveSpecs generates n distinct, valid derive specs. The shapes walk
// a fixed grid — topology × switches 7–14 × 20 ts_flows steps 64–440,
// hops alternating 2/3 — so every seed does the same amount of work
// per round; the seed shuffles the order and gives each spec its own
// Seed (which is part of the cache key).
func deriveSpecs(seed uint64, n int) []svc.Spec {
	rng := rand.New(rand.NewSource(int64(seed)))
	topos := []string{"ring", "linear", "star", "tree"}
	out := make([]svc.Spec, n)
	blocks := (n + 31) / 32 // one block = every topology × switch count
	for i := range out {
		out[i] = svc.Spec{
			Topology: topos[i%4],
			Switches: 7 + i/4%8,
			TSFlows:  64 + i/32*20/blocks*376/19,
			Hops:     2 + i%2,
			Seed:     uint64(rng.Int63()),
		}
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func marshalAll[T any](xs []T) [][]byte {
	out := make([][]byte, len(xs))
	for i, x := range xs {
		out[i], _ = json.Marshal(x) // plain structs of ints and strings
	}
	return out
}

// bodiesDigest fingerprints the response bodies in request order.
func bodiesDigest(bodies [][]byte) string {
	h := sha256.New()
	for _, b := range bodies {
		h.Write(b)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// deriveRound returns the round function of derive-cold (hot=false) or
// derive-hot. Every round starts a fresh service, so every round sees
// the same cold cache and the same requests.
func deriveRound(seed uint64, hot bool, clients int) roundFunc {
	var warm, timed [][]byte
	if hot {
		warm = marshalAll(deriveSpecs(seed, hotSpecs))
		timed = make([][]byte, hotRequests)
		for i := range timed {
			timed[i] = warm[i%len(warm)]
		}
	} else {
		timed = marshalAll(deriveSpecs(seed, coldRequests))
	}
	return func(tr *Tracer, parent int) (*roundSample, error) {
		s := &roundSample{counts: make(map[string]float64)}
		t0 := time.Now()
		id := tr.Start("svc.NewService+ready", parent)
		ls, _, err := startService(svc.Options{}, clients)
		tr.End(id)
		if err != nil {
			return nil, err
		}
		s.keep, s.release = ls, ls.stop
		// Warming is part of derive-hot's set-up: its users pay the
		// first miss of every spec before the steady state begins.
		var want [][]byte
		if hot {
			id := tr.Start("warm", parent)
			replies, _ := closedLoop(ls, tr, id, "/v1/derive", warm, clients)
			tr.End(id)
			for i, r := range replies {
				if r.err != nil || r.code != http.StatusOK || r.cache != "miss" {
					ls.stop()
					return nil, fmt.Errorf("warming spec %d: code %d cache %q err %v", i, r.code, r.cache, r.err)
				}
				want = append(want, r.body)
			}
		}
		s.setupS = time.Since(t0).Seconds()

		var replies []reply
		s.timed(func() {
			id := tr.Start("requests", parent)
			replies, s.latMs = closedLoop(ls, tr, id, "/v1/derive", timed, clients)
			tr.End(id)
		})

		id = tr.Start("check", parent)
		defer tr.End(id)
		wantCache := "miss"
		if hot {
			wantCache = "hit"
		}
		got := make([][]byte, len(replies))
		hits := 0
		for i, r := range replies {
			s.attempted++
			got[i] = r.body
			switch r.code {
			case http.StatusTooManyRequests:
				s.counts["svc.shed"]++
			case http.StatusGatewayTimeout:
				s.counts["svc.timeouts"]++
			}
			if r.cache == "hit" {
				hits++
			}
			ok := r.err == nil && r.code/100 == 2 && r.cache == wantCache
			if ok && hot {
				ok = bytes.Equal(r.body, want[i%len(want)])
			}
			if !ok {
				s.failed++
				if len(s.problems) < 3 {
					s.problems = append(s.problems, fmt.Sprintf(
						"request %d: code %d X-Cache %q (want %q) err %v", i, r.code, r.cache, wantCache, r.err))
				}
				continue
			}
			s.ops++
		}
		s.counts["svc.cache_hit_ratio"] = float64(hits) / float64(len(replies))
		if !hot {
			// Cold vs hit: the most recent specs are still resident, so
			// posting them again must hit and return the same bytes.
			for i := len(timed) - 8; i < len(timed); i++ {
				code, hdr, body, err := ls.do(http.MethodPost, "/v1/derive", timed[i])
				if err != nil || code != http.StatusOK || hdr.Get("X-Cache") != "hit" || !bytes.Equal(body, got[i]) {
					s.problems = append(s.problems, fmt.Sprintf(
						"spec %d repeated: code %d X-Cache %q, body equal=%v, err %v",
						i, code, hdr.Get("X-Cache"), bytes.Equal(body, got[i]), err))
				}
			}
		}
		s.digest = bodiesDigest(got)
		if s.counts["svc.admission_queue_hw"], _, err = svcCounts(ls, "derive"); err != nil {
			ls.stop()
			return nil, err
		}
		return s, nil
	}
}

// svcCounts reads the service-side boundary counts from /metrics: the
// admission queue's high water for the request class, and how many
// simulator events the managed instance has executed.
func svcCounts(ls *liveService, class string) (queueHW, simEvents float64, err error) {
	text, err := ls.get("/metrics")
	if err != nil {
		return 0, 0, err
	}
	return promSum(text, svc.MetricQueueDepthHW, `class="`+class+`"`), promSum(text, "tsn_sim_events_total"), nil
}

// --- reconfig ---

// reconfigCommits is N: the fixed request count of a reconfig round.
// N ≡ 15 mod 16, so on a durable service the WAL tail after the last
// ack is the longest one the default CheckpointEvery allows, and
// recovery replays the most records it ever has to.
const reconfigCommits = 511

// reconfigDeltas is the fixed request sequence: meter_size alternates
// grow/shrink, unicast_size cycles three sizes, so every request
// changes the live configuration.
func reconfigDeltas(n int) []svc.ReconfigRequest {
	out := make([]svc.ReconfigRequest, n)
	for i := range out {
		out[i] = svc.ReconfigRequest{
			MeterSize:   []int{128, 64}[i%2],
			UnicastSize: []int{384, 512, 256}[i%3],
		}
	}
	return out
}

// copyDir file-copies every regular file of src into a fresh dst: the
// image kill -9 would leave, taken while the service is still up.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// dirFiles returns the size of every file in dir by name.
func dirFiles(dir string) (map[string]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(entries))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		out[e.Name()] = info.Size()
	}
	return out, nil
}

// reconfigRound returns the round function of the reconfig workload.
// The seed picks the managed instance's workload seed; the delta
// sequence is fixed, because lat_p99 and recovery_ms both grow with N.
//
// The timed and bounded rounds run the in-memory service. durable
// rounds — same requests, a StateDir, then a crash image and a recovery
// — run in the traced run only and feed the wal.* per-layer metrics: a
// commit rate that waits on the host's disk moves with the host's other
// tenants twice as far as anything else here, so it cannot carry a
// bound (README, "Why the WAL numbers are per-layer").
func reconfigRound(seed uint64, durable bool) roundFunc {
	bodies := marshalAll(reconfigDeltas(reconfigCommits))
	wl := svc.DefaultWorkload()
	wl.Seed = seed
	return func(tr *Tracer, parent int) (*roundSample, error) {
		s := &roundSample{counts: make(map[string]float64)}
		opts := svc.Options{Workload: wl}
		cleanup := func() {}
		var live, image string
		if durable {
			if err := os.MkdirAll(stateRoot, 0o755); err != nil {
				return nil, err
			}
			root, err := os.MkdirTemp(stateRoot, "state-")
			if err != nil {
				return nil, err
			}
			live, image = filepath.Join(root, "live"), filepath.Join(root, "image")
			cleanup = func() { _ = os.RemoveAll(root) } // best effort; the dir is gitignored scratch
			opts.StateDir = live
		}

		id := tr.Start("svc.NewService+ready", parent)
		ls, setup, err := startService(opts, 1)
		tr.End(id)
		if err != nil {
			cleanup()
			return nil, err
		}
		s.setupS = setup.Seconds()
		stopAll := func() { ls.stop(); cleanup() }
		s.keep, s.release = ls, stopAll

		var replies []reply
		s.timed(func() {
			id := tr.Start("requests", parent)
			replies, s.latMs = closedLoop(ls, tr, id, "/v1/reconfig", bodies, 1)
			tr.End(id)
		})

		id = tr.Start("check", parent)
		defer tr.End(id)
		fail := func(format string, args ...any) {
			if len(s.problems) < 6 {
				s.problems = append(s.problems, fmt.Sprintf(format, args...))
			}
		}
		for i, r := range replies {
			s.attempted++
			var ack svc.ReconfigResponse
			if r.err != nil || r.code != http.StatusOK || json.Unmarshal(r.body, &ack) != nil || ack.Seq != uint64(i)+1 {
				s.failed++
				fail("reconfig %d: code %d seq %d err %v", i, r.code, ack.Seq, r.err)
				continue
			}
			s.ops++
		}
		journal, err := ls.get("/v1/journal")
		if err != nil {
			stopAll()
			return nil, err
		}
		config, err := ls.get("/v1/config")
		if err != nil {
			stopAll()
			return nil, err
		}
		var entries []svc.JournalEntry
		var cfg svc.ConfigJSON
		if json.Unmarshal(journal, &entries) != nil || json.Unmarshal(config, &cfg) != nil {
			fail("journal or config does not decode")
		} else if len(entries) != len(bodies) || entries[len(entries)-1].Config != cfg {
			fail("journal has %d entries (want %d) or its tail differs from /v1/config", len(entries), len(bodies))
		}
		s.digest = bodiesDigest([][]byte{journal, config})
		var simEvents float64
		if s.counts["svc.admission_queue_hw"], simEvents, err = svcCounts(ls, "reconfig"); err != nil {
			stopAll()
			return nil, err
		}
		s.counts["reconfig.sim_events_per_commit"] = simEvents / float64(len(bodies))
		if !durable {
			return s, nil
		}

		// The crash image: copied after the last ack, before Shutdown.
		files, err := dirFiles(live)
		if err == nil {
			err = copyDir(live, image)
		}
		if err != nil {
			stopAll()
			return nil, err
		}
		for name, size := range files {
			switch {
			case strings.HasPrefix(name, "wal-"):
				// The tail holds the commits since the last checkpoint.
				s.counts["wal.bytes_per_commit"] = float64(size) / float64(len(bodies)%16)
			case strings.HasPrefix(name, "checkpoint-"):
				s.counts["wal.checkpoint_bytes"] = float64(size)
			}
		}

		id2 := tr.Start("recovery: svc.NewService+ready", parent)
		rec, recovery, err := startService(svc.Options{Workload: wl, StateDir: image}, 1)
		tr.End(id2)
		if err != nil {
			stopAll()
			return nil, fmt.Errorf("recovery: %w", err)
		}
		s.recoveryMs = float64(recovery.Nanoseconds()) / 1e6
		after, err := rec.get("/v1/journal")
		rec.stop()
		if err != nil {
			stopAll()
			return nil, fmt.Errorf("recovery: %w", err)
		}
		if !bytes.Equal(after, journal) {
			fail("journal served after recovery differs from the one before the crash image")
		}
		return s, nil
	}
}
