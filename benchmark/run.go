package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// roundSample is what one fixed-work round of any workload measured.
// A round is the whole user-visible job: set-up from generated inputs
// to ready, the timed section (Net.Run or the closed request loop),
// then the correctness checks.
type roundSample struct {
	setupS float64 // generated inputs → ready
	wallS  float64 // timed section, wall
	cpuS   float64 // timed section, process CPU (user+sys)
	ops    uint64  // frames delivered / 2xx responses

	attempted, failed uint64 // failed-share accounting, see README

	mallocs, allocBytes uint64 // runtime.MemStats deltas over the timed section

	latMs      []float64 // client-observed latencies (service workloads)
	recoveryMs float64   // durable reconfig rounds only

	// counts are exact boundary counts read from the run's registry,
	// /metrics and the state dir: they repeat exactly for a fixed seed.
	counts map[string]float64
	// digest fingerprints the round's outputs; every round of one run
	// must produce the same one.
	digest string
	// problems lists every correctness check this round failed.
	problems []string

	// keep pins the Net/Service for the live-heap reading; release
	// lets go of it (and shuts a service down).
	keep    any
	release func()
}

// roundCol extracts one figure from every round.
func roundCol(rounds []*roundSample, f func(*roundSample) float64) []float64 {
	xs := make([]float64, len(rounds))
	for i, s := range rounds {
		xs[i] = f(s)
	}
	return xs
}

// drop releases the round's Net/Service.
func (s *roundSample) drop() {
	s.release()
	s.keep, s.release = nil, nil
}

// A roundFunc runs one round; parent is the round's span.
type roundFunc func(tr *Tracer, parent int) (*roundSample, error)

// Result is one workload run, traced or untraced.
type Result struct {
	Workload  string
	Traced    bool
	Seed      uint64
	Procs     int // GOMAXPROCS the run used
	Rounds    int
	Attempted uint64
	Failed    uint64
	Problems  []string
	// Metrics holds the end-to-end metrics of an untraced run or the
	// per-layer metrics of a traced one, by name.
	Metrics map[string]float64
	// Dists carries quartiles and round counts for the timing metrics.
	Dists map[string]Dist
	// LatSamples is the pooled latency sample count (service).
	LatSamples int
	// TailQ/TailMs are the highest percentile the sample supports.
	TailQ, TailMs float64
	Digest        string
	Spans         []Span
	SpanFile      string
}

func (r *Result) Correct() bool { return len(r.Problems) == 0 && r.Failed == 0 }

// minRounds is the fewest timed rounds a run reports a median over.
const minRounds = 5

// memCounters reads the allocation counters. ReadMemStats stops the
// world, so it is only ever called outside a timed section.
func memCounters() (mallocs, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// timed runs fn as a round's timed section: a GC first so every round
// starts from the same heap, then wall, CPU and allocation deltas
// around the call.
func (s *roundSample) timed(fn func()) {
	runtime.GC()
	m0, b0 := memCounters()
	c0 := cpuSeconds()
	t0 := time.Now()
	fn()
	s.wallS = time.Since(t0).Seconds()
	s.cpuS = cpuSeconds() - c0
	m1, b1 := memCounters()
	s.mallocs, s.allocBytes = m1-m0, b1-b0
}

// settledHeap is HeapAlloc once collecting stops shrinking it: a
// stopped service's connection goroutines let go of it a few
// milliseconds after Shutdown returns, and sync.Pool contents survive
// one cycle.
func settledHeap() uint64 {
	var m runtime.MemStats
	prev := uint64(math.MaxUint64)
	for i := 0; i < 6; i++ {
		runtime.GC()
		runtime.ReadMemStats(&m)
		if m.HeapAlloc >= prev-prev/200 {
			break
		}
		prev = m.HeapAlloc
		time.Sleep(10 * time.Millisecond)
	}
	return m.HeapAlloc
}

// liveHeapMB is the heap the round's Net/Service pins: the settled
// heap with it referenced, minus the settled heap after releasing it.
// The difference cancels what the harness itself holds (latency
// samples, spans), which grows with the round count.
func liveHeapMB(s *roundSample) float64 {
	with := settledHeap()
	runtime.KeepAlive(s.keep)
	s.drop()
	without := settledHeap()
	if with < without {
		return 0
	}
	return float64(with-without) / (1 << 20)
}

// runRounds drives one workload: a discarded warm-up round, then timed
// rounds of fixed work until the budget is spent (at least minRounds),
// then the live-heap reading on the last round's Net/Service.
func runRounds(name string, seed uint64, budget time.Duration, tr *Tracer, round roundFunc) (*Result, []*roundSample, error) {
	res := &Result{Workload: name, Traced: tr != nil, Seed: seed,
		Metrics: make(map[string]float64), Dists: make(map[string]Dist)}
	do := func(label string) (*roundSample, error) {
		id := tr.Start(label, 0)
		s, err := round(tr, id)
		tr.End(id)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", name, label, err)
		}
		return s, nil
	}
	warm, err := do("warmup")
	if err != nil {
		return nil, nil, err
	}
	warm.drop()
	res.Digest = warm.digest
	res.Problems = append(res.Problems, warm.problems...)

	var rounds []*roundSample
	start := time.Now()
	for len(rounds) < minRounds || time.Since(start) < budget {
		// Only the last round's Net/Service stays alive, for the
		// live-heap reading.
		if n := len(rounds); n > 0 {
			rounds[n-1].drop()
		}
		s, err := do("round")
		if err != nil {
			return nil, nil, err
		}
		rounds = append(rounds, s)
		res.Attempted += s.attempted
		res.Failed += s.failed
		res.Problems = append(res.Problems, s.problems...)
		if s.digest != res.Digest {
			res.Problems = append(res.Problems, fmt.Sprintf(
				"round %d output digest %.12s differs from warm-up %.12s", len(rounds), s.digest, res.Digest))
		}
	}
	res.Rounds = len(rounds)
	heap := liveHeapMB(rounds[len(rounds)-1])

	per := func(name string, f func(*roundSample) float64) { res.Dists[name] = distOf(roundCol(rounds, f)) }
	per("setup_s", func(s *roundSample) float64 { return s.setupS })
	per("ops_per_s", func(s *roundSample) float64 { return float64(s.ops) / s.wallS })
	per("allocs_per_op", func(s *roundSample) float64 { return float64(s.mallocs) / float64(s.ops) })
	per("alloc_bytes_per_op", func(s *roundSample) float64 { return float64(s.allocBytes) / float64(s.ops) })
	per("run_s", func(s *roundSample) float64 { return s.wallS })
	per("cpu_per_wall", func(s *roundSample) float64 { return s.cpuS / s.wallS })
	for _, m := range endToEnd {
		if d, ok := res.Dists[m.Name]; ok {
			res.Metrics[m.Name] = d.Best(m.higherIsBetter())
		}
	}
	res.Metrics["live_heap_mb"] = heap

	var lat []float64
	for _, s := range rounds {
		lat = append(lat, s.latMs...)
	}
	sort.Float64s(lat)
	res.LatSamples = len(lat)
	if len(lat) > 0 {
		res.Metrics["lat_p50_ms"], _ = percentile(lat, 0.50)
		if v, ok := percentile(lat, 0.99); ok {
			res.Metrics["lat_p99_ms"] = v
		}
		res.TailQ, res.TailMs, _ = highestPercentile(lat)
	}
	res.Spans = tr.Spans()
	return res, rounds, nil
}
