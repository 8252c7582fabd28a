package experiments

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
)

// The parallel sweep harness.
//
// Every experiment is an x-axis sweep whose points are self-contained
// build-and-run pairs: each point constructs its own sim.Engine,
// topology, flow set and network from (Params, index) alone, so points
// share no mutable state and can run on any OS thread. sweep fans the
// points out over a bounded worker pool and collects results back in
// sweep order, which makes the output — Series rows, CSV bytes,
// formatted tables — independent of worker count and completion order.
//
// Telemetry isolation: handle operations (Counter.Inc etc.) are
// deliberately unsynchronized, so workers must never share a live
// registry. When Params.Metrics is set, every point runs against its
// own scratch registry and the harness folds the scratch registries
// into Params.Metrics in sweep order after the pool drains
// (metrics.Registry.Merge). Parallel=1 is the same pool with one
// worker, so serial and parallel exports are byte-identical by
// construction.

// FanOutCtx runs fn(i) for every i in [0, n) across a pool of workers
// goroutines, claiming indices atomically in ascending order. When fn
// returns false, or once ctx is done, no further indices are claimed.
// Work already claimed by other workers still finishes — a stop signal,
// not an abort — so fn never observes a torn half-run and the caller
// can rely on every started index having completed when FanOutCtx
// returns; this is how a wall-clock-budgeted caller (the chaos
// campaign) stops a sweep midway. fn must be self-contained: it runs
// concurrently with other indices and must not share unsynchronized
// mutable state. It returns ctx.Err() when cancellation cut the sweep
// short and nil otherwise.
func FanOutCtx(ctx context.Context, workers, n int, fn func(i int) bool) error {
	if n <= 0 {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	var next, done atomic.Int64
	next.Store(-1)
	var stopped atomic.Bool
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1))
				if i >= n {
					return
				}
				ok := fn(i)
				done.Add(1)
				if !ok {
					stopped.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil && int(done.Load()) < n {
		return err
	}
	return nil
}

// workers resolves the sweep fan-out width from Params.
func (p Params) workers() int {
	if p.Parallel > 0 {
		return p.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// rowParams derives the Params a single sweep point runs under: the
// same workload scale and seed, but an isolated scratch metrics
// registry (when telemetry is on) so concurrent points never touch the
// same cells.
func rowParams(p Params) Params {
	rp := p
	if p.Metrics != nil {
		rp.Metrics = metrics.New()
	}
	return rp
}

// sweep runs fn(i, rowParams) for every i in [0, n) across the worker
// pool and returns the results in sweep order. fn must be
// self-contained per the package contract above. A failing point stops
// the claiming of further points, as a serial loop would; the points
// below it were claimed before it and still finish, so the lowest-index
// error wins, the scratch telemetry of the points below it is merged and
// everything from it on is discarded — at any worker count.
func sweep[T any](p Params, n int, fn func(i int, rp Params) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	regs := make([]*metrics.Registry, n) // all nil without telemetry
	_ = FanOutCtx(context.Background(), p.workers(), n, func(i int) bool {
		rp := rowParams(p)
		regs[i] = rp.Metrics
		out[i], errs[i] = fn(i, rp)
		return errs[i] == nil
	})
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		if regs[i] != nil {
			p.Metrics.Merge(regs[i])
		}
	}
	return out, nil
}
