package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/analyzer"
	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/itp"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/netdev"
	"github.com/tsnbuilder/tsnbuilder/internal/obs"
	"github.com/tsnbuilder/tsnbuilder/internal/psim"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/svc"
	"github.com/tsnbuilder/tsnbuilder/internal/tables"
	"github.com/tsnbuilder/tsnbuilder/internal/trace"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
	"github.com/tsnbuilder/tsnbuilder/internal/wal"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

// A probe drives one layer's public API in isolation, at the shape the
// workload gave it, and reports the cost of one operation. Probes run
// in the traced run only, each under its own span.

// probeBatches is how many timed batches a probe takes its median over.
const probeBatches = 5

// probe runs batch probeBatches times (after one warm-up) and returns
// the median nanoseconds and the allocations per operation. batch
// returns how many operations it performed; set-up it does before
// calling start() is not timed.
func probe(tr *Tracer, name string, batch func(start func()) int) (nsPerOp, allocsPerOp float64) {
	id := tr.Start("probe:"+name, 0)
	defer tr.End(id)
	var ns, allocs []float64
	for i := 0; i <= probeBatches; i++ {
		var t0 time.Time
		var m0 uint64
		ops := batch(func() {
			runtime.GC()
			m0, _ = memCounters()
			t0 = time.Now()
		})
		el := time.Since(t0)
		m1, _ := memCounters()
		if i == 0 {
			continue
		}
		ns = append(ns, float64(el.Nanoseconds())/float64(ops))
		allocs = append(allocs, float64(m1-m0)/float64(ops))
	}
	return median(ns), median(allocs)
}

// probeSim schedules and runs no-op events with the heap held at
// depth, the workload's high-water mark.
func probeSim(tr *Tracer, depth int) (ns, allocs float64) {
	const events = 300_000
	depth = max(depth, 1)
	return probe(tr, "sim", func(start func()) int {
		e := sim.NewEngine()
		left := events
		var tick sim.Handler
		tick = func(en *sim.Engine) {
			if left--; left > 0 {
				en.After(sim.Time(depth), "probe", tick)
			}
		}
		for i := 0; i < depth; i++ {
			e.At(sim.Time(i+1), "probe", tick)
		}
		start()
		e.Run()
		return int(e.Executed())
	})
}

// discard is a frame receiver that drops everything.
type discard struct{}

func (discard) Receive(*ethernet.Frame, *netdev.Ifc) {}

func probeFrame(wireSize int) *ethernet.Frame {
	return &ethernet.Frame{
		Dst: ethernet.HostMAC(1), Src: ethernet.HostMAC(99),
		VID: 1, PCP: 7, EtherType: ethernet.TypeTSN,
		Class: ethernet.ClassTS, FlowID: 1, Seq: 1,
		Payload: make([]byte, ethernet.PayloadForWireSize(wireSize)),
	}
}

// probeNetdev transmits frames of the workload's size across one
// connected Ifc pair, running the engine dry after each.
func probeNetdev(tr *Tracer, wireSize int) (ns, allocs float64) {
	const frames = 200_000
	return probe(tr, "netdev", func(start func()) int {
		e := sim.NewEngine()
		a := netdev.NewIfc(e, "a", discard{}, ethernet.Gbps)
		b := netdev.NewIfc(e, "b", discard{}, ethernet.Gbps)
		netdev.Connect(a, b, 100*sim.Nanosecond)
		f := probeFrame(wireSize)
		start()
		for i := 0; i < frames; i++ {
			a.Transmit(f, nil)
			e.Run()
		}
		return frames
	})
}

// probeSwitch forwards frames through one switch built from the
// workload's design: tables programmed through Forward()/Filter(),
// frames injected at Port.Receive, the engine run dry after each (so a
// TS frame waits out its CQF slot in simulated, not host, time).
func probeSwitch(tr *Tracer, design *core.Design, wireSize int) (ns, allocs float64, err error) {
	const frames = 100_000
	ns, allocs = probe(tr, "tsnswitch", func(start func()) int {
		e := sim.NewEngine()
		cfg := design.SwitchConfig(0, 2)
		cfg.Metrics = metrics.New() // the registry is always on in tsnsim
		sw := tsnswitch.New(e, cfg)
		peer := netdev.NewIfc(e, "peer", discard{}, cfg.LinkRate)
		netdev.Connect(sw.Ifc(1), peer, 100*sim.Nanosecond)
		f := probeFrame(wireSize)
		if err = sw.Forward().Unicast.Add(f.Dst, f.VID, 1); err != nil {
			return 1
		}
		key := tables.ClassKey{Src: f.Src, Dst: f.Dst, VID: f.VID, PRI: f.PCP}
		if err = sw.Filter().Class.Add(key, tables.ClassEntry{QueueID: cfg.TSQueueA}); err != nil {
			return 1
		}
		in := sw.Port(0)
		start()
		for i := 0; i < frames; i++ {
			in.Receive(f, sw.Ifc(0))
			e.Run()
		}
		if tx := sw.Stats().TxFrames; tx != frames && err == nil {
			err = fmt.Errorf("tsnswitch probe forwarded %d of %d frames", tx, frames)
		}
		return frames
	})
	return ns, allocs, err
}

// probeAnalyzer records deliveries into a collector wired the way
// testbed.Build wires it: registry instruments plus the attribution
// sink.
func probeAnalyzer(tr *Tracer, flows int) (ns, allocs float64) {
	const records = 500_000
	flows = max(flows, 1)
	return probe(tr, "analyzer", func(start func()) int {
		reg := metrics.New()
		c := analyzer.NewCollector()
		c.Instrument(reg)
		c.SetLatencySink(obs.NewAttribution(reg, trace.NewFlight(1<<10)))
		f := probeFrame(64)
		f.SentAt = 1000
		f.Span.Begin(1000)
		f.Span.OnDeliver(2000, 100, 500)
		start()
		for i := 0; i < records; i++ {
			f.FlowID, f.Seq = uint32(1+i%flows), uint32(i/flows)
			c.Record(f, 2000)
		}
		return records
	})
}

// probeGPTPWarmup times Net.Run(2 s, 0) on a separate build of the
// workload: the gPTP convergence window alone, no flow traffic beyond
// the start events.
func probeGPTPWarmup(tr *Tracer, in dataplaneInput) (float64, error) {
	_, net, _, err := in.buildNet(nil, 0)
	if err != nil {
		return 0, err
	}
	id := tr.Start("probe:gptp", 0)
	t0 := time.Now()
	net.Run(gptpWarmup, 0)
	el := time.Since(t0)
	tr.End(id)
	return el.Seconds(), nil
}

// probeEmptyWindow steps a psim.Runner over `parts` empty engines: the
// cost of one lookahead window when no partition has anything to do —
// two barriers and the inbox drains.
func probeEmptyWindow(tr *Tracer, parts int, window sim.Time) float64 {
	const windows = 50_000
	ns, _ := probe(tr, "psim", func(start func()) int {
		ps := make([]*psim.Partition, parts)
		for i := range ps {
			ps[i] = psim.NewPartition(sim.NewEngine())
		}
		r := psim.NewRunner(ps, window)
		start()
		r.RunUntil(window * windows)
		return windows
	})
	return ns
}

// setupLayers times the direct calls behind set-up on one set of
// inputs: workload.Build, then core.DeriveConfig, itp.Compute and the
// design build on the flow set it produced. (workload.Build calls the
// other three itself; they are timed again from outside because no
// layer's source carries a span.)
func setupLayers(tr *Tracer, p workload.Params, out map[string]float64) (*workload.Built, error) {
	ms := func(metric, call string, fn func() error) error {
		id := tr.Start(call, 0)
		t0 := time.Now()
		err := fn()
		out[metric] += float64(time.Since(t0).Nanoseconds()) / 1e6
		tr.End(id)
		return err
	}
	var wl *workload.Built
	var der *core.Derivation
	slot := sim.Time(p.SlotUs) * sim.Microsecond
	err := ms("workload.build_ms", "workload.Build (direct)", func() (err error) { wl, err = workload.Build(p); return })
	if err == nil {
		err = ms("core.derive_ms", "core.DeriveConfig (direct)", func() (err error) {
			der, err = core.DeriveConfig(core.Scenario{Topo: wl.Topo, Flows: wl.Specs, SlotSize: slot})
			return
		})
	}
	if err == nil {
		err = ms("itp.compute_ms", "itp.Compute (direct)", func() error { _, err := itp.Compute(wl.Specs, slot, nil); return err })
	}
	if err == nil {
		err = ms("core.design_build_ms", "core.Builder.Build (direct)", func() error { _, err := core.BuilderFor(der.Config, nil).Build(); return err })
	}
	return wl, err
}

// setupLayerNames are the metrics setupLayers accumulates into.
var setupLayerNames = []string{"workload.build_ms", "core.derive_ms", "itp.compute_ms", "core.design_build_ms"}

// meanSetupLayers runs setupLayers over every shape and leaves the
// per-call mean in out; it returns the last shape's built workload.
func meanSetupLayers(tr *Tracer, shapes []workload.Params, out map[string]float64) (*workload.Built, error) {
	var wl *workload.Built
	for _, p := range shapes {
		var err error
		if wl, err = setupLayers(tr, p, out); err != nil {
			return nil, err
		}
	}
	for _, name := range setupLayerNames {
		out[name] /= float64(len(shapes))
	}
	return wl, nil
}

// --- service probes ---

// probeHTTP is the floor under every request: GET /healthz over the
// generator's keep-alive connection.
func probeHTTP(tr *Tracer, ls *liveService) float64 {
	const requests = 2000
	ns, _ := probe(tr, "svc.http", func(start func()) int {
		start()
		for i := 0; i < requests; i++ {
			_, _, _, _ = ls.do(http.MethodGet, "/healthz", nil)
		}
		return requests
	})
	return ns / 1e3
}

// probeNormalizeHash times Spec.Normalize+Hash, the work a derive
// request does before it reaches the cache.
func probeNormalizeHash(tr *Tracer, spec svc.Spec) float64 {
	const calls = 100_000
	ns, _ := probe(tr, "svc.normalize_hash", func(start func()) int {
		start()
		for i := 0; i < calls; i++ {
			sp := spec
			_ = sp.Normalize() // the spec was valid when generated
			_ = sp.Hash()
		}
		return calls
	})
	return ns / 1e3
}

// probeCacheHit times Cache().Get on a resident key.
func probeCacheHit(tr *Tracer, ls *liveService, key string) (float64, error) {
	const calls = 200_000
	var miss error
	ns, _ := probe(tr, "svc.cache_hit", func(start func()) int {
		ctx := context.Background()
		absent := func() ([]byte, error) { return nil, errors.New("not resident") }
		start()
		for i := 0; i < calls; i++ {
			if _, hit, err := ls.svc.Cache().Get(ctx, key, absent); err != nil || !hit {
				miss = fmt.Errorf("cache probe: key not resident (hit=%v err=%v)", hit, err)
				break
			}
		}
		return calls
	})
	return ns / 1e3, miss
}

// probeReconfigDirect runs the round's delta sequence through
// Instance().Reconfigure on a non-durable service: the reconfig engine
// and the engine advance to the CQF boundary, no HTTP and no WAL.
func probeReconfigDirect(tr *Tracer, wl workload.Params) (float64, error) {
	s, err := svc.NewService(svc.Options{Workload: wl})
	if err != nil {
		return 0, err
	}
	defer s.Shutdown(context.Background())
	deltas := reconfigDeltas(reconfigCommits)
	var failed error
	ns, _ := probe(tr, "svc.reconfig_direct", func(start func()) int {
		start()
		for i := range deltas {
			if out, err := s.Instance().Reconfigure(context.Background(), &deltas[i]); err != nil || out.Seq == 0 {
				failed = fmt.Errorf("direct reconfigure %d: %+v %v", i, out, err)
			}
		}
		return len(deltas)
	})
	return ns / 1e3, failed
}

// walProbes drives wal.Store directly with the record and snapshot
// sizes the workload put on disk.
func walProbes(tr *Tracer, recordBytes, snapshotBytes int, out map[string]float64) error {
	dir, err := os.MkdirTemp(stateRoot, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, _, err := wal.OpenStore(filepath.Join(dir, "append"))
	if err != nil {
		return err
	}
	defer st.Close()
	rec := make([]byte, max(recordBytes, 1))
	var werr error
	keep := func(err error) {
		if err != nil && werr == nil {
			werr = err
		}
	}
	ns, _ := probe(tr, "wal.append", func(start func()) int {
		start()
		for i := 0; i < 20_000; i++ {
			keep(st.Append(rec))
		}
		return 20_000
	})
	out["wal.append_us"] = ns / 1e3
	ns, _ = probe(tr, "wal.append_sync", func(start func()) int {
		start()
		for i := 0; i < 200; i++ {
			keep(st.Append(rec))
			keep(st.Sync())
		}
		return 200
	})
	out["wal.append_sync_us"] = ns / 1e3
	snap := make([]byte, max(snapshotBytes, 1))
	ns, _ = probe(tr, "wal.checkpoint", func(start func()) int {
		start()
		for i := 0; i < 20; i++ {
			keep(st.Checkpoint(snap))
		}
		return 20
	})
	out["wal.checkpoint_ms"] = ns / 1e6
	if werr != nil {
		return werr
	}

	// Replay: OpenStore on a directory holding K records.
	const k = 20_000
	replayDir := filepath.Join(dir, "replay")
	rs, _, err := wal.OpenStore(replayDir)
	if err != nil {
		return err
	}
	for i := 0; i < k; i++ {
		keep(rs.Append(rec))
	}
	keep(rs.Sync())
	keep(rs.Close())
	if werr != nil {
		return werr
	}
	ns, _ = probe(tr, "wal.replay", func(start func()) int {
		start()
		st, got, err := wal.OpenStore(replayDir)
		if err != nil {
			keep(err)
			return k
		}
		if len(got.Records) != k {
			keep(fmt.Errorf("replay read %d of %d records", len(got.Records), k))
		}
		keep(st.Close())
		return k
	})
	out["wal.replay_records_per_s"] = 1e9 / ns
	return werr
}
