// Package bench is the benchmark harness that regenerates every table
// and figure of the paper at full evaluation scale (1024 TS flows,
// 100 ms measurement windows). Each study BenchmarkXxx corresponds to
// one experiments.Catalog entry; custom metrics report its headline
// numbers next to the usual ns/op:
//
//	go test -bench=. -benchmem
//
// The text renderings the paper prints are produced by cmd/tsnbench.
package bench

import (
	"context"
	"runtime"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/experiments"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/itp"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/netdev"
	"github.com/tsnbuilder/tsnbuilder/internal/obs"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/svc"
	"github.com/tsnbuilder/tsnbuilder/internal/trace"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnnic"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
	"github.com/tsnbuilder/tsnbuilder/testbed"
	"github.com/tsnbuilder/tsnbuilder/tsnbuilder"
)

func params() experiments.Params {
	p := experiments.DefaultParams()
	if testing.Short() {
		p = experiments.ShortParams()
	}
	return p
}

// catalogStudy is the experiments.Catalog entry that names b as its
// benchmark.
func catalogStudy(b *testing.B) experiments.Study {
	b.Helper()
	for _, st := range experiments.Catalog {
		if st.Bench == b.Name() {
			return st
		}
	}
	b.Fatalf("no experiments.Catalog entry names %s as its benchmark", b.Name())
	return experiments.Study{}
}

// benchStudy times the catalog study behind b at params().
func benchStudy(b *testing.B) {
	seed := params().Seed
	benchStudySeeded(b, func(int) uint64 { return seed })
}

// benchStudySeeded times the catalog study behind b, iteration i on
// workload seed(i) — the study alone: its Result is rendered once, after
// the clock stops — and reports the study's headline metrics next to
// ns/op.
func benchStudySeeded(b *testing.B, seed func(i int) uint64) {
	st, p := catalogStudy(b), params()
	var res experiments.Result
	for i := 0; b.Loop(); i++ {
		p.Seed = seed(i)
		var err error
		if res, err = st.Run(p); err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range res().Metrics {
		b.ReportMetric(m.Value, m.Unit)
	}
}

// One benchmark per catalog study that names one; what each runs and
// reports is the entry's (internal/experiments/catalog.go).
// BenchmarkGPTPPrecision draws fresh oscillator drifts every iteration.
func BenchmarkTableI(b *testing.B)         { benchStudy(b) }
func BenchmarkTableIII(b *testing.B)       { benchStudy(b) }
func BenchmarkFig2BE(b *testing.B)         { benchStudy(b) }
func BenchmarkFig2RC(b *testing.B)         { benchStudy(b) }
func BenchmarkFig7Hops(b *testing.B)       { benchStudy(b) }
func BenchmarkFig7PktSize(b *testing.B)    { benchStudy(b) }
func BenchmarkFig7Slot(b *testing.B)       { benchStudy(b) }
func BenchmarkFig7Background(b *testing.B) { benchStudy(b) }
func BenchmarkQoSEquivalence(b *testing.B) { benchStudy(b) }
func BenchmarkGPTPPrecision(b *testing.B) {
	benchStudySeeded(b, func(i int) uint64 { return uint64(i) + 1 })
}
func BenchmarkITPAblation(b *testing.B)      { benchStudy(b) }
func BenchmarkPlatformAblation(b *testing.B) { benchStudy(b) }
func BenchmarkThresholdStudy(b *testing.B)   { benchStudy(b) }
func BenchmarkPartitionedRun(b *testing.B)   { benchStudy(b) }
func BenchmarkTASvsCQF(b *testing.B)         { benchStudy(b) }
func BenchmarkSMSStudy(b *testing.B)         { benchStudy(b) }
func BenchmarkDeadlineStudy(b *testing.B)    { benchStudy(b) }
func BenchmarkDesyncStudy(b *testing.B)      { benchStudy(b) }
func BenchmarkCBSStudy(b *testing.B)         { benchStudy(b) }
func BenchmarkPreemptStudy(b *testing.B)     { benchStudy(b) }
func BenchmarkRateStudy(b *testing.B)        { benchStudy(b) }

// --- Micro-benchmarks of the substrates ---

// BenchmarkEngineEvents measures raw discrete-event throughput.
func BenchmarkEngineEvents(b *testing.B) {
	e := sim.NewEngine()
	var tick func(*sim.Engine)
	n := 0
	tick = func(en *sim.Engine) {
		n++
		if n < b.N {
			en.After(1, "tick", tick)
		}
	}
	e.After(1, "tick", tick)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineDepth measures the engine at the mesh's queue depth,
// where BenchmarkEngineEvents keeps one event pending: about 512 events
// in mesh-serial's mix, a third each of wire events (a transmission's
// completion or a delivery, 0.6 µs out, in four groups that share an
// instant), port retries (at the next 65 µs slot boundary + 1 ns, all
// at one instant) and NIC timers (one 10 ms flow period out, spread over
// it). Each event re-arms its own kind, so the depth holds; one op is
// one event.
func BenchmarkEngineDepth(b *testing.B) {
	const (
		perKind = 171
		wire    = 600 * sim.Nanosecond
		slot    = 65 * sim.Microsecond
		period  = 10 * sim.Millisecond
	)
	e := sim.NewEngine()
	n := 0
	count := func(en *sim.Engine) {
		if n++; n == b.N {
			en.Stop()
		}
	}
	var deliver, retry, timer sim.Handler
	deliver = func(en *sim.Engine) { count(en); en.After(wire, "deliver", deliver) }
	retry = func(en *sim.Engine) { count(en); en.At((en.Now()/slot+1)*slot+1, "port-retry", retry) }
	timer = func(en *sim.Engine) { count(en); en.After(period, "nic-timer", timer) }
	for i := range perKind {
		e.At(sim.Time(i%4)*150, "deliver", deliver)
		e.At(slot+1, "port-retry", retry)
		e.At(sim.Time(i)*period/perKind, "nic-timer", timer)
	}
	e.RunFor(2 * period) // warm: free list, the current instant's storage
	n = 0
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	b.ReportMetric(float64(e.Pending()), "pending")
}

// nicSink counts the frames a NIC's peer receives and samples the
// engine's pending-event depth at each arrival.
type nicSink struct {
	e             *sim.Engine
	frames, depth int
}

func (s *nicSink) Receive(*ethernet.Frame, *netdev.Ifc) {
	s.frames++
	s.depth = max(s.depth, s.e.Pending())
}

// BenchmarkNICTick measures flow injection alone: one NIC generating
// the paper's 1 024 periodic TS flows of 64 B into a sink peer, no
// switch in between. One op is one injected frame (tick, frame, MAC,
// wire, delivery); heap-depth is the worst engine queue depth a frame
// arrival saw — the number of NICs and frames in flight, not of flows.
func BenchmarkNICTick(b *testing.B) {
	e := sim.NewEngine()
	nic, sink := tsnnic.New(e, 1, ethernet.Gbps, nil), &nicSink{e: e}
	netdev.Connect(nic.Ifc(), netdev.NewIfc(e, "sink", sink, ethernet.Gbps), 100*sim.Nanosecond)
	for i := 0; i < 1024; i++ {
		nic.StartFlow(&flows.Spec{
			ID: uint32(1 + i), Class: ethernet.ClassTS, SrcHost: 1, DstHost: 2, VID: 1, PCP: 7,
			WireSize: 64, Period: sim.Millisecond, Offset: sim.Time(i) * 700 * sim.Nanosecond,
		})
	}
	e.RunFor(2 * sim.Millisecond) // warm: FIFO, event free list
	sink.frames, sink.depth = 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for sink.frames < b.N {
		e.RunFor(sim.Millisecond) // one period: 1 024 frames
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sink.frames), "ns/frame")
	b.ReportMetric(float64(sink.depth), "heap-depth")
}

// BenchmarkFrameCodec measures the zero-copy codec hot path — the one
// the dataplane uses: AppendMarshal into a recycled buffer, then
// UnmarshalNoCopy aliasing it. Steady state allocates only the decoded
// Frame header; no byte buffers.
func BenchmarkFrameCodec(b *testing.B) {
	f := &ethernet.Frame{
		Dst: ethernet.HostMAC(1), Src: ethernet.HostMAC(2),
		VID: 100, PCP: 7, EtherType: ethernet.TypeTSN,
		Payload: make([]byte, 1000), FlowID: 1, Seq: 2, Class: ethernet.ClassTS,
	}
	var buf []byte
	b.ReportAllocs()
	for b.Loop() {
		buf = f.AppendMarshal(buf[:0])
		if _, err := ethernet.UnmarshalNoCopy(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameCodecCopy measures the copying Marshal/Unmarshal round
// trip — the convenience API that owns its buffers.
func BenchmarkFrameCodecCopy(b *testing.B) {
	f := &ethernet.Frame{
		Dst: ethernet.HostMAC(1), Src: ethernet.HostMAC(2),
		VID: 100, PCP: 7, EtherType: ethernet.TypeTSN,
		Payload: make([]byte, 1000), FlowID: 1, Seq: 2, Class: ethernet.ClassTS,
	}
	b.ReportAllocs()
	for b.Loop() {
		buf := f.Marshal()
		if _, err := ethernet.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkITPCompute measures planning time for the paper's 1024-flow
// workload.
func BenchmarkITPCompute(b *testing.B) {
	specs := make([]*flows.Spec, 1024)
	for i := range specs {
		path := make([]int, 1+i%4)
		for h := range path {
			path[h] = (i + h) % 6
		}
		specs[i] = &flows.Spec{
			ID: uint32(i + 1), Class: ethernet.ClassTS, WireSize: 64,
			Period: 10 * sim.Millisecond, Path: path,
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := itp.Compute(specs, 65*sim.Microsecond, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadBuild measures workload.Build — topology, path
// binding, derivation with ITP, design — on the two input families the
// repository benchmark drives it with: derive-grid is one Build per
// shape of derive-cold's spec grid (ring/linear/star/tree × 7–14
// switches, 64–436 flows, hops 2/3), mesh210x2048 the mesh workloads'
// set-up.
func BenchmarkWorkloadBuild(b *testing.B) {
	var grid []workload.Params
	for i := 0; i < 32; i++ {
		grid = append(grid, workload.Params{
			Topology: []string{"ring", "linear", "star", "tree"}[i%4], Switches: 7 + i/4,
			TSFlows: 64 + 12*i, Hops: 2 + i%2, WireSize: 200, SlotUs: 65, Seed: uint64(i),
		})
	}
	for _, bc := range []struct {
		name   string
		params []workload.Params
	}{
		{"derive-grid", grid},
		{"mesh210x2048", []workload.Params{{Topology: "mesh", Switches: 210, TSFlows: 2048, Hops: 4, WireSize: 64, SlotUs: 65}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for _, p := range bc.params {
					if _, err := workload.Build(p); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkMeshBuild is the set-up of the repository benchmark's
// mesh-serial workload — workload.Build then testbed.Build of the
// 210-switch mesh with 2 048 flows, registry on — and what that network
// retains: heap-MB is the live heap the built network adds after a
// collection, the number per-switch dimensioning moves (each switch's
// tables hold what is bound through it, not the network's flow count).
// Budget: 24 000 allocations per build, 6–9 % over the 21.9–22.6 k it
// measures (75.4 k when every queue, its ring and every metric cell was
// an allocation of its own; 23.0–23.4 k while each CBS bank kept its
// bindings in a map).
func BenchmarkMeshBuild(b *testing.B) {
	p := workload.Params{Topology: "mesh", Switches: 210, TSFlows: 2048, Hops: 4, WireSize: 64, SlotUs: 65, Seed: 42}
	var ms runtime.MemStats
	live := func() float64 {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	base, mallocs := live(), ms.Mallocs
	var net *testbed.Net
	b.ReportAllocs()
	for b.Loop() {
		wl, err := workload.Build(p)
		if err != nil {
			b.Fatal(err)
		}
		net, err = testbed.Build(testbed.Options{
			Design: wl.Design, Topo: wl.Topo, Flows: wl.Specs, Seed: p.Seed, Metrics: metrics.New(),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(live()-base, "heap-MB")
	runtime.KeepAlive(net)
	if perBuild := float64(ms.Mallocs-mallocs) / float64(b.N); perBuild > 24_000 {
		b.Fatalf("%.0f allocations per build, budget 24 000", perBuild)
	}
}

// BenchmarkDeriveAndBuild measures the full customization path: derive
// parameters from a 1024-flow scenario and build the design.
func BenchmarkDeriveAndBuild(b *testing.B) {
	topo := tsnbuilder.Ring(6)
	for h := 0; h < 6; h++ {
		topo.AttachHost(100+h, h)
	}
	specs := tsnbuilder.GenerateTS(tsnbuilder.TSParams{
		Count: 1024, Period: 10 * tsnbuilder.Millisecond, WireSize: 64, VID: 1,
		Hosts: func(i int) (int, int) { return 100 + i%6, 100 + (i+2)%6 },
		Seed:  1,
	})
	if err := tsnbuilder.BindPaths(topo, specs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		der, err := tsnbuilder.DeriveConfig(tsnbuilder.Scenario{Topo: topo, Flows: specs})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tsnbuilder.BuilderFor(der.Config, nil).Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlightRecord measures the always-on flight recorder's
// per-event cost — it rides every switch emit, so it must stay
// allocation-free. The recorder has one writer and takes no lock:
// ≈ 12 ns on a 2-core host (≈ 34 ns with a mutex per record).
func BenchmarkFlightRecord(b *testing.B) {
	fl := trace.NewFlight(1 << 16)
	ev := trace.Event{At: 1, Kind: trace.KindEnqueue, FlowID: 7, Seq: 3, Switch: 1, Port: 2, Queue: 7}
	b.ReportAllocs()
	for b.Loop() {
		fl.Record(ev)
	}
}

// BenchmarkAttributionObserve measures the per-delivery latency
// attribution in steady state (no miss): five component-histogram
// writes, no lock, zero allocations.
func BenchmarkAttributionObserve(b *testing.B) {
	reg := metrics.New()
	a := obs.NewAttribution(reg, trace.NewFlight(1<<10))
	f := &ethernet.Frame{FlowID: 5, Seq: 1, Class: ethernet.ClassTS, SentAt: 1000}
	f.Span.Begin(1000)
	f.Span.Claim(300, 100)
	f.Span.OnDeliver(2000, 100, 200)
	b.ReportAllocs()
	for b.Loop() {
		a.ObserveLatency(f, 2000, 1000, false)
	}
}

// BenchmarkSpanOps measures the per-hop span bookkeeping a frame pays
// as it crosses the network.
func BenchmarkSpanOps(b *testing.B) {
	var s ethernet.Span
	b.ReportAllocs()
	for b.Loop() {
		s.Begin(100)
		s.Claim(10, 5)
		s.OnDeliver(400, 50, 100)
	}
}

// BenchmarkSvcReconfigure measures one acknowledged reconfiguration on
// the managed instance, without HTTP or a WAL: validate, stage, run to
// the CQF boundary, apply, watchdog audit, verify. The deltas are the
// repository benchmark's reconfig sequence (meter_size alternates,
// unicast_size cycles three sizes), so every op changes the live
// configuration.
func BenchmarkSvcReconfigure(b *testing.B) {
	in, err := svc.NewInstance(svc.Options{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer in.Close()
	deltas := make([]svc.ReconfigRequest, 6)
	for i := range deltas {
		deltas[i] = svc.ReconfigRequest{
			MeterSize:   []int{128, 64}[i%2],
			UnicastSize: []int{384, 512, 256}[i%3],
		}
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		out, err := in.Reconfigure(context.Background(), &deltas[i%len(deltas)])
		if err != nil || out.Seq == 0 {
			b.Fatalf("reconfigure %d: %+v %v", i, out, err)
		}
	}
}
