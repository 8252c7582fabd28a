package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
	"github.com/tsnbuilder/tsnbuilder/testbed"
)

// dataplaneInput is everything a dataplane workload hands the program
// under test: the tsnsim flag set, nothing else.
type dataplaneInput struct {
	Params     workload.Params
	GPTP       bool
	Partitions int
	// DurMs is the simulated measurement window of one round — the
	// fixed work. Sized so a round takes about a second on a 2-core
	// host.
	DurMs int
}

// dataplaneInputs derives a dataplane workload's inputs from the seed.
// The seed reaches the program as Params.Seed (TS deadline assignment
// and, with gPTP, clock drift), exactly as tsnsim -seed does.
func dataplaneInputs(name string, seed uint64, procs int) (dataplaneInput, error) {
	ring := workload.Params{Topology: "ring", Switches: 6, TSFlows: 1024, Hops: 3,
		WireSize: 64, SlotUs: 65, Seed: seed}
	mesh := workload.Params{Topology: "mesh", Switches: 210, TSFlows: 2048, Hops: 4,
		WireSize: 64, SlotUs: 65, Seed: seed}
	switch name {
	case "ring-ts64":
		return dataplaneInput{Params: ring, DurMs: 500}, nil
	case "ring-mixed":
		ring.RCMbps, ring.BEMbps = 200, 300
		return dataplaneInput{Params: ring, GPTP: true, DurMs: 400}, nil
	case "mesh-serial":
		return dataplaneInput{Params: mesh, DurMs: 150}, nil
	case "mesh-part":
		return dataplaneInput{Params: mesh, Partitions: min(procs, 4), DurMs: 150}, nil
	}
	return dataplaneInput{}, fmt.Errorf("not a dataplane workload: %q", name)
}

// gptpWarmup is the simulated convergence window tsnsim gives gPTP
// before flows start; users pay it on every run, so it is inside the
// timed section.
const gptpWarmup = 2 * sim.Second

func (in dataplaneInput) warmup() sim.Time {
	if in.GPTP {
		return gptpWarmup
	}
	return 0
}

// buildNet is the set-up half of a round, exactly as cmd/tsnsim does
// it: workload.Build → testbed.Build with the registry always on.
func (in dataplaneInput) buildNet(tr *Tracer, parent int) (*workload.Built, *testbed.Net, *metrics.Registry, error) {
	id := tr.Start("workload.Build", parent)
	wl, err := workload.Build(in.Params)
	tr.End(id)
	if err != nil {
		return nil, nil, nil, err
	}
	reg := metrics.New()
	id = tr.Start("testbed.Build", parent)
	net, err := testbed.Build(testbed.Options{
		Design: wl.Design, Topo: wl.Topo, Flows: wl.Specs,
		EnableGPTP: in.GPTP, Seed: in.Params.Seed,
		Metrics: reg, Partitions: in.Partitions,
	})
	tr.End(id)
	if err != nil {
		return nil, nil, nil, err
	}
	return wl, net, reg, nil
}

// dataplaneRound returns the round function of a dataplane workload.
func dataplaneRound(in dataplaneInput) roundFunc {
	return func(tr *Tracer, parent int) (*roundSample, error) {
		s := &roundSample{counts: make(map[string]float64)}
		t0 := time.Now()
		wl, net, reg, err := in.buildNet(tr, parent)
		if err != nil {
			return nil, err
		}
		s.setupS = time.Since(t0).Seconds()
		dur := sim.Time(in.DurMs) * sim.Millisecond

		s.timed(func() {
			id := tr.Start("testbed.Run", parent)
			net.Run(in.warmup(), dur)
			tr.End(id)
		})

		id := tr.Start("check", parent)
		defer tr.End(id)
		s.ops = reg.SumCounter("tsn_flows_delivered_total")
		s.keep, s.release = net, func() {}
		checkDataplane(s, wl, net)
		s.digest = exportDigest(net, reg)

		events := reg.CounterValue("tsn_sim_events_total")
		st := net.SwitchStats()
		s.counts["sim.events"] = float64(events)
		s.counts["sim.heap_depth_hw"] = float64(reg.GaugeValue("tsn_sim_heap_depth_high_water"))
		s.counts["tsnswitch.rx_frames"] = float64(st.RxFrames)
		s.counts["tsnswitch.tx_frames"] = float64(st.TxFrames)
		s.counts["tsnswitch.drops_queue_full"] = float64(st.Drops[tsnswitch.DropQueueFull])
		s.counts["tsnswitch.drops_other"] = float64(st.TotalDrops() - st.Drops[tsnswitch.DropQueueFull])
		s.counts["tsnswitch.queue_hw"] = float64(net.MaxQueueHighWater())
		s.counts["tsnswitch.cbs_stalls"] = float64(reg.SumCounter("tsn_cbs_stalls_total"))
		if w := net.LookaheadWindow(); w > 0 {
			// The runner steps [0, stop+drain] in windows of w; the
			// drain is testbed.Run's own (4 slots + 1 ms).
			total := in.warmup() + dur + 4*wl.Der.Config.SlotSize + sim.Millisecond
			windows := float64((total + w - 1) / w)
			s.counts["psim.lookahead_ns"] = float64(w)
			s.counts["psim.windows"] = windows
			s.counts["psim.events_per_window"] = float64(events) / windows
		}
		return s, nil
	}
}

// checkDataplane is the dataplane correctness gate. It fills the
// failed-share accounting (lost TS/RC frames plus TS deadline misses
// over frames sent; BE queue-full drops are modelled behaviour) and
// records every broken invariant.
func checkDataplane(s *roundSample, wl *workload.Built, net *testbed.Net) {
	fail := func(format string, args ...any) {
		s.problems = append(s.problems, fmt.Sprintf(format, args...))
	}
	for _, n := range net.SentCounts() {
		s.attempted += n
	}
	ts, rc := net.Summary(ethernet.ClassTS), net.Summary(ethernet.ClassRC)
	s.failed = ts.Lost + rc.Lost + ts.DeadlineMisses
	if ts.Lost != 0 || rc.Lost != 0 {
		fail("lost frames: TS %d RC %d", ts.Lost, rc.Lost)
	}
	if ts.DeadlineMisses != 0 {
		fail("%d TS deadline misses", ts.DeadlineMisses)
	}
	if ts.Received == 0 {
		fail("no TS frame delivered")
	}
	if err := net.CheckBufferLeaks(); err != nil {
		fail("%v", err)
	}
	if hw, depth := net.MaxQueueHighWater(), wl.Der.Config.QueueDepth; hw > depth {
		fail("TS queue high water %d exceeds derived depth %d", hw, depth)
	}
	// The paper's analytical bound, per flow, with h the switch count
	// of the flow's bound path (on the mesh it differs per flow).
	slot := wl.Der.Config.SlotSize
	bad := 0
	for _, spec := range wl.Specs {
		if spec.Class != ethernet.ClassTS {
			continue
		}
		st := net.Collector.Flow(spec.ID)
		if st == nil || st.Received == 0 {
			continue // already counted as loss
		}
		h := sim.Time(len(spec.Path))
		lo, hi := (h-1)*slot, (h+1)*slot
		if mean := st.MeanLatency(); mean < lo || mean > hi {
			if bad < 3 {
				fail("flow %d (h=%d) mean latency %v outside CQF bound [%v, %v]", spec.ID, h, mean, lo, hi)
			}
			bad++
		}
	}
	if bad > 3 {
		fail("%d TS flows outside the CQF bound in total", bad)
	}
}

// heapDepthFamily is the one registry family allowed to differ between
// serial and partitioned runs (per-partition heaps are shallower).
const heapDepthFamily = "tsn_sim_heap_depth_high_water"

// stripFamily removes family's sample lines from a Prometheus text
// exposition, leaving HELP/TYPE lines and every other family alone.
func stripFamily(text []byte, family string) []byte {
	var out bytes.Buffer
	for _, line := range bytes.SplitAfter(text, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte(family))
		if ok && len(rest) > 0 && (rest[0] == ' ' || rest[0] == '{') {
			continue
		}
		out.Write(line)
	}
	return out.Bytes()
}

// exportDigest fingerprints what a user would export from the run:
// the per-flow statistics (tsnsim -csv) and the metrics registry
// (tsnsim -metrics) minus the heap-depth gauge. A change that only
// speeds the simulator up must leave it identical.
func exportDigest(net *testbed.Net, reg *metrics.Registry) string {
	h := sha256.New()
	sent := net.SentCounts()
	for _, st := range net.Collector.Flows() {
		fmt.Fprintf(h, "%d,%s,%d,%d,%d,%d,%d,%d,%d\n", st.FlowID, st.Class,
			sent[st.FlowID], st.Received, st.MeanLatency(), st.Jitter(),
			st.MinLat, st.MaxLat, st.DeadlineMisses)
	}
	var prom bytes.Buffer
	_ = reg.Snapshot().WritePrometheus(&prom) // bytes.Buffer writes cannot fail
	h.Write(stripFamily(prom.Bytes(), heapDepthFamily))
	return hex.EncodeToString(h.Sum(nil))
}

// serialReference runs in's inputs once on the serial engine, untimed,
// and returns its export digest: what a partitioned run must equal.
func serialReference(in dataplaneInput) (string, error) {
	in.Partitions = 0
	_, net, reg, err := in.buildNet(nil, 0)
	if err != nil {
		return "", err
	}
	net.Run(in.warmup(), sim.Time(in.DurMs)*sim.Millisecond)
	return exportDigest(net, reg), nil
}
