package main

import (
	"fmt"
	"net/http"
	"sort"

	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/svc"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

// The traced run's per-layer table: boundary counts copied from the
// rounds, span durations, and the probes. A layer the workload never
// enters reports 0 — that is the bypass prediction, and assertBypass
// checks it.

// spanMedianMs is the median duration of the spans called name.
func spanMedianMs(spans []Span, name string) float64 {
	var ms []float64
	for _, s := range spans {
		if s.Name == name {
			ms = append(ms, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	if len(ms) == 0 {
		return 0
	}
	return median(ms)
}

// sharePct is a layer's probe cost × its count as a share of the timed
// section. Nothing contends on the serial dataplane, so this is the
// most a faster layer could save; the shares overlap (the netdev and
// tsnswitch probes include the engine events they schedule) and do not
// sum to 100.
func sharePct(nsPerOp, count, wallS float64) float64 {
	if wallS <= 0 {
		return 0
	}
	return 100 * nsPerOp * count / (wallS * 1e9)
}

// copyCounts copies the named exact counts from the last round (they
// are identical in every round of a run; the digest check enforces it).
func copyCounts(out map[string]float64, s *roundSample, names ...string) {
	for _, n := range names {
		out[n] = s.counts[n]
	}
}

func dataplaneLayers(tr *Tracer, in dataplaneInput, res *Result, rounds []*roundSample, out map[string]float64) error {
	last := rounds[len(rounds)-1]
	copyCounts(out, last, "sim.events", "sim.heap_depth_hw",
		"tsnswitch.rx_frames", "tsnswitch.tx_frames", "tsnswitch.drops_queue_full",
		"tsnswitch.drops_other", "tsnswitch.queue_hw", "tsnswitch.cbs_stalls",
		"psim.lookahead_ns", "psim.windows", "psim.events_per_window")
	frames := float64(last.ops)
	out["sim.events_per_frame"] = out["sim.events"] / frames
	runS := res.Dists["run_s"].Med
	out["testbed.run_s"] = runS
	out["testbed.build_ms"] = spanMedianMs(res.Spans, "testbed.Build")
	out["psim.cpu_per_wall"] = res.Dists["cpu_per_wall"].Med

	// Three calls on the same inputs, mean reported.
	wl, err := meanSetupLayers(tr, []workload.Params{in.Params, in.Params, in.Params}, out)
	if err != nil {
		return err
	}
	ns, allocs := probeSim(tr, int(out["sim.heap_depth_hw"]))
	out["sim.ns_per_event"], out["sim.allocs_per_event"] = ns, allocs
	out["sim.share"] = sharePct(ns, out["sim.events"], runS)

	ns, allocs = probeNetdev(tr, in.Params.WireSize)
	out["netdev.ns_per_transmit"], out["netdev.allocs_per_transmit"] = ns, allocs
	// Every switch egress and every NIC send is one transmit.
	out["netdev.share"] = sharePct(ns, out["tsnswitch.tx_frames"]+float64(last.attempted), runS)

	if ns, allocs, err = probeSwitch(tr, wl.Design, in.Params.WireSize); err != nil {
		return err
	}
	out["tsnswitch.ns_per_hop"], out["tsnswitch.allocs_per_hop"] = ns, allocs
	out["tsnswitch.share"] = sharePct(ns, out["tsnswitch.rx_frames"], runS)

	ns, allocs = probeAnalyzer(tr, in.Params.TSFlows)
	out["analyzer.ns_per_record"], out["analyzer.allocs_per_record"] = ns, allocs
	out["analyzer.share"] = sharePct(ns, frames, runS)

	if in.GPTP {
		if out["gptp.warmup_s"], err = probeGPTPWarmup(tr, in); err != nil {
			return err
		}
	}
	if in.Partitions > 1 {
		ns := probeEmptyWindow(tr, in.Partitions, sim.Time(out["psim.lookahead_ns"]))
		out["psim.ns_per_empty_window"] = ns
		// The slowest partition sets each window, so this is the floor
		// the barriers alone put under the run.
		out["psim.barrier_share"] = sharePct(ns, out["psim.windows"], runS)
	}
	return nil
}

// deriveSample is how many of a derive workload's specs the set-up
// layers are timed on; the reported figure is their mean.
const deriveSample = 16

func serviceLayers(tr *Tracer, def WorkloadDef, seed uint64, clients int, res *Result, rounds []*roundSample, out map[string]float64) error {
	last := rounds[len(rounds)-1]
	out["lat_p50_ms"], out["lat_p99_ms"] = res.Metrics["lat_p50_ms"], res.Metrics["lat_p99_ms"]
	copyCounts(out, last, "svc.cache_hit_ratio", "svc.shed", "svc.timeouts",
		"reconfig.sim_events_per_commit")
	for _, s := range rounds {
		out["svc.admission_queue_hw"] = max(out["svc.admission_queue_hw"], s.counts["svc.admission_queue_hw"])
	}
	runS := res.Dists["run_s"].Med
	requests := float64(last.attempted)

	// Set-up layers at the shape this workload gives them: the specs it
	// posts (derive) or the managed instance's network (reconfig).
	instance := svc.DefaultWorkload()
	var shapes []workload.Params
	var sample svc.Spec
	if def.Name == "reconfig" {
		instance.Seed = seed
		shapes = []workload.Params{instance, instance, instance}
	} else {
		n := coldRequests
		if def.Name == "derive-hot" {
			n = hotSpecs
		}
		specs := deriveSpecs(seed, n)
		for _, sp := range specs[:deriveSample] {
			if err := sp.Normalize(); err != nil {
				return err
			}
			shapes = append(shapes, sp.Params())
		}
		sample = specs[0]
	}
	if _, err := meanSetupLayers(tr, shapes, out); err != nil {
		return err
	}
	// NewService builds the managed network itself; time the same
	// build from outside.
	if _, _, _, err := (dataplaneInput{Params: instance}).buildNet(tr, 0); err != nil {
		return err
	}
	out["testbed.build_ms"] = spanMedianMs(tr.Spans(), "testbed.Build")

	ls, _, err := startService(svc.Options{}, clients)
	if err != nil {
		return err
	}
	defer ls.stop()
	rtt := probeHTTP(tr, ls)
	out["svc.http_rtt_us"] = rtt
	out["svc.http_share"] = sharePct(rtt*1e3, requests, runS*float64(clients))

	if def.Name != "reconfig" {
		out["svc.normalize_hash_us"] = probeNormalizeHash(tr, sample)
		body := marshalAll([]svc.Spec{sample})[0]
		code, hdr, _, err := ls.do(http.MethodPost, "/v1/derive", body)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("cache probe: priming request: %d %v", code, err)
		}
		if out["svc.cache_hit_us"], err = probeCacheHit(tr, ls, hdr.Get("X-Spec-Hash")); err != nil {
			return err
		}
		return nil
	}

	if out["svc.reconfig_direct_us"], err = probeReconfigDirect(tr, instance); err != nil {
		return err
	}
	ckptBytes, err := durableRounds(tr, seed, res, out)
	if err != nil {
		return err
	}
	// A commit appends two records (intent, commit); each frame carries
	// an 8-byte header.
	record := int(out["wal.bytes_per_commit"]/2) - 8
	if err := walProbes(tr, record, ckptBytes, out); err != nil {
		return err
	}
	// Commits serialise on one control loop, so the fsync adds to
	// every durable ack 1:1.
	out["wal.sync_share"] = sharePct(out["wal.append_sync_us"]*1e3, out["wal.commit_ops_per_s"], 1)
	return nil
}

// walRounds is how many durable rounds follow the discarded warm-up:
// their pooled latencies are enough for a p99.
const walRounds = 5

// durableRounds repeats the reconfig round on a service with a
// StateDir: the same requests through the WAL, then a crash image and a
// recovery. It fills the wal.commit_* metrics, recovery_ms and
// wal.bytes_per_commit, holds the durable service to the in-memory
// run's journal, and returns the checkpoint size found on disk.
func durableRounds(tr *Tracer, seed uint64, res *Result, out map[string]float64) (ckptBytes int, err error) {
	round := reconfigRound(seed, true)
	var rates, recovery, lat []float64
	for i := 0; i <= walRounds; i++ {
		id := tr.Start("durable round", 0)
		s, err := round(tr, id)
		tr.End(id)
		if err != nil {
			return 0, fmt.Errorf("durable round: %w", err)
		}
		s.drop()
		res.Attempted += s.attempted
		res.Failed += s.failed
		res.Problems = append(res.Problems, s.problems...)
		if s.digest != res.Digest {
			res.Problems = append(res.Problems, fmt.Sprintf(
				"durable round %d journal digest %.12s differs from the in-memory service's %.12s", i, s.digest, res.Digest))
		}
		if i == 0 {
			continue // warm-up
		}
		rates = append(rates, float64(s.ops)/s.wallS)
		recovery = append(recovery, s.recoveryMs)
		lat = append(lat, s.latMs...)
		copyCounts(out, s, "wal.bytes_per_commit")
		ckptBytes = int(s.counts["wal.checkpoint_bytes"])
	}
	sort.Float64s(lat)
	out["wal.commit_ops_per_s"] = median(rates)
	out["wal.commit_p50_ms"], _ = percentile(lat, 0.50)
	out["wal.commit_p99_ms"], _ = percentile(lat, 0.99)
	out["recovery_ms"] = median(recovery)
	return ckptBytes, nil
}

// assertBypass checks the predictions stated before measuring: which
// layers a workload must not enter. A failure here means a workload no
// longer isolates what it was built to isolate.
func assertBypass(name string, m map[string]float64) []string {
	var bad []string
	expect := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, "bypass prediction: "+fmt.Sprintf(format, args...))
		}
	}
	expect((m["psim.windows"] > 0) == (name == "mesh-part"),
		"psim.windows = %v on %s (non-zero only on mesh-part)", m["psim.windows"], name)
	if hr := m["svc.cache_hit_ratio"]; name == "derive-hot" {
		expect(hr == 1, "svc.cache_hit_ratio = %v on derive-hot (want 1)", hr)
	} else {
		expect(hr == 0, "svc.cache_hit_ratio = %v on %s (want 0)", hr, name)
	}
	expect((m["wal.bytes_per_commit"] > 0) == (name == "reconfig"),
		"wal.bytes_per_commit = %v on %s (non-zero only on reconfig)", m["wal.bytes_per_commit"], name)
	if name != "ring-mixed" {
		drops := m["tsnswitch.drops_queue_full"] + m["tsnswitch.drops_other"]
		expect(m["tsnswitch.cbs_stalls"] == 0 && drops == 0,
			"%v CBS stalls, %v drops on %s (non-zero only on ring-mixed)", m["tsnswitch.cbs_stalls"], drops, name)
	} else {
		expect(m["tsnswitch.drops_queue_full"] > 0, "no BE queue-full drops on ring-mixed")
	}
	return bad
}
