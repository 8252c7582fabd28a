package main

// The tables below are the benchmark's contract with BENCHMARK.json:
// the same names, units, directions and bounds (spec_test.go checks
// the two against each other). A later PR that claims a gain cites a
// metric and a workload from here and may not edit them.

// Metric names one reported number.
type Metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

func (m Metric) higherIsBetter() bool { return m.Better == "higher" }

// An "op" is the unit of useful work a user of that workload sees: a
// frame delivered to an end station on the four dataplane workloads, a
// 2xx response on the three service workloads.
var endToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.01},
	{"alloc_bytes_per_op", "B", "lower", 0.01},
	{"live_heap_mb", "MB", "lower", 0.05},
}

var perLayer = []Metric{
	// The traced run's own throughput: ops_per_s minus this is the
	// tracing overhead.
	{"trace.ops_per_s", "1/s", "higher", 0},
	// Client-observed service latency and crash recovery. User-visible,
	// but defined on the service workloads only, so they cannot carry a
	// bound on all seven (see README, "Why five end-to-end metrics").
	{"lat_p50_ms", "ms", "lower", 0},
	{"lat_p99_ms", "ms", "lower", 0},
	{"recovery_ms", "ms", "lower", 0},

	{"sim.events", "count", "lower", 0},
	{"sim.events_per_frame", "count", "lower", 0},
	{"sim.heap_depth_hw", "count", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"sim.allocs_per_event", "count", "lower", 0},
	{"sim.share", "%", "lower", 0},

	{"netdev.ns_per_transmit", "ns", "lower", 0},
	{"netdev.allocs_per_transmit", "count", "lower", 0},
	{"netdev.share", "%", "lower", 0},

	{"tsnswitch.ns_per_hop", "ns", "lower", 0},
	{"tsnswitch.allocs_per_hop", "count", "lower", 0},
	{"tsnswitch.rx_frames", "count", "lower", 0},
	{"tsnswitch.tx_frames", "count", "lower", 0},
	{"tsnswitch.drops_queue_full", "count", "lower", 0},
	{"tsnswitch.drops_other", "count", "lower", 0},
	{"tsnswitch.queue_hw", "count", "lower", 0},
	{"tsnswitch.cbs_stalls", "count", "lower", 0},
	{"tsnswitch.share", "%", "lower", 0},

	{"analyzer.ns_per_record", "ns", "lower", 0},
	{"analyzer.allocs_per_record", "count", "lower", 0},
	{"analyzer.share", "%", "lower", 0},

	{"gptp.warmup_s", "s", "lower", 0},

	{"workload.build_ms", "ms", "lower", 0},
	{"core.derive_ms", "ms", "lower", 0},
	{"itp.compute_ms", "ms", "lower", 0},
	{"core.design_build_ms", "ms", "lower", 0},
	{"testbed.build_ms", "ms", "lower", 0},
	{"testbed.run_s", "s", "lower", 0},

	{"psim.lookahead_ns", "ns", "higher", 0},
	{"psim.windows", "count", "lower", 0},
	{"psim.events_per_window", "count", "higher", 0},
	{"psim.ns_per_empty_window", "ns", "lower", 0},
	{"psim.barrier_share", "%", "lower", 0},
	{"psim.cpu_per_wall", "count", "lower", 0},

	{"svc.http_rtt_us", "us", "lower", 0},
	{"svc.http_share", "%", "lower", 0},
	{"svc.normalize_hash_us", "us", "lower", 0},
	{"svc.cache_hit_us", "us", "lower", 0},
	{"svc.cache_hit_ratio", "count", "higher", 0},
	{"svc.shed", "count", "lower", 0},
	{"svc.timeouts", "count", "lower", 0},
	{"svc.admission_queue_hw", "count", "lower", 0},
	{"svc.reconfig_direct_us", "us", "lower", 0},
	{"reconfig.sim_events_per_commit", "count", "lower", 0},

	// The same requests on a durable service (traced run only): an
	// fsync-bound rate follows the host's disk, so it carries no bound.
	{"wal.commit_ops_per_s", "1/s", "higher", 0},
	{"wal.commit_p50_ms", "ms", "lower", 0},
	{"wal.commit_p99_ms", "ms", "lower", 0},
	{"wal.bytes_per_commit", "B", "lower", 0},
	{"wal.append_us", "us", "lower", 0},
	{"wal.append_sync_us", "us", "lower", 0},
	{"wal.sync_share", "%", "lower", 0},
	{"wal.checkpoint_ms", "ms", "lower", 0},
	{"wal.replay_records_per_s", "1/s", "higher", 0},
}

// WorkloadDef names one workload and why it exists.
type WorkloadDef struct {
	Name string
	Why  string
	// Service is false for the four dataplane workloads.
	Service bool
}

var workloads = []WorkloadDef{
	{"ring-ts64", "paper Fig. 7 ring at the smallest frame: per-frame cost in sim+netdev+tsnswitch is everything; shapers, gPTP, psim, svc, wal idle", false},
	{"ring-mixed", "tsnsim default: same ring plus RC/BE injectors and gPTP; few large frames, BE queue-full drops and drifting clocks use the same code differently", false},
	{"mesh-serial", "210-switch mesh, 2048 flows, serial: deep event heap and 210 switches of state; sim heap and cache footprint dominate", false},
	{"mesh-part", "mesh-serial inputs on min(GOMAXPROCS,4) partitions: the only workload that runs psim barriers, mailboxes and the merge", false},
	{"derive-cold", "POST /v1/derive, every spec distinct and more specs than cache slots: workload/core/itp do the work, the cache only misses", true},
	{"derive-hot", "POST /v1/derive cycling 64 warmed specs: svc.Cache, admission, JSON and net/http do the work, core/itp none", true},
	{"reconfig", "POST /v1/reconfig, one client: reconfig engine and the engine advance to the CQF boundary per ack; the traced run repeats it on a durable service for the WAL numbers", true},
}

func findWorkload(name string) (WorkloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return WorkloadDef{}, false
}
