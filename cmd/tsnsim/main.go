// Command tsnsim runs one end-to-end simulation of a customized TSN
// network — the software analogue of powering up the paper's Fig. 6
// demo: switches are generated from the derived design, TSNNic hosts
// inject TS flows plus optional RC/BE background, gPTP synchronizes
// the switch clocks, and the analyzer prints latency/jitter/loss.
//
// Example:
//
//	tsnsim -topology ring -switches 6 -flows 1024 -hops 3 -rc 200 -be 200
//
// Observability: -metrics dumps the telemetry registry in Prometheus
// text exposition (or JSON with -metrics-json), -trace-json exports
// the per-packet trace for chrome://tracing, and -progress prints
// live event-rate lines to stderr during long runs.
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/chaos"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/faults"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/psim"
	"github.com/tsnbuilder/tsnbuilder/internal/reconfig"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/trace"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
	"github.com/tsnbuilder/tsnbuilder/testbed"
)

// runOpts is one tsnsim invocation: the scenario its flags describe
// plus what only a tsnsim run has — clocks, exports, guards, serving.
type runOpts struct {
	// Case is the scenario. workload.Params.Bind's flags, -rc, -be,
	// -frer, -watchdog and -ts-deadline bind into it, and the -faults
	// and -reconfig files load into it.
	chaos.Case
	// scenario is the -faults file whole (Case.Faults holds its
	// faults), so the file's own seed reaches the injector.
	scenario *faults.Scenario

	gptp     bool
	deadline time.Duration
	serve    string
	// signals ends the -serve hold; nil means the process's own
	// SIGINT/SIGTERM (tests hand in a channel).
	signals <-chan os.Signal

	csvPath     string
	pcapPath    string
	hotspots    bool
	metricsPath string // "-" = stdout, "" = no export
	metricsJSON bool
	traceJSON   string
	progress    time.Duration
	partitions  int

	campaign chaosOpts
	replay   string
}

// traced reports whether the run keeps a whole packet trace for
// -hotspots or -trace-json.
func (o *runOpts) traced() bool { return o.hotspots || o.traceJSON != "" }

// parseFlags binds argv into a runOpts, loading the -faults and
// -reconfig files it names.
func parseFlags(args []string) (*runOpts, error) {
	o := &runOpts{}
	o.Params = workload.Params{Topology: "ring", Switches: 6, TSFlows: 1024, Hops: 3, WireSize: 64, SlotUs: 65, Seed: 42}
	fs := flag.NewFlagSet("tsnsim", flag.ContinueOnError)
	o.Bind(fs)
	fs.IntVar(&o.RCMbps, "rc", 0, "RC background per injector (Mbps)")
	fs.IntVar(&o.BEMbps, "be", 0, "BE background per injector (Mbps)")
	fs.IntVar(&o.DurMs, "duration", 100, "measurement window (ms)")
	noGPTP := fs.Bool("no-gptp", false, "run with perfect clocks instead of gPTP")
	fs.IntVar(&o.FRERFlows, "frer", 0, "make the first n TS flows 802.1CB-redundant (bidir-ring only, max 64)")
	fs.BoolVar(&o.Watchdog, "watchdog", false, "run the invariant watchdog and graceful-degradation policy")
	faultsPath := fs.String("faults", "", "fault-scenario JSON file to inject during the run")
	reconfigPath := fs.String("reconfig", "", "live-reconfiguration JSON file to apply mid-run")
	fs.DurationVar(&o.deadline, "deadline", 0, "abort with a diagnostic if the run exceeds this wall-clock time (e.g. 30s)")
	// sim.Time counts nanoseconds, as time.Duration does.
	fs.DurationVar((*time.Duration)(&o.TSDeadline), "ts-deadline", 0, "override every TS flow's latency deadline (tight values force misses, e.g. 10us)")
	fs.StringVar(&o.serve, "serve", "", "serve live telemetry on this address (e.g. :9090); holds after the run until interrupted")
	fs.StringVar(&o.csvPath, "csv", "", "write per-flow statistics to this CSV file")
	fs.StringVar(&o.pcapPath, "pcap", "", "write delivered frames to this pcap file")
	fs.BoolVar(&o.hotspots, "hotspots", false, "print the worst queue-residence cells over the most recent 1 Mi dataplane events")
	fs.StringVar(&o.metricsPath, "metrics", "", "write the metrics registry to this file ('-' for stdout)")
	fs.BoolVar(&o.metricsJSON, "metrics-json", false, "export -metrics as JSON instead of Prometheus text")
	fs.StringVar(&o.traceJSON, "trace-json", "", "write the most recent 1 Mi dataplane events as Chrome trace-event JSON to this file")
	fs.DurationVar(&o.progress, "progress", 0, "print progress to stderr at this wall-clock interval (e.g. 2s)")
	fs.IntVar(&o.partitions, "partitions", 0, "shard the topology across this many parallel engines (conservative lookahead; results byte-identical to serial, needs -no-gptp)")
	co := &o.campaign
	fs.StringVar(&co.profile, "chaos", "", "run a chaos campaign from this profile JSON ('default' for the built-in profile) instead of one simulation")
	fs.IntVar(&co.Runs, "chaos-runs", 0, "override the profile's case count")
	fs.DurationVar(&co.Budget, "chaos-budget", 0, "wall-clock budget; the campaign stops claiming new cases when it expires")
	fs.IntVar(&co.Parallel, "chaos-parallel", 0, "campaign worker count (default GOMAXPROCS)")
	fs.StringVar(&co.out, "chaos-out", "chaos-out", "directory for minimal-repro artifacts of failing cases")
	fs.StringVar(&o.replay, "chaos-replay", "", "re-execute a minimal-repro artifact (<case>.repro.json) and report whether it still reproduces")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.gptp = !*noGPTP
	var err error
	if *faultsPath != "" {
		if o.scenario, err = faults.Load(*faultsPath); err != nil {
			return nil, err
		}
		o.Faults = o.scenario.Faults
	}
	if *reconfigPath != "" {
		if o.Reconfig, err = chaos.LoadDelta(*reconfigPath); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func main() { os.Exit(status(os.Args[1:])) }

// status runs one tsnsim invocation and returns its exit status: 2 for
// bad flags, 1 for an error or for a campaign or replay that finds a
// violation, else 0.
func status(args []string) int {
	o, err := parseFlags(args)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsnsim:", err)
		return 2
	}
	failed := false
	switch {
	case o.replay != "":
		failed, err = runChaosReplay(o.replay)
	case o.campaign.profile != "":
		failed, err = runChaos(o.campaign)
	default:
		err = runWithOutputs(*o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsnsim:", err)
	}
	if err != nil || failed {
		return 1
	}
	return 0
}

// runWithOutputs is run plus the optional file exports: per-flow CSV,
// pcap, metrics (Prometheus/JSON) and Chrome trace JSON.
func runWithOutputs(o runOpts) error {
	var pcapOut io.Writer
	if o.pcapPath != "" {
		f, err := os.Create(o.pcapPath)
		if err != nil {
			return err
		}
		defer f.Close()
		pcapOut = f
	}
	net, err := run(o, pcapOut)
	if err != nil {
		return err
	}
	var events []trace.Event
	if o.traced() {
		events = net.Flight.Snapshot(net.Flight.Cap())
	}
	overwritten := net.Flight.Seq() - uint64(len(events))
	if o.hotspots {
		fmt.Println("worst queue residences:")
		for _, r := range trace.TopResidences(events, 8) {
			fmt.Printf("  %s\n", r)
		}
		if overwritten > 0 {
			fmt.Printf("  (trace wrapped: these cells read the newest %d events; the %d before them were overwritten)\n",
				len(events), overwritten)
		}
	}
	if net.Capture != nil {
		fmt.Printf("pcap: %d frames captured to %s\n", net.Capture.Count(), o.pcapPath)
	}
	if o.traceJSON != "" {
		f, err := os.Create(o.traceJSON)
		if err != nil {
			return err
		}
		if err := trace.WriteChrome(f, events, overwritten); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace: %d events written to %s\n", len(events), o.traceJSON)
	}
	if o.metricsPath != "" {
		if err := net.Metrics.Snapshot().WriteFile(o.metricsPath, o.metricsJSON); err != nil {
			return err
		}
	}
	if o.csvPath != "" {
		if err := writeCSV(net, o.csvPath); err != nil {
			return err
		}
	}
	if o.serve != "" {
		// The final telemetry state stays queryable until the first
		// interrupt; a held run that was interrupted still exits 0 — the
		// simulation itself succeeded.
		fmt.Printf("telemetry: holding final state on %s — interrupt to exit\n", o.serve)
		return net.Server.Hold("telemetry", o.signals, serveDrainTimeout)
	}
	return nil
}

// serveDrainTimeout bounds how long the -serve exit path waits for
// in-flight requests to finish before force-closing their connections.
const serveDrainTimeout = 5 * time.Second

// exit is swapped out by tests; the deadline guard calls it with a
// non-zero status from the simulation thread.
var exit = os.Exit

// printReconfig reports how the -reconfig transaction ended.
func printReconfig(rec *chaos.TxnRecord, d *chaos.Delta) {
	switch {
	case rec.BeginErr != nil:
		fmt.Printf("reconfig: rejected: %v\n", rec.BeginErr)
	case rec.Txn == nil:
		fmt.Printf("reconfig: begin time %v is outside the run; nothing applied\n", sim.Time(d.AtUs)*sim.Microsecond)
	case rec.Txn.State() == reconfig.StateCommitted:
		fmt.Printf("reconfig: committed at %v (%d ops)\n", rec.Txn.CommitTime(), len(rec.Txn.Ops()))
	case rec.Txn.State() == reconfig.StateRolledBack:
		fmt.Printf("reconfig: rolled back: %v\n", rec.Txn.Err())
	default:
		fmt.Printf("reconfig: unresolved at simulation end (state %v)\n", rec.Txn.State())
	}
}

// deadlineDiagnostic renders the dump printed when the -deadline guard
// trips: how far simulated time got and how much work remained queued,
// so a hung or exploding scenario is diagnosable from the abort alone.
func deadlineDiagnostic(limit time.Duration, now sim.Time, executed uint64, pending int) string {
	return fmt.Sprintf("tsnsim: wall-clock deadline %v exceeded\n"+
		"  sim time reached:  %v\n"+
		"  events executed:   %d\n"+
		"  event-queue depth: %d\n", limit, now, executed, pending)
}

// writeCSV dumps one row per flow for external plotting.
func writeCSV(net *testbed.Net, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	defer w.Flush()
	if err := w.Write([]string{"flow", "class", "sent", "received",
		"mean_us", "jitter_us", "min_us", "max_us", "deadline_misses"}); err != nil {
		return err
	}
	sent := net.SentCounts()
	for _, st := range net.Collector.Flows() {
		minLat := st.MinLat
		if st.Received == 0 {
			minLat = 0 // as Summarize writes an empty class
		}
		row := []string{
			fmt.Sprintf("%d", st.FlowID),
			st.Class.String(),
			fmt.Sprintf("%d", sent[st.FlowID]),
			fmt.Sprintf("%d", st.Received),
			fmt.Sprintf("%.3f", st.MeanLatency().Micros()),
			fmt.Sprintf("%.3f", st.Jitter().Micros()),
			fmt.Sprintf("%.3f", minLat.Micros()),
			fmt.Sprintf("%.3f", st.MaxLat.Micros()),
			fmt.Sprintf("%d", st.DeadlineMisses),
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	return w.Error()
}

// validatePartitions rejects the flags that hook the one serial
// engine, which a partitioned network does not have: the mid-run
// reconfiguration event, live serving, progress and the deadline
// guard. testbed.Build rejects the features it cannot shard.
func validatePartitions(o *runOpts) error {
	if o.partitions <= 1 {
		return nil
	}
	for _, r := range []struct {
		bad  bool
		flag string
	}{
		{o.Reconfig != nil, "-reconfig"},
		{o.serve != "", "-serve"},
		{o.progress > 0, "-progress"},
		{o.deadline > 0, "-deadline"},
	} {
		if r.bad {
			return fmt.Errorf("%s is not supported with -partitions", r.flag)
		}
	}
	return nil
}

func run(o runOpts, pcapOut io.Writer) (*testbed.Net, error) {
	if err := validatePartitions(&o); err != nil {
		return nil, err
	}
	// The registry is always built: the exit summary reads it even when
	// no export flag is set, and instrumented forwarding costs ~nothing.
	reg := metrics.New()
	net, rec, err := o.Build(testbed.Options{
		EnableGPTP: o.gptp, Pcap: pcapOut,
		EnableTrace: o.traced(),
		Metrics:     reg,
		Faults:      o.scenario,
		Partitions:  o.partitions,
	})
	if err != nil {
		return nil, err
	}
	provisioned := net.LiveConfig().QueueDepth
	if o.serve != "" {
		_, addr, err := net.Serve(o.serve)
		if err != nil {
			return nil, err
		}
		fmt.Printf("telemetry: live on http://%s (/metrics /healthz /flows /events /flightrec /debug/pprof)\n", addr)
	}
	if o.progress > 0 || o.deadline > 0 {
		guardStart := time.Now()
		last := guardStart
		var lastExec uint64
		tripped := false
		// Check wall time every 64k events: cheap against µs-scale
		// event costs, responsive against second-scale intervals. The
		// deadline guard runs on the simulation thread, so the dump is
		// consistent with the instant it fires.
		net.Engine.SetProgress(1<<16, func(executed uint64, now sim.Time) {
			if o.deadline > 0 && !tripped && time.Since(guardStart) > o.deadline {
				tripped = true
				fmt.Fprint(os.Stderr, deadlineDiagnostic(o.deadline, now, executed, net.Engine.Pending()))
				exit(2)
			}
			if o.progress <= 0 || time.Since(last) < o.progress {
				return
			}
			rate := float64(executed-lastExec) / time.Since(last).Seconds()
			fmt.Fprintf(os.Stderr, "progress: sim=%v events=%d (%.0f ev/s)\n", now, executed, rate)
			last = time.Now()
			lastExec = executed
		})
	}
	warmup := sim.Time(0)
	if o.gptp {
		warmup = 2 * sim.Second
	}
	fmt.Printf("running %s/%d: %d TS flows (%dB, %d hops), rc=%dMbps be=%dMbps, slot=%dµs, gptp=%v\n",
		o.Topology, len(net.Switches), o.TSFlows, o.WireSize, o.Hops, o.RCMbps, o.BEMbps, o.SlotUs, o.gptp)
	if net.Partitions() > 1 {
		fmt.Printf("partitions: %d parallel engines, lookahead window %v\n",
			net.Partitions(), net.LookaheadWindow())
	}
	wallStart := time.Now()
	net.Run(warmup, sim.Time(o.DurMs)*sim.Millisecond)
	wall := time.Since(wallStart)

	for _, cls := range []ethernet.Class{ethernet.ClassTS, ethernet.ClassRC, ethernet.ClassBE} {
		s := net.Summary(cls)
		if s.Flows == 0 {
			continue
		}
		fmt.Printf("%-3s flows=%-5d sent=%-7d recv=%-7d loss=%5.2f%%  mean=%9.1fµs jitter=%8.2fµs min=%9.1fµs max=%9.1fµs\n",
			cls, s.Flows, s.Sent, s.Received, 100*s.LossRate,
			s.MeanLatency.Micros(), s.Jitter.Micros(), s.MinLat.Micros(), s.MaxLat.Micros())
		if cls == ethernet.ClassTS {
			fmt.Printf("    deadline misses: %d\n", s.DeadlineMisses)
		}
	}
	if rec != nil {
		printReconfig(rec, o.Reconfig)
	}
	fmt.Println(switchesLine(net.SwitchStats()))
	fmt.Printf("worst TS queue occupancy: %d (provisioned depth %d)\n",
		net.MaxQueueHighWater(), provisioned)
	if net.Domain != nil {
		fmt.Printf("gPTP precision at end: %v\n", net.Domain.MaxAbsOffset())
	}
	if net.Injector != nil {
		fmt.Printf("faults: injected=%d recovered=%d link-drops=%d\n",
			net.Injector.Injected(), net.Injector.Recovered(),
			reg.SumCounter(faults.MetricLinkDrops))
	}
	var traceDropped uint64
	if o.traced() {
		traceDropped = net.Flight.Seq() - uint64(net.Flight.Len())
	}
	printSummary(reg, wall, traceDropped)
	printPartitionStats(net.PartitionStats())
	printAttribution(net)
	if net.Server != nil {
		net.Server.Publish(reg.Snapshot(), net.Collector)
	}
	return net, nil
}

// printPartitionStats renders the partitioned runner's own account of
// the run: how many barrier-synchronized windows it stepped, how many
// events each paid for, and where each worker's wall time went. Nothing
// on serial runs.
func printPartitionStats(parts []psim.PartStats) {
	if parts == nil {
		return
	}
	var events uint64
	for _, p := range parts {
		events += p.Events
	}
	fmt.Printf("partitions: %d windows, %.1f events/window\n", parts[0].Windows, float64(events)/float64(parts[0].Windows))
	for k, p := range parts {
		fmt.Printf("  partition %d: events=%d busy=%v barrier-wait=%v mailbox-posts=%d ring-hw=%d\n",
			k, p.Events, p.Busy.Round(time.Microsecond), p.Wait.Round(time.Microsecond), p.Posts, p.RingHW)
	}
}

// printAttribution renders the top-3 flows by worst-case latency, one
// line each with the worst delivery's component decomposition, plus
// the flight-recorder capture retained for the worst deadline miss.
func printAttribution(net *testbed.Net) {
	if net.Attr == nil {
		return
	}
	top := net.Collector.TopByWorst(3)
	if len(top) == 0 {
		return
	}
	fmt.Println("worst flows (component breakdown of worst delivery):")
	for _, st := range top {
		w := st.Worst
		fmt.Printf("  flow %-6d %-3s worst=%9.1fµs seq=%-6d prop=%.1fµs ser=%.1fµs queue=%.1fµs gate=%.1fµs shape=%.1fµs misses=%d\n",
			st.FlowID, st.Class, st.MaxLat.Micros(), st.WorstSeq,
			w.Prop.Micros(), w.Ser.Micros(), w.Queue.Micros(), w.Gate.Micros(), w.Shape.Micros(),
			st.DeadlineMisses)
	}
	if dumps := net.Attr.Dumps(); len(dumps) > 0 {
		d := dumps[len(dumps)-1]
		fmt.Printf("flight recorder: worst miss flow=%d seq=%d lat=%.1fµs — %d events captured (serve /flightrec for the chain)\n",
			d.FlowID, d.Seq, d.Lat.Micros(), len(d.Events))
	}
}

// switchesLine renders the network's switch counts with every drop
// reason, so the reasons listed sum to drops.
func switchesLine(st tsnswitch.Stats) string {
	line := fmt.Sprintf("switches: rx=%d tx=%d drops=%d (", st.RxFrames, st.TxFrames, st.TotalDrops())
	for i, r := range tsnswitch.DropReasons() {
		if i > 0 {
			line += " "
		}
		line += fmt.Sprintf("%s=%d", r, st.Drops[r])
	}
	return line + ")"
}

// printSummary renders the exit summary line from the telemetry
// registry — delivered frames, drops by reason, the simulator's event
// throughput over the measured wall time, and an honest note when the
// packet trace lost its oldest traceDropped events to the ring.
func printSummary(reg *metrics.Registry, wall time.Duration, traceDropped uint64) {
	delivered := reg.SumCounter("tsn_flows_delivered_total")
	drops := reg.SumCounter(tsnswitch.MetricDrops)
	line := fmt.Sprintf("summary: delivered=%d drops=%d", delivered, drops)
	if drops > 0 {
		for _, r := range tsnswitch.DropReasons() {
			if v := reg.SumCounter(tsnswitch.MetricDrops, metrics.L("reason", r.String())); v > 0 {
				line += fmt.Sprintf(" %s=%d", r, v)
			}
		}
	}
	events := reg.CounterValue("tsn_sim_events_total")
	line += fmt.Sprintf(" events=%d", events)
	if secs := wall.Seconds(); secs > 0 {
		line += fmt.Sprintf(" (%.0f ev/s)", float64(events)/secs)
	}
	if traceDropped > 0 {
		line += fmt.Sprintf(" trace-dropped=%d", traceDropped)
	}
	fmt.Println(line)
}
