// Command tsnserve is the TSN-as-a-Service control plane daemon: it
// manages one long-running simulated switch network and serves the
// northbound HTTP API over it.
//
//	POST /v1/derive    application spec → derived switch configuration
//	POST /v1/reconfig  delta → transactional live reconfiguration
//	GET  /v1/config    the configuration in force
//	GET  /v1/journal   the committed-transaction journal
//	GET  /healthz      liveness + watchdog/verification health
//	GET  /readyz       readiness (breaker, queues, drain state)
//	GET  /metrics      Prometheus exposition: service section always, simulation
//	                   section read through the control loop at scrape time
//
// The daemon is built for overload: bounded admission queues shed with
// 429 before anything melts, per-request deadlines propagate, a circuit
// breaker guards the reconfiguration path, and SIGTERM drains in-flight
// requests before the managed instance stops.
//
// With -chaos the daemon instead builds a service in-process, attacks
// it with the fixed-seed concurrent chaos campaign and exits non-zero
// on any oracle violation.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/chaos"
	"github.com/tsnbuilder/tsnbuilder/internal/svc"
	"github.com/tsnbuilder/tsnbuilder/internal/wal"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

type options struct {
	addr string

	topology string
	switches int
	tsFlows  int
	hops     int
	wireSize int
	slotUs   int
	seed     uint64

	cacheSize     int
	deriveConc    int
	deriveQueue   int
	reconfigQueue int
	deriveMs      int
	reconfigMs    int
	breakerTrips  int
	breakerCoolMs int
	retryMax      int
	retryUs       int

	stateDir  string
	ckptEvery int

	chaos         bool
	chaosSeed     uint64
	chaosRequests int
	chaosClients  int
	chaosBudgetS  int

	crashChaos    bool
	crashKills    int
	crashAfterWAL int64
	crashTorn     bool
}

func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("tsnserve", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:9780", "listen address")

	fs.StringVar(&o.topology, "topology", "linear", "managed network topology (star|ring|bidir-ring|linear|tree)")
	fs.IntVar(&o.switches, "switches", 4, "managed network switch count")
	fs.IntVar(&o.tsFlows, "ts-flows", 24, "managed network TS flow count")
	fs.IntVar(&o.hops, "hops", 2, "TS flow hop length")
	fs.IntVar(&o.wireSize, "wire-size", 200, "TS frame wire size (bytes)")
	fs.IntVar(&o.slotUs, "slot-us", 65, "CQF slot (µs)")
	fs.Uint64Var(&o.seed, "seed", 1, "managed network seed")

	fs.IntVar(&o.cacheSize, "cache-size", 512, "derivation cache entries")
	fs.IntVar(&o.deriveConc, "derive-concurrency", 4, "concurrent derivations")
	fs.IntVar(&o.deriveQueue, "derive-queue", 64, "derive admission wait bound")
	fs.IntVar(&o.reconfigQueue, "reconfig-queue", 16, "reconfig admission wait bound")
	fs.IntVar(&o.deriveMs, "derive-deadline-ms", 2000, "default derive deadline (ms)")
	fs.IntVar(&o.reconfigMs, "reconfig-deadline-ms", 10000, "default reconfig deadline (ms)")
	fs.IntVar(&o.breakerTrips, "breaker-threshold", 3, "consecutive commit failures that open the breaker")
	fs.IntVar(&o.breakerCoolMs, "breaker-cooldown-ms", 2000, "breaker open→half-open cooldown (ms)")
	fs.IntVar(&o.retryMax, "retry-max", 3, "bounded commit retries")
	fs.IntVar(&o.retryUs, "retry-backoff-us", 0, "commit retry backoff (µs, 0 = one CQF cycle)")

	fs.StringVar(&o.stateDir, "state-dir", "", "durable state directory (WAL + checkpoints); empty = in-memory only")
	fs.IntVar(&o.ckptEvery, "checkpoint-every", 16, "fold the journal into a checkpoint every n commits")

	fs.BoolVar(&o.chaos, "chaos", false, "run the service chaos campaign instead of serving")
	fs.Uint64Var(&o.chaosSeed, "chaos-seed", 42, "chaos campaign seed")
	fs.IntVar(&o.chaosRequests, "chaos-requests", 200, "chaos campaign scripted requests")
	fs.IntVar(&o.chaosClients, "chaos-clients", 8, "chaos campaign concurrent clients")
	fs.IntVar(&o.chaosBudgetS, "chaos-budget-s", 120, "chaos campaign wall-clock budget (s)")

	fs.BoolVar(&o.crashChaos, "crash-chaos", false, "run the crash-recovery chaos campaign (kill -9 + restart) instead of serving")
	fs.IntVar(&o.crashKills, "crash-kills", 50, "crash campaign kill rounds")
	fs.Int64Var(&o.crashAfterWAL, "crash-after-wal-writes", 0, "TESTING: exit hard after this many WAL appends (0 = off)")
	fs.BoolVar(&o.crashTorn, "crash-torn", false, "TESTING: leave a torn WAL frame behind the armed crash")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, nil
}

func (o *options) workload() workload.Params {
	return workload.Params{
		Topology: o.topology, Switches: o.switches, TSFlows: o.tsFlows,
		Hops: o.hops, WireSize: o.wireSize, SlotUs: o.slotUs, Seed: o.seed,
	}
}

func (o *options) svcOptions() svc.Options {
	return svc.Options{
		Workload:          o.workload(),
		CacheSize:         o.cacheSize,
		DeriveConcurrency: o.deriveConc,
		DeriveQueue:       o.deriveQueue,
		ReconfigQueue:     o.reconfigQueue,
		DeriveDeadline:    time.Duration(o.deriveMs) * time.Millisecond,
		ReconfigDeadline:  time.Duration(o.reconfigMs) * time.Millisecond,
		BreakerThreshold:  o.breakerTrips,
		BreakerCooldown:   time.Duration(o.breakerCoolMs) * time.Millisecond,
		RetryMax:          o.retryMax,
		RetryBackoffUs:    o.retryUs,
		StateDir:          o.stateDir,
		CheckpointEvery:   o.ckptEvery,
	}
}

// serveSignals returns the channel the daemon blocks on
// (SIGINT/SIGTERM); tests swap it for a channel they control.
var serveSignals = func() <-chan os.Signal {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	return ch
}

// drainTimeout bounds how long shutdown waits for in-flight requests
// (and the queued commits behind them) before force-closing.
const drainTimeout = 15 * time.Second

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.chaos {
		return runChaos(o)
	}
	if o.crashChaos {
		return runCrashChaos(o)
	}
	if o.crashAfterWAL > 0 {
		// The deterministic kill point for the crash campaign's armed
		// rounds: this life dies hard after its Nth WAL append.
		wal.ArmCrash(o.crashAfterWAL, o.crashTorn)
	}

	s, err := svc.NewService(o.svcOptions())
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	fmt.Printf("tsnserve: managing %s/%d switches, %d TS flows on http://%s\n",
		o.topology, o.switches, o.tsFlows, ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()

	select {
	case sig := <-serveSignals():
		fmt.Printf("tsnserve: %v — draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			// Stuck clients were force-closed; the daemon still exits
			// cleanly — accepted work resolved before the instance stopped.
			fmt.Printf("tsnserve: drain timed out, connections force-closed (%v)\n", err)
		}
		<-serveErr
		fmt.Println("tsnserve: drained")
		return nil
	case err := <-serveErr:
		return fmt.Errorf("tsnserve: serve: %w", err)
	}
}

// runChaos runs the service chaos campaign and reports its verdict.
func runChaos(o *options) error {
	fmt.Printf("tsnserve: chaos campaign seed=%d requests=%d clients=%d\n",
		o.chaosSeed, o.chaosRequests, o.chaosClients)
	sum, err := chaos.RunServiceCampaign(chaos.ServiceOptions{
		Seed:     o.chaosSeed,
		Clients:  o.chaosClients,
		Requests: o.chaosRequests,
		Budget:   time.Duration(o.chaosBudgetS) * time.Second,
		Service:  o.svcOptions(),
		Log: func(format string, args ...any) {
			fmt.Printf("chaos: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("chaos: %d/%d executed, %d accepted, %d coherence probes, %d faults\n",
		sum.Executed, sum.Planned, sum.Accepted, sum.CoherenceProbes, sum.FaultsArmed)
	codes := make([]int, 0, len(sum.ByStatus))
	for code := range sum.ByStatus {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		fmt.Printf("chaos:   status %d × %d\n", code, sum.ByStatus[code])
	}
	for _, v := range sum.Violations {
		fmt.Printf("chaos: VIOLATION %s\n", v)
	}
	for _, e := range sum.Errors {
		fmt.Printf("chaos: ERROR %s\n", e)
	}
	if sum.Failed() {
		return fmt.Errorf("tsnserve: chaos campaign failed: %d violations, %d errors",
			len(sum.Violations), len(sum.Errors))
	}
	fmt.Println("chaos: PASS — both service oracles held")
	return nil
}

// runCrashChaos runs the crash-recovery campaign, re-executing this
// very binary as the server under test so no separate build is needed.
func runCrashChaos(o *options) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("tsnserve: resolve own binary: %w", err)
	}
	fmt.Printf("tsnserve: crash campaign seed=%d kills=%d\n", o.chaosSeed, o.crashKills)
	sum, err := chaos.RunCrashCampaign(chaos.CrashOptions{
		Seed:       o.chaosSeed,
		Kills:      o.crashKills,
		ServerPath: exe,
		StateDir:   o.stateDir,
		Budget:     time.Duration(o.chaosBudgetS) * time.Second,
		Log: func(format string, args ...any) {
			fmt.Printf("crash: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("crash: %d/%d kills (%d armed, %d torn, %d random), %d acks, %d journal entries recovered\n",
		sum.Kills, sum.Planned, sum.ArmedKills, sum.TornKills, sum.RandomKills, sum.Accepted, sum.Recovered)
	for _, v := range sum.Violations {
		fmt.Printf("crash: VIOLATION %s\n", v)
	}
	for _, e := range sum.Errors {
		fmt.Printf("crash: ERROR %s\n", e)
	}
	if sum.Failed() {
		return fmt.Errorf("tsnserve: crash campaign failed: %d violations, %d errors (state kept at %s)",
			len(sum.Violations), len(sum.Errors), sum.StateDir)
	}
	fmt.Println("crash: PASS — every acknowledged transaction survived every kill")
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
