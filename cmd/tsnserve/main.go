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
//	GET  /flows, /flows/{id}, /events, /flightrec, /debug/pprof/
//	                   the managed network's introspection set, the same
//	                   one tsnsim -serve answers. pprof is exposed, which
//	                   is why the default bind is loopback.
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
	"maps"
	"os"
	"slices"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/chaos"
	"github.com/tsnbuilder/tsnbuilder/internal/svc"
	"github.com/tsnbuilder/tsnbuilder/internal/wal"
)

type options struct {
	addr string
	// svc is what the scenario and durability flags bind straight into.
	svc svc.Options

	chaos        bool
	chaosSeed    uint64
	chaosBudgetS int

	crashChaos    bool
	crashKills    int
	crashAfterWAL int64
	crashTorn     bool
}

func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("tsnserve", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:9780", "listen address (loopback by default: /debug/pprof is served)")

	// The managed network takes the scenario flags every command shares,
	// starting at svc's default workload.
	o.svc.Workload = svc.DefaultWorkload()
	o.svc.Workload.Bind(fs)
	fs.StringVar(&o.svc.StateDir, "state-dir", "", "durable state directory (WAL + checkpoints); empty = in-memory only")
	fs.IntVar(&o.svc.CheckpointEvery, "checkpoint-every", svc.DefaultCheckpointEvery, "fold the journal into a checkpoint every n commits")

	fs.BoolVar(&o.chaos, "chaos", false, "run the service chaos campaign instead of serving")
	fs.Uint64Var(&o.chaosSeed, "chaos-seed", 42, "chaos campaign seed")
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

// drainTimeout bounds how long shutdown waits for in-flight requests
// (and the queued commits behind them) before force-closing.
const drainTimeout = 15 * time.Second

// run is the daemon; sig is what ends it (nil: SIGINT/SIGTERM).
func run(args []string, sig <-chan os.Signal) error {
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

	s, err := svc.NewService(o.svc)
	if err != nil {
		return err
	}
	addr, err := s.Server().Listen(o.addr)
	if err == nil {
		fmt.Printf("tsnserve: managing %s/%d switches, %d TS flows on http://%s\n",
			o.svc.Workload.Topology, o.svc.Workload.Switches, o.svc.Workload.TSFlows, addr)
		err = s.Server().Hold("tsnserve", sig, drainTimeout)
	}
	// On every way out — a listen that failed included — the instance's
	// control loop stops and the WAL closes; after a hold the HTTP drain
	// is already over, so accepted work has resolved.
	_ = s.Shutdown(context.Background())
	if err != nil {
		return err
	}
	fmt.Println("tsnserve: drained")
	return nil
}

// runChaos runs the service chaos campaign and reports its verdict.
func runChaos(o *options) error {
	fmt.Printf("tsnserve: chaos campaign seed=%d\n", o.chaosSeed)
	sum, err := chaos.RunServiceCampaign(chaos.ServiceOptions{
		Seed:     o.chaosSeed,
		Workload: o.svc.Workload,
		Budget:   time.Duration(o.chaosBudgetS) * time.Second,
		Log: func(format string, args ...any) {
			fmt.Printf("chaos: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("chaos: %d/%d executed, %d accepted, %d coherence probes, %d faults\n",
		sum.Executed, sum.Planned, sum.Accepted, sum.CoherenceProbes, sum.FaultsArmed)
	for _, code := range slices.Sorted(maps.Keys(sum.ByStatus)) {
		fmt.Printf("chaos:   status %d × %d\n", code, sum.ByStatus[code])
	}
	if report("chaos", sum.Verdict) {
		return fmt.Errorf("tsnserve: chaos campaign failed: %d violations, %d errors",
			len(sum.Violations), len(sum.Errors))
	}
	fmt.Printf("chaos: PASS — %s, %s and %s held\n",
		chaos.OracleAcceptedLost, chaos.OracleCacheCoherence, chaos.OracleQueueBounded)
	return nil
}

// report prints a campaign's violations and errors and reports whether
// it failed.
func report(who string, v chaos.Verdict) bool {
	for _, viol := range v.Violations {
		fmt.Printf("%s: VIOLATION %s\n", who, viol)
	}
	for _, e := range v.Errors {
		fmt.Printf("%s: ERROR %s\n", who, e)
	}
	return v.Failed()
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
		StateDir:   o.svc.StateDir,
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
	if report("crash", sum.Verdict) {
		return fmt.Errorf("tsnserve: crash campaign failed: %d violations, %d errors (state kept at %s)",
			len(sum.Violations), len(sum.Errors), sum.StateDir)
	}
	fmt.Println("crash: PASS — every acknowledged transaction survived every kill")
	return nil
}

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
