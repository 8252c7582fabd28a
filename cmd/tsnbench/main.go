// Command tsnbench regenerates the paper's tables and figures.
//
//	tsnbench -exp all          # everything, paper scale
//	tsnbench -exp table3       # just Table III
//	tsnbench -exp fig7a -short # reduced workload
//	tsnbench -exp all -parallel 1  # force fully serial sweeps
//	tsnbench -h                # every experiment id
//
// Sweep points (independent build-and-run simulations) fan out on a
// worker pool sized by -parallel (default GOMAXPROCS). Output is
// byte-identical at every -parallel setting, including -metrics and
// -csv exports: every sweep collects its rows and merges its telemetry
// in sweep order regardless of worker scheduling.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/experiments"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/obs"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id ("+expIDs+")")
		short    = flag.Bool("short", false, "reduced workload for quick runs")
		seed     = flag.Uint64("seed", 42, "workload seed")
		csvDir   = flag.String("csv", "", "also write each latency series as CSV into this directory")
		metPath  = flag.String("metrics", "", "write accumulated telemetry (all runs, one registry) to this file ('-' for stdout)")
		metJSON  = flag.Bool("metrics-json", false, "export -metrics as JSON instead of Prometheus text")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "sweep worker pool size (1 = serial; output is identical at any setting)")
		serve    = flag.String("serve", "", "serve accumulated telemetry (/metrics) and /debug/pprof on this address; holds after completion until interrupted")
	)
	flag.Parse()
	p := experiments.DefaultParams()
	if *short {
		p = experiments.ShortParams()
	}
	p.Seed = *seed
	p.Parallel = *parallel
	if *metPath != "" || *serve != "" {
		p.Metrics = metrics.New()
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "tsnbench:", err)
		os.Exit(1)
	}
	if *serve != "" {
		var err error
		if telemetry, _, err = serveTelemetry(*serve, p.Metrics); err != nil {
			fail(err)
		}
	}
	csvOut = *csvDir
	if err := run(os.Stdout, *exp, p); err != nil {
		fail(err)
	}
	publishTelemetry(p.Metrics)
	if *metPath != "" {
		if err := p.Metrics.Snapshot().WriteFile(*metPath, *metJSON); err != nil {
			fail(err)
		}
	}
	if telemetry != nil {
		// An interrupted hold after a successful run still exits 0.
		fmt.Println("telemetry: holding final state — interrupt to exit")
		if err := telemetry.Hold("telemetry", nil, telemetryDrainTimeout); err != nil {
			fail(err)
		}
	}
}

// telemetry is the -serve server over the accumulated experiment
// registry; nil without -serve.
var telemetry *obs.Server

// publishTelemetry refreshes the served snapshot; a no-op without
// -serve. It only runs at quiescent points (between experiment
// sections), so it never races the sweeps' hot-path registry writes.
func publishTelemetry(reg *metrics.Registry) {
	if telemetry != nil {
		telemetry.Publish(reg.Snapshot())
	}
}

// telemetryDrainTimeout bounds how long the exit path waits for
// in-flight requests before force-closing their connections.
const telemetryDrainTimeout = 5 * time.Second

// serveTelemetry starts the telemetry server over the accumulated
// experiment registry (/metrics refreshes after every emitted series,
// /debug/pprof profiles the runner live) and returns it with its address.
func serveTelemetry(addr string, reg *metrics.Registry) (*obs.Server, string, error) {
	srv := obs.NewServer(nil, nil)
	srv.MountPublished(nil)
	srv.Publish(reg.Snapshot())
	bound, err := srv.Listen(addr)
	if err != nil {
		return nil, "", err
	}
	fmt.Printf("telemetry: live on http://%s (/metrics /debug/pprof)\n", bound)
	return srv, bound, nil
}

// csvOut, when set, receives one CSV file per latency series.
var csvOut string

// emit prints a study's text and optionally writes its CSV form.
func emit(w io.Writer, p experiments.Params, id, text, csv string) error {
	fmt.Fprintln(w, text)
	publishTelemetry(p.Metrics)
	if csvOut == "" {
		return nil
	}
	if err := os.MkdirAll(csvOut, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(csvOut, id+".csv"), []byte(csv), 0o644)
}

// series is the experiment that computes one latency series and emits
// it under its own id.
func series(id string, compute func(experiments.Params) (*experiments.Series, error)) experiment {
	return experiment{id, func(w io.Writer, p experiments.Params) error {
		s, err := compute(p)
		if err != nil {
			return err
		}
		return emit(w, p, id, s.String(), s.CSV())
	}}
}

// table is the experiment that computes rows and prints them formatted,
// followed by a blank line.
func table[R any](id string, study func(experiments.Params) (R, error), format func(R) string) experiment {
	return experiment{id, func(w io.Writer, p experiments.Params) error {
		rows, err := study(p)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, format(rows))
		return nil
	}}
}

// experiment is one -exp id and what it runs.
type experiment struct {
	id  string
	run func(io.Writer, experiments.Params) error
}

// catalog is every experiment, in the order -exp all runs them.
var catalog = []experiment{
	table("table1", func(experiments.Params) ([]experiments.TableIRow, error) { return experiments.TableI(), nil }, experiments.FormatTableI),
	{"fig2", func(w io.Writer, p experiments.Params) error {
		for _, bg := range []string{"BE", "RC"} {
			for _, cse := range []int{1, 2} {
				s, err := experiments.Fig2(p, bg, cse)
				if err != nil {
					return err
				}
				if err := emit(w, p, fmt.Sprintf("fig2-%s-case%d", bg, cse), s.String(), s.CSV()); err != nil {
					return err
				}
			}
		}
		return nil
	}},
	{"table3", func(w io.Writer, _ experiments.Params) error {
		cols, err := experiments.TableIII()
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatTableIII(cols))
		return nil
	}},
	{"perswitch", func(w io.Writer, p experiments.Params) error {
		rows, err := experiments.PerSwitchStudy(p)
		if err != nil {
			return err
		}
		return emit(w, p, "perswitch", experiments.FormatPerSwitch(rows, false), experiments.FormatPerSwitch(rows, true))
	}},
	series("fig7a", experiments.Fig7Hops),
	series("fig7b", experiments.Fig7PktSize),
	series("fig7c", experiments.Fig7Slot),
	series("fig7d", experiments.Fig7Background),
	series("qos", experiments.CommercialVsCustomizedQoS),
	{"sync", func(w io.Writer, p experiments.Params) error {
		res := experiments.SyncPrecision(p.Seed)
		fmt.Fprintf(w, "E-SYNC — gPTP precision (6-switch ring, ±50ppm oscillators)\n")
		fmt.Fprintf(w, "  steady-state worst offset: %v (target < 50ns)\n", res.SteadyState)
		fmt.Fprintf(w, "  converged after:           %v\n\n", res.ConvergedAfter)
		return nil
	}},
	table("itp", experiments.ITPAblation, experiments.FormatITP),
	table("tas", experiments.TASvsCQF, experiments.FormatTAS),
	{"threshold", func(w io.Writer, p experiments.Params) error {
		rows, err := experiments.ThresholdStudy(p)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.FormatThreshold(rows))
		planned, naive, err := experiments.NoITPStudy(p, 6)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  with depth 6: planned-injection loss %.2f%%, naive-injection loss %.2f%% (highwater %d vs %d)\n\n",
			100*planned.TSLossRate, 100*naive.TSLossRate, planned.HighWater, naive.HighWater)
		return nil
	}},
	table("cbs", experiments.CBSStudy, experiments.FormatCBS),
	table("deadline", experiments.DeadlineStudy, experiments.FormatDeadline),
	table("desync", experiments.DesyncStudy, experiments.FormatDesync),
	table("sms", experiments.SMSStudy, experiments.FormatSMS),
	table("preempt", experiments.PreemptStudy, experiments.FormatPreempt),
	table("rate", experiments.RateStudy, experiments.FormatRate),
	table("scale", experiments.ScaleStudy, experiments.FormatScale),
	{"platform", func(w io.Writer, _ experiments.Params) error {
		rows, err := experiments.PlatformAblation()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "E-PLATFORM — same customization, different cost models (ring config)")
		for _, r := range rows {
			fmt.Fprintf(w, "  %-10s %8.1fKb\n", r.Platform, r.TotalKb)
		}
		fmt.Fprintln(w)
		return nil
	}},
}

// expIDs is every -exp id: the catalog's, in order, then "all".
var expIDs = func() (ids string) {
	for _, e := range catalog {
		ids += e.id + " "
	}
	return ids + "all"
}()

// run executes experiment exp, or every one in order for "all".
func run(w io.Writer, exp string, p experiments.Params) error {
	did := false
	for _, e := range catalog {
		if exp == "all" || exp == e.id {
			did = true
			if err := e.run(w, p); err != nil {
				return err
			}
		}
	}
	if !did {
		return fmt.Errorf("unknown experiment %q (want one of: %s)", exp, expIDs)
	}
	return nil
}
