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
// -serve. It only runs at quiescent points (between studies), so it
// never races the sweeps' hot-path registry writes.
func publishTelemetry(reg *metrics.Registry) {
	if telemetry != nil {
		telemetry.Publish(reg.Snapshot(), nil)
	}
}

// telemetryDrainTimeout bounds how long the exit path waits for
// in-flight requests before force-closing their connections.
const telemetryDrainTimeout = 5 * time.Second

// serveTelemetry starts the telemetry server over the accumulated
// experiment registry (/metrics refreshes after every study,
// /debug/pprof profiles the runner live) and returns it with its address.
func serveTelemetry(addr string, reg *metrics.Registry) (*obs.Server, string, error) {
	srv := obs.NewServer(nil, nil)
	srv.MountPublished(nil)
	srv.Publish(reg.Snapshot(), nil)
	bound, err := srv.Listen(addr)
	if err != nil {
		return nil, "", err
	}
	fmt.Printf("telemetry: live on http://%s (/metrics /debug/pprof)\n", bound)
	return srv, bound, nil
}

// csvOut, when set, receives one CSV file per study that has a CSV form.
var csvOut string

// expIDs is every -exp id: the catalog's, in order, then "all".
var expIDs = func() (ids string) {
	for i, st := range experiments.Catalog {
		if i == 0 || st.ID != experiments.Catalog[i-1].ID {
			ids += st.ID + " "
		}
	}
	return ids + "all"
}()

// run executes every catalog study filed under exp, or all of them in
// order for "all": prints its text to w, refreshes the served
// telemetry and writes its CSV form, if it has one, into csvOut.
func run(w io.Writer, exp string, p experiments.Params) error {
	did := false
	for _, st := range experiments.Catalog {
		if exp != "all" && exp != st.ID {
			continue
		}
		did = true
		res, err := st.Run(p)
		if err != nil {
			return err
		}
		rep := res()
		fmt.Fprint(w, rep.Text)
		publishTelemetry(p.Metrics)
		if csvOut == "" || rep.CSVName == "" {
			continue
		}
		if err := os.MkdirAll(csvOut, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(csvOut, rep.CSVName+".csv"), []byte(rep.CSV), 0o644); err != nil {
			return err
		}
	}
	if !did {
		return fmt.Errorf("unknown experiment %q (want one of: %s)", exp, expIDs)
	}
	return nil
}
