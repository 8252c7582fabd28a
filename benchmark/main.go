// Command benchmark measures the system the way its two kinds of user
// meet it — someone running a simulation (workload.Build →
// testbed.Build → Net.Run, as cmd/tsnsim does) and a client of
// tsnserve (svc.NewService behind a loopback listener) — and prints
// every metric BENCHMARK.json names. It touches no layer's source.
//
//	go run ./benchmark                      every workload, untraced then traced, one report
//	go run ./benchmark -selfcheck           the untraced set twice; fails unless they agree within the bounds
//	go run ./benchmark -workload W -trace 0 one workload's end-to-end metrics, last line JSON
//	go run ./benchmark -workload W -trace 1 one workload's per-layer metrics, last line JSON
//
// See README.md for the metric, workload and layer tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	out       string
	selfcheck bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and end with a JSON result line (default: the full set)")
	flag.Uint64Var(&o.seed, "seed", 42, "every input derives from this")
	flag.IntVar(&o.seconds, "seconds", 15, "timed budget per workload run")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 1 records spans and reports the per-layer metrics instead")
	flag.StringVar(&o.out, "out", "", "span file of a traced run (default "+stateRoot+"/spans-<workload>.json)")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the untraced set twice and compare against the bounds")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -h")
		os.Exit(2)
	}
	// Generator and server share these cores; no workload starts more
	// client goroutines than this, and runOne sets GOMAXPROCS to what
	// the workload uses of it.
	procs := min(runtime.NumCPU(), 4)

	ok, err := run(o, procs, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func run(o options, procs int, w io.Writer) (bool, error) {
	budget := time.Duration(o.seconds) * time.Second
	switch {
	case o.workload != "":
		def, found := findWorkload(o.workload)
		if !found {
			return false, fmt.Errorf("unknown workload %q", o.workload)
		}
		res, err := runOne(def, o.seed, budget, procs, o.trace == 1, o.out, "")
		if err != nil {
			return false, err
		}
		printResult(w, res)
		return res.Correct(), printJSONLine(w, res)
	case o.selfcheck:
		return selfcheck(w, o.seed, budget, procs)
	default:
		return fullSet(w, o.seed, budget, procs, o.out)
	}
}

// runOne runs one workload once, traced or untraced. serialDigest,
// when non-empty, is the mesh-serial export digest of the same inputs
// (the full set has it at hand); otherwise mesh-part takes an untimed
// serial reference run itself.
func runOne(def WorkloadDef, seed uint64, budget time.Duration, procs int, traced bool, spanPath, serialDigest string) (*Result, error) {
	var tr *Tracer
	if traced {
		tr = newTracer(def.Name)
		// Half the budget for traced rounds; the probes take the rest.
		budget /= 2
	}
	var round roundFunc
	var in dataplaneInput
	switch def.Name {
	case "derive-cold", "derive-hot":
		round = deriveRound(seed, def.Name == "derive-hot", procs)
	case "reconfig":
		// One client and one control loop are one request in flight. On
		// a second P every hand-over between client, handler and loop
		// becomes a cross-vCPU wake-up, whose cost is the hypervisor's:
		// measured on the development VM it made this workload a third
		// slower and no steadier.
		procs = 1
		round = reconfigRound(seed, false)
	default:
		var err error
		if in, err = dataplaneInputs(def.Name, seed, procs); err != nil {
			return nil, err
		}
		round = dataplaneRound(in)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	res, rounds, err := runRounds(def.Name, seed, budget, tr, round)
	if err != nil {
		return nil, err
	}
	res.Procs = procs
	if in.Partitions > 1 {
		if serialDigest == "" {
			if serialDigest, err = serialReference(in); err != nil {
				return nil, err
			}
		}
		if res.Digest != serialDigest {
			res.Problems = append(res.Problems, fmt.Sprintf(
				"partitioned export digest %.12s differs from the serial reference %.12s", res.Digest, serialDigest))
		}
	}
	if !traced {
		return res, nil
	}

	layers := make(map[string]float64, len(perLayer))
	layers["trace.ops_per_s"] = res.Metrics["ops_per_s"]
	if def.Service {
		err = serviceLayers(tr, def, seed, procs, res, rounds, layers)
	} else {
		err = dataplaneLayers(tr, in, res, rounds, layers)
	}
	if err != nil {
		return nil, fmt.Errorf("%s probes: %w", def.Name, err)
	}
	res.Metrics = layers
	res.Problems = append(res.Problems, assertBypass(def.Name, layers)...)
	res.Spans = tr.Spans()
	if spanPath == "" {
		spanPath = filepath.Join(stateRoot, "spans-"+def.Name+".json")
	}
	if err := writeSpans(spanPath, res.Spans); err != nil {
		return nil, err
	}
	res.SpanFile = spanPath
	return res, nil
}

// printJSONLine writes the machine-readable result as the last line:
// the end-to-end metrics of an untraced run, the per-layer metrics of
// a traced one.
func printJSONLine(w io.Writer, res *Result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	table := endToEnd
	if res.Traced {
		table = perLayer
	}
	metrics := make(map[string]value, len(table))
	for _, m := range table {
		metrics[m.Name] = value{res.Metrics[m.Name], m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct(), res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
