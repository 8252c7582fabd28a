package main

import (
	"fmt"
	"io"
	"math"
	"time"
)

// printResult renders one workload run for a human: every metric by
// name with its unit, the spread of the rounds behind each timing, the
// failed share and every correctness problem.
func printResult(w io.Writer, res *Result) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s · %s · seed %d · GOMAXPROCS %d · %d timed rounds + 1 warm-up\n",
		res.Workload, mode, res.Seed, res.Procs, res.Rounds)
	if res.Traced {
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-32s %16.6g %s\n", m.Name, res.Metrics[m.Name], m.Unit)
		}
		fmt.Fprintf(w, "  -- span self time (duration minus the part child spans cover)\n")
		fmt.Fprintf(w, "  %-34s %8s %12s %12s\n", "span", "count", "total ms", "self ms")
		for _, st := range selfTimes(res.Spans) {
			fmt.Fprintf(w, "  %-34s %8d %12.2f %12.2f\n", st.Name, st.Count,
				float64(st.TotalNs)/1e6, float64(st.SelfNs)/1e6)
		}
		fmt.Fprintf(w, "  span file: %s (%d spans)\n", res.SpanFile, len(res.Spans))
	} else {
		for _, m := range endToEnd {
			fmt.Fprintf(w, "  %-20s %14.6g %-5s", m.Name, res.Metrics[m.Name], m.Unit)
			if d, ok := res.Dists[m.Name]; ok {
				fmt.Fprintf(w, "  best-decile round; median %.6g, quartiles %.6g–%.6g, %d rounds",
					d.Med, d.Q1, d.Q3, d.N)
			}
			fmt.Fprintln(w)
		}
	}
	if res.LatSamples > 0 {
		fmt.Fprintf(w, "  client latency over %d pooled samples: p50 %.4g ms", res.LatSamples, res.Metrics["lat_p50_ms"])
		if res.TailQ > 0 {
			fmt.Fprintf(w, ", p%g %.4g ms (highest percentile with ≥%d samples beyond it)",
				100*res.TailQ, res.TailMs, tailGuard)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  failed_share %.6g (%d of %d operations)\n",
		failedShare(res.Failed, res.Attempted), res.Failed, res.Attempted)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  FAIL: %s\n", p)
	}
	fmt.Fprintf(w, "  correct: %v\n", res.Correct())
}

// runSet runs every workload in table order — untraced, then (when
// traced is non-nil) traced straight after, so the two runs whose
// difference is the tracing overhead see the host in the same mood.
// mesh-serial's digest is handed to mesh-part as its serial reference.
func runSet(w io.Writer, seed uint64, budget time.Duration, procs int, traced map[string]*Result, spanPath string) (map[string]*Result, bool, error) {
	plain := make(map[string]*Result, len(workloads))
	ok := true
	for _, def := range workloads {
		ref := ""
		if def.Name == "mesh-part" {
			ref = plain["mesh-serial"].Digest
		}
		res, err := runOne(def, seed, budget, procs, false, "", ref)
		if err != nil {
			return nil, false, err
		}
		printResult(w, res)
		plain[def.Name] = res
		ok = ok && res.Correct()
		if traced == nil {
			continue
		}
		path := spanPath
		if path != "" {
			path += "." + def.Name
		}
		if res, err = runOne(def, seed, budget, procs, true, path, ref); err != nil {
			return nil, false, err
		}
		printResult(w, res)
		traced[def.Name] = res
		ok = ok && res.Correct()
	}
	return plain, ok, nil
}

// fullSet is the one command: every workload untraced and traced, then
// the derived figures — tracing overhead and part_speedup.
func fullSet(w io.Writer, seed uint64, budget time.Duration, procs int, spanPath string) (bool, error) {
	traced := make(map[string]*Result, len(workloads))
	plain, ok, err := runSet(w, seed, budget, procs, traced, spanPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "== tracing overhead (1 − traced ÷ untraced ops_per_s; differences below the host's run-to-run spread are noise)\n")
	for _, def := range workloads {
		u, t := plain[def.Name].Metrics["ops_per_s"], traced[def.Name].Metrics["trace.ops_per_s"]
		fmt.Fprintf(w, "  %-14s untraced %12.6g  traced %12.6g  overhead %+.2f %%\n", def.Name, u, t, 100*(1-t/u))
	}
	serial, part := plain["mesh-serial"].Metrics["ops_per_s"], plain["mesh-part"].Metrics["ops_per_s"]
	fmt.Fprintf(w, "== part_speedup = ops_per_s@mesh-part ÷ ops_per_s@mesh-serial = %.6g ÷ %.6g = %.3f\n",
		part, serial, part/serial)
	fmt.Fprintf(w, "== all correct: %v\n", ok)
	return ok, nil
}

// selfcheck runs the untraced set twice and fails unless every
// end-to-end metric of every workload agrees within its own bound. The
// observed difference is printed beside each bound, so the bounds in
// BENCHMARK.json are measured, not guessed.
func selfcheck(w io.Writer, seed uint64, budget time.Duration, procs int) (bool, error) {
	a, okA, err := runSet(w, seed, budget, procs, nil, "")
	if err != nil {
		return false, err
	}
	b, okB, err := runSet(w, seed, budget, procs, nil, "")
	if err != nil {
		return false, err
	}
	ok := okA && okB
	fmt.Fprintf(w, "== selfcheck: two sets of the same code, |second − first| ÷ first against the bound\n")
	fmt.Fprintf(w, "  %-14s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, def := range workloads {
		for _, m := range endToEnd {
			x, y := a[def.Name].Metrics[m.Name], b[def.Name].Metrics[m.Name]
			diff := math.Abs(worseBy(x, y, m.higherIsBetter()))
			verdict := ""
			if diff > m.Bound {
				verdict = "  OUTSIDE BOUND"
				ok = false
			}
			fmt.Fprintf(w, "  %-14s %-20s %14.6g %14.6g %8.2f%% %6.0f%%%s\n",
				def.Name, m.Name, x, y, 100*diff, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintf(w, "== selfcheck passed: %v\n", ok)
	return ok, nil
}
