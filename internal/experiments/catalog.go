package experiments

import (
	"fmt"
	"math"
)

// Metric is one headline number of a study and its benchmark unit.
type Metric struct {
	Unit  string
	Value float64
}

// Report is a finished study, rendered.
type Report struct {
	// Text is the section tsnbench prints, closing blank line included.
	Text string
	// CSV is the study's plottable form, written as CSVName.csv under
	// `tsnbench -csv DIR`; both empty for a study that has none.
	CSVName, CSV string
	// Metrics are what the study's benchmark reports next to ns/op.
	Metrics []Metric
}

// Result is a finished study not rendered yet: a benchmark loop keeps
// the last one and so times the study, not its formatting.
type Result func() Report

// Study is one entry of the Catalog.
type Study struct {
	// ID is the `tsnbench -exp` id. Consecutive entries may share one —
	// fig2 is four series, threshold a sweep and the planned-vs-naive
	// pair that closes it — and tsnbench runs them in order.
	ID string
	// Anchor is what the study reproduces or probes in the paper, in
	// DESIGN.md §6's words.
	Anchor string
	// Bench is its benchmark in bench_test.go; empty when a test pins it.
	Bench string
	Run   func(Params) (Result, error)
}

// study makes a catalog entry of a typed study function and the
// rendering of what it returns.
func study[R any](id, anchor, bench string, run func(Params) (R, error), render func(R) Report) Study {
	return Study{ID: id, Anchor: anchor, Bench: bench, Run: func(p Params) (Result, error) {
		r, err := run(p)
		if err != nil {
			return nil, err
		}
		return func() Report { return render(r) }, nil
	}}
}

// table renders a study as its formatted section closed by a blank line,
// with the given headline metrics.
func table[R any](format func(R) string, metrics func(R) []Metric) func(R) Report {
	return func(r R) Report { return Report{Text: format(r) + "\n", Metrics: metrics(r)} }
}

// latency renders a series under its CSV name; the headline is the last
// row's mean, jitter and loss.
func latency(csvName string) func(*Series) Report {
	return func(s *Series) Report {
		last := s.Rows[len(s.Rows)-1]
		return Report{Text: s.String() + "\n", CSVName: csvName, CSV: s.CSV(), Metrics: []Metric{
			{"mean_µs", last.Mean.Micros()}, {"jitter_µs", last.Jitter.Micros()}, {"loss_%", 100 * last.LossRate},
		}}
	}
}

// fig2 is one series of Fig. 2; the benchmarks time the Case 2 ones.
func fig2(background string, caseCfg int, bench string) Study {
	return study("fig2", "Fig. 2(a,b)", bench,
		func(p Params) (*Series, error) { return Fig2(p, background, caseCfg) },
		latency(fmt.Sprintf("fig2-%s-case%d", background, caseCfg)))
}

// Catalog is every study, in the order `tsnbench -exp all` runs them.
// It is the only list: tsnbench, the study benchmarks and the drift
// test over EXPERIMENTS.md and DESIGN.md §6 all read this one.
var Catalog = []Study{
	study("table1", "Table I", "BenchmarkTableI",
		func(Params) ([]TableIRow, error) { return TableI(), nil },
		table(FormatTableI, func(r []TableIRow) []Metric { return []Metric{{"savedKb", r[0].TotalKb - r[1].TotalKb}} })),
	fig2("BE", 1, ""),
	fig2("BE", 2, "BenchmarkFig2BE"),
	fig2("RC", 1, ""),
	fig2("RC", 2, "BenchmarkFig2RC"),
	study("table3", "Table III", "BenchmarkTableIII",
		func(Params) ([]TableIIIColumn, error) { return TableIII() },
		func(c []TableIIIColumn) Report { // its format ends in the blank line already
			return Report{Text: FormatTableIII(c), Metrics: []Metric{{"ring_reduction_%", c[3].Reduction}}}
		}),
	// Arithmetic pinned to the digit by TestPerSwitchStudyValues: a
	// benchmark would add nothing.
	study("perswitch", "§III.C guideline (1), Table III", "", PerSwitchStudy, func(r []PerSwitchRow) Report {
		return Report{Text: FormatPerSwitch(r, false) + "\n", CSVName: "perswitch", CSV: FormatPerSwitch(r, true)}
	}),
	study("fig7a", "Fig. 7(a)", "BenchmarkFig7Hops", Fig7Hops, latency("fig7a")),
	study("fig7b", "Fig. 7(b)", "BenchmarkFig7PktSize", Fig7PktSize, latency("fig7b")),
	study("fig7c", "Fig. 7(c)", "BenchmarkFig7Slot", Fig7Slot, latency("fig7c")),
	study("fig7d", "Fig. 7(d)", "BenchmarkFig7Background", Fig7Background, latency("fig7d")),
	study("qos", "§IV.C summary", "BenchmarkQoSEquivalence", CommercialVsCustomizedQoS, func(s *Series) Report {
		rep := latency("qos")(s)
		rep.Metrics = []Metric{{"mean_diff_µs", math.Abs((s.Rows[0].Mean - s.Rows[1].Mean).Micros())}}
		return rep
	}),
	study("sync", "§IV.A claim", "BenchmarkGPTPPrecision",
		func(p Params) (SyncResult, error) { return SyncPrecision(p.Seed), nil },
		table(FormatSync, func(res SyncResult) []Metric { return []Metric{{"steady_ns", float64(res.SteadyState)}} })),
	study("itp", "§III.C/§V ablation", "BenchmarkITPAblation", ITPAblation, table(FormatITP, func(r []ITPRow) []Metric {
		return []Metric{{"savedKb", r[0].QueueBufKb - r[len(r)-1].QueueBufKb}}
	})),
	study("tas", "Gate Ctrl scope", "BenchmarkTASvsCQF", TASvsCQF, table(FormatTAS, func(r []Row) []Metric {
		return []Metric{
			{"cqf_mean_µs", r[0].Mean.Micros()}, {"tas_mean_µs", r[1].Mean.Micros()},
			{"tas_gate_entries", float64(r[1].GateSize)},
		}
	})),
	study("threshold", "Table I claim", "BenchmarkThresholdStudy", ThresholdStudy, func(r []Row) Report {
		rep := Report{Text: FormatThreshold(r)} // no blank line: the pair below closes the section
		for _, row := range r {
			if row.LossRate == 0 { // the knee: the smallest zero-loss depth
				rep.Metrics = []Metric{{"threshold_depth", float64(row.QueueDepth)}}
				break
			}
		}
		return rep
	}),
	study("threshold", "Table I claim", "",
		func(p Params) ([]Row, error) { return NoITPStudy(p, 6) },
		table(FormatNoITP, func([]Row) []Metric { return nil })),
	study("cbs", "Egress Sched rationale", "BenchmarkCBSStudy", CBSStudy, table(FormatCBS, func(r []CBSRow) []Metric {
		return []Metric{{"bare_be_p99_µs", r[0].BEP99.Micros()}, {"shaped_be_p99_µs", r[1].BEP99.Micros()}}
	})),
	study("deadline", "Fig. 7(c) × IEC 60802", "BenchmarkDeadlineStudy", DeadlineStudy, table(FormatDeadline, func(r []Row) []Metric {
		return []Metric{{"misses_at_520µs_%", 100 * r[len(r)-1].MissRate()}}
	})),
	study("desync", "Time Sync rationale", "BenchmarkDesyncStudy", DesyncStudy, table(FormatDesync, func(r []Row) []Metric {
		worst := r[0].Jitter
		for _, row := range r {
			worst = max(worst, row.Jitter)
		}
		return []Metric{{"worst_jitter_µs", worst.Micros()}}
	})),
	study("sms", "§VI ref [16]", "BenchmarkSMSStudy", SMSStudy, table(FormatSMS, func(r []SMSRow) []Metric {
		return []Metric{{"sharedSavesKb", r[0].BufferKb - r[1].BufferKb}}
	})),
	study("preempt", "MAC extension", "BenchmarkPreemptStudy", PreemptStudy, table(FormatPreempt, func(r []PreemptRow) []Metric {
		return []Metric{{"plain_max_µs", r[0].TSMax.Micros()}, {"preempt_max_µs", r[1].TSMax.Micros()}}
	})),
	study("rate", "§III.C slot guideline", "BenchmarkRateStudy", RateStudy, table(FormatRate, func(r []Row) []Metric {
		return []Metric{{"loss_at_10Mbps_%", 100 * r[len(r)-1].LossRate}}
	})),
	// Events/sec per partition count plus the 4-partition speedup over
	// the serial engine. Speedup tracks available cores: on a single-core
	// host the partition counts measure synchronization overhead only.
	study("scale", "beyond the paper (§16)", "BenchmarkPartitionedRun", ScaleStudy, table(FormatScale, func(r []ScaleRow) []Metric {
		var ms []Metric
		for _, row := range r {
			ms = append(ms, Metric{fmt.Sprintf("p%d_ev/s", row.Partitions), row.EventsPerSec})
			if row.Partitions == 4 {
				ms = append(ms, Metric{"speedup_4p", row.Speedup})
			}
		}
		return append(ms, Metric{"events", float64(r[0].Events)})
	})),
	study("platform", "§III.B claim", "BenchmarkPlatformAblation",
		func(Params) ([]PlatformRow, error) { return PlatformAblation() },
		table(FormatPlatform, func(r []PlatformRow) []Metric { return []Metric{{"blockOverheadKb", r[0].TotalKb - r[1].TotalKb}} })),
}
