package experiments

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// TestParallelDeterminism is the harness's core guarantee: the same
// sweep run serially and on an oversubscribed worker pool produces
// byte-identical output.
func TestParallelDeterminism(t *testing.T) {
	serial := ShortParams()
	serial.Parallel = 1
	par := ShortParams()
	par.Parallel = 8

	s1, err := Fig7Hops(serial)
	if err != nil {
		t.Fatal(err)
	}
	s8, err := Fig7Hops(par)
	if err != nil {
		t.Fatal(err)
	}
	if s1.CSV() != s8.CSV() {
		t.Errorf("Fig7Hops CSV differs between -parallel 1 and -parallel 8:\nserial:\n%s\nparallel:\n%s",
			s1.CSV(), s8.CSV())
	}
	if s1.String() != s8.String() {
		t.Errorf("Fig7Hops table rendering differs between -parallel 1 and -parallel 8")
	}
}

// TestParallelMetricsParity checks the scratch-and-merge telemetry
// path: the accumulated registry export must not depend on worker
// count or completion order — for a figure and for one of the studies
// that used to build their networks outside Params.Metrics.
func TestParallelMetricsParity(t *testing.T) {
	for _, st := range Catalog {
		if st.ID != "fig7a" && st.ID != "rate" {
			continue
		}
		export := func(parallel int) string {
			p := ShortParams()
			p.Parallel = parallel
			p.Metrics = metrics.New()
			if _, err := st.Run(p); err != nil {
				t.Fatal(err)
			}
			var b bytes.Buffer
			if err := p.Metrics.Snapshot().WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}
		serial := export(1)
		par := export(8)
		if serial == "" {
			t.Fatalf("%s: serial export is empty — instrumentation not wired?", st.ID)
		}
		if serial != par {
			t.Errorf("%s: metrics export differs between -parallel 1 and -parallel 8:\nserial:\n%s\nparallel:\n%s",
				st.ID, serial, par)
		}
	}
}

// TestStudiesInstrumentParamsMetrics holds Params.Metrics to its doc:
// every study that builds a testbed.Net leaves its events in the
// caller's registry (rate, tas, cbs and sms once did not).
func TestStudiesInstrumentParamsMetrics(t *testing.T) {
	// No testbed.Net: arithmetic, a bare gPTP domain, a bare switch.
	bare := map[string]bool{"table1": true, "table3": true, "perswitch": true,
		"sync": true, "itp": true, "platform": true, "preempt": true}
	for _, st := range Catalog {
		if bare[st.ID] {
			continue
		}
		p := Params{TSFlows: 32, Duration: 10 * sim.Millisecond, Seed: 42, Metrics: metrics.New()}
		if _, err := st.Run(p); err != nil {
			t.Fatalf("%s: %v", st.ID, err)
		}
		if p.Metrics.CounterValue("tsn_sim_events_total") == 0 {
			t.Errorf("%s: tsn_sim_events_total = 0 in Params.Metrics", st.ID)
		}
	}
}

// TestSweepErrorPropagation: the lowest-index error wins regardless of
// worker scheduling, matching the serial loop's behavior.
func TestSweepErrorPropagation(t *testing.T) {
	errBoom := errors.New("boom")
	for _, parallel := range []int{1, 8} {
		p := ShortParams()
		p.Parallel = parallel
		_, err := sweep(p, 16, func(i int, rp Params) (int, error) {
			if i == 3 || i == 11 {
				return 0, errBoom
			}
			return i, nil
		})
		if !errors.Is(err, errBoom) {
			t.Errorf("parallel=%d: want errBoom, got %v", parallel, err)
		}
	}
}

// TestSweepOrderAndCoverage: every index runs at most once and results
// land at their sweep position.
func TestSweepOrderAndCoverage(t *testing.T) {
	const n = 64
	var calls atomic.Int64
	p := ShortParams()
	p.Parallel = 8
	out, err := sweep(p, n, func(i int, rp Params) (int, error) {
		calls.Add(1)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != n {
		t.Errorf("want %d calls, got %d", n, got)
	}
	for i, v := range out {
		if v != i*i {
			t.Errorf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}
