package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The quartiles must be the ones Python's statistics.quantiles(v, n=4)
// returns, because that is what the acceptance check computes from the
// same rows.
func TestDistMatchesPythonQuantiles(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{4, 4, 4}, 4, 4, 4},
		{[]float64{7, 1, 3}, 1, 3, 7},
	}
	for _, c := range cases {
		d := distOf(c.xs)
		if !near(d.Q1, c.q1) || !near(d.Med, c.med) || !near(d.Q3, c.q3) || d.N != len(c.xs) {
			t.Errorf("distOf(%v) = %+v, want quartiles %v %v %v", c.xs, d, c.q1, c.med, c.q3)
		}
	}
	if xs := []float64{3, 1, 2}; distOf(xs).Med != 2 || xs[0] != 3 {
		t.Errorf("distOf must not reorder its argument: %v", xs)
	}
}

func TestBestDecile(t *testing.T) {
	xs := make([]float64, 0, 19)
	for i := 1; i <= 19; i++ {
		xs = append(xs, float64(i))
	}
	d := distOf(xs) // deciles 2 and 18
	if !near(d.Best(true), 18) || !near(d.Best(false), 2) {
		t.Errorf("best decile = %v / %v, want 18 (rate) and 2 (time)", d.Best(true), d.Best(false))
	}
}

func TestPercentileSampleCountGuard(t *testing.T) {
	sorted := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	// p99 of 1000 samples is rank 990 with exactly 10 beyond it.
	if v, ok := percentile(sorted(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1000 = %v ok=%v, want 990 true", v, ok)
	}
	// One sample fewer leaves 9 beyond it: no p99.
	if _, ok := percentile(sorted(999), 0.99); ok {
		t.Error("p99 reported with fewer than 10 samples beyond it")
	}
	if v, ok := percentile(sorted(999), 0.50); !ok || v != 500 {
		t.Errorf("p50 of 999 = %v ok=%v, want 500 true", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of nothing")
	}
	// The highest supported percentile degrades with the sample.
	for _, c := range []struct {
		n int
		q float64
	}{{20000, 0.999}, {5000, 0.99}, {200, 0.90}} {
		if q, _, ok := highestPercentile(sorted(c.n)); !ok || q != c.q {
			t.Errorf("highestPercentile(n=%d) = p%g ok=%v, want p%g", c.n, 100*q, ok, 100*c.q)
		}
	}
	if _, _, ok := highestPercentile(sorted(50)); ok {
		t.Error("50 samples support no tail percentile")
	}
}

func TestFailedShare(t *testing.T) {
	if got := failedShare(0, 716800); got != 0 {
		t.Errorf("clean run = %v", got)
	}
	if got := failedShare(3, 12); got != 0.25 {
		t.Errorf("3 of 12 = %v", got)
	}
	// A generator that attempted nothing has not passed.
	if got := failedShare(0, 0); got != 1 {
		t.Errorf("nothing attempted = %v, want 1", got)
	}
	r := Result{Attempted: 10}
	if !r.Correct() {
		t.Error("no failures, no problems: correct")
	}
	r.Failed = 1
	if r.Correct() {
		t.Error("a failed operation must fail the gate")
	}
	r = Result{Attempted: 10, Problems: []string{"digest differs"}}
	if r.Correct() {
		t.Error("a broken invariant must fail the gate")
	}
}

func TestWorseByDirection(t *testing.T) {
	if got := worseBy(100, 90, true); !near(got, 0.10) {
		t.Errorf("rate fell 10%%: worseBy = %v", got)
	}
	if got := worseBy(100, 110, true); !near(got, -0.10) {
		t.Errorf("rate rose 10%%: worseBy = %v", got)
	}
	if got := worseBy(2, 2.5, false); !near(got, 0.25) {
		t.Errorf("time rose 25%%: worseBy = %v", got)
	}
	if got := worseBy(0, 0, false); got != 0 {
		t.Errorf("0 → 0 = %v", got)
	}
	if got := worseBy(0, 1, false); !math.IsInf(got, 1) {
		t.Errorf("0 → 1 = %v, want +Inf", got)
	}
}
