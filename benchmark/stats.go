package main

import (
	"math"
	"sort"
)

// Dist summarises the per-round samples of one timing metric.
type Dist struct {
	N           int
	Q1, Med, Q3 float64
	// P10/P90 are the deciles; the one on the metric's good side is
	// the reported value (see Best).
	P10, P90 float64
}

// quantileSorted interpolates the q-quantile of an ascending slice the
// way Python's statistics.quantiles (default "exclusive" method) does,
// so the spread printed here is the one the acceptance check computes
// from the same rows.
func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	pos := q*float64(n+1) - 1
	pos = math.Max(0, math.Min(pos, float64(n-1)))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// distOf returns the median and quartiles of xs (xs is not modified).
func distOf(xs []float64) Dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Dist{
		N:   len(s),
		Q1:  quantileSorted(s, 0.25),
		Med: quantileSorted(s, 0.50),
		Q3:  quantileSorted(s, 0.75),
		P10: quantileSorted(s, 0.10),
		P90: quantileSorted(s, 0.90),
	}
}

// Best is the best-decile round: the 90th percentile of a rate, the
// 10th of a time. Other tenants of the host only ever slow a round
// down, and they do so in phases that outlast a round, so the median
// round measures the neighbours as much as the program; the best
// decile is what the program does when left alone. The median and
// quartiles are still printed beside it.
func (d Dist) Best(higherIsBetter bool) float64 {
	if higherIsBetter {
		return d.P90
	}
	return d.P10
}

func median(xs []float64) float64 { return distOf(xs).Med }

// tailGuard is how many samples must lie beyond a percentile before it
// is reported: a p99 over fewer than 1000 samples is the maximum by
// another name.
const tailGuard = 10

// percentile returns the q-quantile (nearest rank) of the pooled
// latency samples and whether the sample supports it: at least
// tailGuard samples must lie strictly beyond the returned rank.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank], n-1-rank >= tailGuard
}

// highestPercentile picks the highest of p99.9, p99, p90 that the
// sample count supports, so a short run reports p90 instead of a
// meaningless p99.
func highestPercentile(sorted []float64) (q, v float64, ok bool) {
	for _, q := range []float64{0.999, 0.99, 0.90} {
		if v, ok := percentile(sorted, q); ok {
			return q, v, true
		}
	}
	return 0, 0, false
}

// failedShare is failed ÷ attempted; an empty workload has failed
// nothing only in the vacuous sense, so it reports 1 (all failed) to
// keep a broken generator from passing the gate.
func failedShare(failed, attempted uint64) float64 {
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// worseBy returns by what share of base the value got worse (positive)
// or better (negative) in the metric's own direction.
func worseBy(base, v float64, higherIsBetter bool) float64 {
	if base == 0 {
		if v == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (v - base) / math.Abs(base)
	if higherIsBetter {
		return -d
	}
	return d
}
