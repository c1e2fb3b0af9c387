package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs,
// which must be sorted ascending; 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(n))) - 1
	return sorted[min(max(i, 0), n-1)]
}

// tailPercentiles are the percentiles a timing may be reported at,
// highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// tailPercentile returns the highest reportable percentile that leaves
// at least ten of n samples beyond it — p95 needs 200 samples, p99.9
// needs 10,000 — and false when not even the median does.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), as Python's statistics.median computes it.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles of xs by the method
// Python's statistics.quantiles(xs, n=4) uses by default ('exclusive').
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the distance between the quartiles as a share of the
// median: the run-to-run noise a bound must exceed to mean anything.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// Verdicts of a comparison between a baseline's runs and a change's.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares a change's runs of metric m against the baseline's.
// The change is worse when its median is worse than the baseline's by
// more than the bound (or the floor, when larger); better when its
// median is better by more than the distance between the baseline's
// quartiles; same otherwise. When either side's spread exceeds the
// bound the comparison says nothing at that resolution, and the
// verdict is unresolved — unless every run of the change reads better
// than every run of the baseline.
func judge(m metricSpec, base, change []float64) string {
	if len(base) == 0 || len(change) == 0 {
		return verdictUnresolved
	}
	mb, mc := median(base), median(change)
	// gain > 0 means the change moved the metric in its better direction.
	gain := mb - mc
	if m.Better == "higher" {
		gain = -gain
	}
	if max(spread(base), spread(change)) > m.Bound {
		if allBetter(m, base, change) {
			return verdictBetter
		}
		return verdictUnresolved
	}
	allow := max(m.Bound*math.Abs(mb), m.Floor)
	if -gain > allow {
		return verdictWorse
	}
	q1, q3 := quartiles(base)
	if gain > q3-q1 && gain > 0 {
		return verdictBetter
	}
	return verdictSame
}

// allBetter reports whether every run of change reads better than every
// run of base.
func allBetter(m metricSpec, base, change []float64) bool {
	if m.Better == "higher" {
		return slices.Min(change) > slices.Max(base)
	}
	return slices.Max(change) < slices.Min(base)
}
