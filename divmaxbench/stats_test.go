package main

import (
	"math"
	"testing"
)

func TestPercentileAndSampleRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	// The tail percentile needs ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, {20, 0.5, true}, {99, 0.5, true}, {100, 0.9, true}, {199, 0.9, true},
		{200, 0.95, true}, {999, 0.95, true}, {1000, 0.99, true}, {9999, 0.99, true}, {10000, 0.999, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

// The expected values are those of Python's statistics.median and
// statistics.quantiles(xs, n=4).
func TestMedianAndQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 2.75, 8.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{4, 1}, 2.5, 0.25, 4.75},
		{[]float64{7}, 7, 7, 7},
		{[]float64{1.2, 1.5, 1.1, 1.4, 1.3, 1.6, 1.0}, 1.3, 1.1, 1.5},
	} {
		med := median(c.xs)
		q1, q3 := quartiles(c.xs)
		if !near(med, c.med) || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("%v: median %v quartiles %v, %v; want %v, %v, %v", c.xs, med, q1, q3, c.med, c.q1, c.q3)
		}
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread = %v", got)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestJudge(t *testing.T) {
	lat := metricSpec{Name: "query_p50_ms", Better: "lower", Bound: 0.1}
	tput := metricSpec{Name: "ingest_pts_per_s", Better: "higher", Bound: 0.1}
	setup, _ := findMetric("setup_s")
	steady := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.02, 9.98, 10.01, 9.99}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{6, 14, 8, 12, 10, 7, 13, 9, 11, 10}
	for _, c := range []struct {
		name         string
		m            metricSpec
		base, change []float64
		want         string
	}{
		{"unchanged", lat, steady, steady, verdictSame},
		{"within the bound", lat, steady, scale(steady, 1.05), verdictSame},
		{"past the bound", lat, steady, scale(steady, 1.2), verdictWorse},
		{"faster by more than the spread", lat, steady, scale(steady, 0.9), verdictBetter},
		{"throughput drop", tput, steady, scale(steady, 0.85), verdictWorse},
		{"throughput gain", tput, steady, scale(steady, 1.1), verdictBetter},
		{"noise wider than the bound", lat, noisy, scale(noisy, 0.95), verdictUnresolved},
		{"noisy but every run better", lat, noisy, scale(noisy, 0.4), verdictBetter},
		// Set-up time worse by 150%, but by 0.03 s, under the 0.05 s floor.
		{"set-up under the floor", setup, scale(steady, 0.002), scale(steady, 0.005), verdictSame},
		{"set-up past the floor", setup, scale(steady, 0.002), scale(steady, 0.008), verdictWorse},
		{"set-up past the share", setup, scale(steady, 0.1), scale(steady, 0.13), verdictWorse},
		{"no runs", lat, nil, steady, verdictUnresolved},
	} {
		if got := judge(c.m, c.base, c.change); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}
