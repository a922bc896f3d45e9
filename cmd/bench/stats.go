package main

import (
	"sort"
	"time"

	"repro/internal/metrics"
)

// median averages the two middle values on an even count, as Python's
// statistics.median does — the combiner the A/A table and the driver use.
func median(xs []float64) float64 { return metrics.Percentile(xs, 50) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// midMean is the mean of xs without its lowest and its highest value (of
// three values, the median). A run's setup_s is taken this way: a start
// that ran into a stall is dropped like the median drops it, but where
// starts fall into two groups — the router's children become ready on one
// health-probe tick or the next, 0.20 s or 0.27 s — the value moves with
// how many fell into each, where the median jumps from one group to the
// other.
func midMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) > 2 {
		s = s[1 : len(s)-1]
	}
	return mean(s)
}

// passSpread is (max − min) / median over the per-pass values: how far the
// passes of one run disagree, the instrument's own noise reading.
func passSpread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (metrics.Percentile(xs, 100) - metrics.Percentile(xs, 0)) / m
}

// quartileDistance is Q3 − Q1 as Python's statistics.quantiles(xs, n=4)
// (the exclusive method) computes them, as a share of the median.
func quartileDistance(xs []float64) float64 {
	n := len(xs)
	m := median(xs)
	if n < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / m
}

// latencyOrigin is the paced pass's rule for where a request's latency
// starts. When the session's previous request had completed by the due
// time the generator alone decides the send instant, so the origin is the
// actual send time and the generator's timer overshoot (returned as late)
// is not charged to the server. When the previous request was still in
// flight at the due time the request was queued behind a server stall, so
// the origin is the due time and the stall is charged to it.
func latencyOrigin(due, prevDone, sent time.Time) (origin time.Time, late time.Duration) {
	if prevDone.After(due) {
		return due, 0
	}
	return sent, sent.Sub(due)
}

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
