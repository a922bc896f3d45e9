// Package metrics implements the evaluation measures the paper catalogs
// (Section 3), including the two frontend metrics it introduces:
//
//   - Latency Constraint Violation (LCV): the number of queries whose
//     results had not arrived when the user issued the next query — the
//     user-perceived delay of Figure 2, stricter than mean or max latency.
//   - Query Issuing Frequency (QIF): the rate and interval distribution at
//     which the frontend issues queries, a function of device sensing rate.
//
// It also provides the classical backend metrics (latency summaries,
// throughput, cache hit rate via storage.BufferPool), the Kullback–Leibler
// divergence used by the crossfiltering case study's result-driven query
// filter, accuracy (mean squared error), and CDF utilities used by the
// composite-interface case study.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Summary holds order statistics of a sample.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Median float64
	Stddev float64
}

// Summarize computes summary statistics. An empty sample yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Stddev = math.Sqrt(ss / float64(len(xs)))
	s.Median = Percentile(xs, 50)
	return s
}

// Percentile returns the p-th percentile (0–100) using linear
// interpolation between closest ranks. The input need not be sorted.
// The extremes (p<=0, p>=100) are answered by a single scan without
// copying or sorting — callers asking for the max should not pay
// O(n log n) and an allocation for it.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p <= 0 {
		m := xs[0]
		for _, x := range xs[1:] {
			if x < m {
				m = x
			}
		}
		return m
	}
	if p >= 100 {
		m := xs[0]
		for _, x := range xs[1:] {
			if x > m {
				m = x
			}
		}
		return m
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile over an already-sorted sample: callers
// reading several percentiles from one snapshot sort once and reuse the
// copy instead of paying one sort per percentile.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// CDF is an empirical cumulative distribution.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from a sample.
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the sample size.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, x)
	// Include equal values.
	for i < len(c.sorted) && c.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the smallest x with P(X <= x) >= q, for q in (0,1].
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	i := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c.sorted) {
		i = len(c.sorted) - 1
	}
	return c.sorted[i]
}

// Points returns up to n evenly spaced (x, P(X<=x)) pairs for rendering.
func (c *CDF) Points(n int) [][2]float64 {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	out := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(c.sorted) - 1) / max(n-1, 1)
		x := c.sorted[idx]
		out = append(out, [2]float64{x, float64(idx+1) / float64(len(c.sorted))})
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Durations converts a duration slice to float64 milliseconds, the unit the
// paper's figures use.
func Durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// --- Latency breakdown ------------------------------------------------------

// Breakdown decomposes user-perceived latency into the five components of
// §3.1.1: network (both legs), query scheduling, query execution,
// post-aggregation, and rendering. Reporting execution time alone is
// misleading — the total is what the user waits for.
type Breakdown struct {
	Network         time.Duration
	Scheduling      time.Duration
	Execution       time.Duration
	PostAggregation time.Duration
	Rendering       time.Duration
}

// Total returns the user-perceived latency.
func (b Breakdown) Total() time.Duration {
	return b.Network + b.Scheduling + b.Execution + b.PostAggregation + b.Rendering
}

// Dominant returns the name of the largest component (ties pick the
// earlier pipeline stage), identifying where optimization effort should go.
func (b Breakdown) Dominant() string {
	type comp struct {
		name string
		d    time.Duration
	}
	comps := []comp{
		{"network", b.Network},
		{"scheduling", b.Scheduling},
		{"execution", b.Execution},
		{"post-aggregation", b.PostAggregation},
		{"rendering", b.Rendering},
	}
	best := comps[0]
	for _, c := range comps[1:] {
		if c.d > best.d {
			best = c
		}
	}
	return best.name
}

// String renders the breakdown compactly.
func (b Breakdown) String() string {
	return fmt.Sprintf("net %v + sched %v + exec %v + agg %v + render %v = %v",
		b.Network, b.Scheduling, b.Execution, b.PostAggregation, b.Rendering, b.Total())
}

// --- Latency Constraint Violation ----------------------------------------

// DefaultConstraint is the repo-wide wall-clock latency constraint: the
// 500 ms threshold §3.1.1 cites as the added delay that is noticeable and
// depresses analysis behavior (Liu & Heer). The simulator's replay results
// and the serving layer both evaluate against this single constant unless
// the caller overrides it.
const DefaultConstraint = 500 * time.Millisecond

// OverConstraint counts latencies that exceed a fixed wall-clock
// constraint; pass 0 to use DefaultConstraint. This is the server-side
// companion to LCV: LCV asks "did the result arrive before the user's next
// action", OverConstraint asks "did the result arrive inside the published
// perceptual budget".
func OverConstraint(latencies []time.Duration, constraint time.Duration) int {
	if constraint <= 0 {
		constraint = DefaultConstraint
	}
	n := 0
	for _, l := range latencies {
		if l > constraint {
			n++
		}
	}
	return n
}

// LCV counts latency constraint violations in a query sequence: query i
// violates when its result arrives after query i+1 was issued (the user was
// still waiting when they acted again — Figure 2). The final query violates
// if its result arrives after sessionEnd, when sessionEnd > 0.
//
// issues and finishes are parallel; issues must be nondecreasing.
func LCV(issues, finishes []time.Duration, sessionEnd time.Duration) int {
	if len(issues) != len(finishes) {
		panic(fmt.Sprintf("metrics: LCV got %d issues, %d finishes", len(issues), len(finishes)))
	}
	violations := 0
	for i := range issues {
		var deadline time.Duration
		switch {
		case i+1 < len(issues):
			deadline = issues[i+1]
		case sessionEnd > 0:
			deadline = sessionEnd
		default:
			continue
		}
		if finishes[i] > deadline {
			violations++
		}
	}
	return violations
}

// LCVFraction returns the fraction of queries violating the constraint, in
// [0, 1]. Zero queries yields 0.
func LCVFraction(issues, finishes []time.Duration, sessionEnd time.Duration) float64 {
	if len(issues) == 0 {
		return 0
	}
	return float64(LCV(issues, finishes, sessionEnd)) / float64(len(issues))
}

// --- Query Issuing Frequency ----------------------------------------------

// QIF is query-issuing-frequency statistics over one trace.
type QIF struct {
	Queries     int
	Span        time.Duration // last issue − first issue
	PerSecond   float64
	MeanIntervl time.Duration
}

// MeasureQIF computes issuing statistics from issue timestamps.
func MeasureQIF(issues []time.Duration) QIF {
	q := QIF{Queries: len(issues)}
	if len(issues) < 2 {
		return q
	}
	q.Span = issues[len(issues)-1] - issues[0]
	if q.Span > 0 {
		q.PerSecond = float64(len(issues)-1) / q.Span.Seconds()
	}
	q.MeanIntervl = q.Span / time.Duration(len(issues)-1)
	return q
}

// IntervalHistogram bins the gaps between consecutive issue times into
// binWidth-wide bins up to maxInterval (gaps beyond it land in the last
// bin). This is the paper's Figure 14.
func IntervalHistogram(issues []time.Duration, binWidth, maxInterval time.Duration) []int {
	if binWidth <= 0 || maxInterval <= 0 {
		return nil
	}
	n := int(maxInterval / binWidth)
	if n == 0 {
		n = 1
	}
	bins := make([]int, n)
	for i := 1; i < len(issues); i++ {
		gap := issues[i] - issues[i-1]
		b := int(gap / binWidth)
		if b >= n {
			b = n - 1
		}
		if b < 0 {
			b = 0
		}
		bins[b]++
	}
	return bins
}

// --- Throughput -----------------------------------------------------------

// Throughput returns completed operations per second over a span.
func Throughput(completed int, span time.Duration) float64 {
	if span <= 0 {
		return 0
	}
	return float64(completed) / span.Seconds()
}

// --- KL divergence and accuracy --------------------------------------------

// klEpsilon smooths zero bins so the divergence stays finite; the paper's
// approximation quantizes histograms the same way.
const klEpsilon = 1e-9

// KLDivergence computes KL(T‖T') between two histograms of equal length
// (the paper's Equation 1). Histograms are normalized to probability
// distributions first; zero bins are epsilon-smoothed. Identical histograms
// give 0.
func KLDivergence(t, tp []int64) float64 {
	if len(t) != len(tp) || len(t) == 0 {
		return math.Inf(1)
	}
	var st, sp float64
	for i := range t {
		st += float64(t[i])
		sp += float64(tp[i])
	}
	if st == 0 || sp == 0 {
		if st == sp {
			return 0
		}
		return math.Inf(1)
	}
	var kl float64
	for i := range t {
		p := float64(t[i])/st + klEpsilon
		q := float64(tp[i])/sp + klEpsilon
		kl += p * math.Log(p/q)
	}
	if kl < 0 { // numerical noise on identical inputs
		kl = 0
	}
	return kl
}

// MSE returns the mean squared error between two equal-length float
// vectors — the accuracy metric of approximate systems (e.g. Incvisage).
func MSE(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return math.Inf(1)
	}
	var ss float64
	for i := range a {
		d := a[i] - b[i]
		ss += d * d
	}
	return ss / float64(len(a))
}

// QuantizeCounts renormalizes a count histogram to the given number of
// levels (mass resolution 1/levels). Approximation sketches have finite
// resolution; comparing quantized histograms makes "the result did not
// change" well-defined: changes smaller than one level vanish.
func QuantizeCounts(h []int64, levels int) []int64 {
	if levels <= 0 {
		levels = 64
	}
	var sum float64
	for _, c := range h {
		sum += float64(c)
	}
	out := make([]int64, len(h))
	if sum == 0 {
		return out
	}
	for i, c := range h {
		out[i] = int64(math.Round(float64(c) / sum * float64(levels)))
	}
	return out
}

// NormalizeCounts converts a count histogram into a probability vector.
func NormalizeCounts(h []int64) []float64 {
	out := make([]float64, len(h))
	var sum float64
	for _, c := range h {
		sum += float64(c)
	}
	if sum == 0 {
		return out
	}
	for i, c := range h {
		out[i] = float64(c) / sum
	}
	return out
}
