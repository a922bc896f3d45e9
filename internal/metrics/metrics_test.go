package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.Median != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if math.Abs(s.Stddev-math.Sqrt(2)) > 1e-12 {
		t.Errorf("Stddev = %v", s.Stddev)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Errorf("empty summary = %+v", z)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {100, 40}, {50, 25}, {25, 17.5}, {-5, 10}, {200, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) != 0")
	}
	// Percentile must not mutate its input.
	xs2 := []float64{3, 1, 2}
	Percentile(xs2, 50)
	if xs2[0] != 3 {
		t.Error("Percentile sorted the caller's slice")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3, 10})
	if c.N() != 5 {
		t.Errorf("N = %d", c.N())
	}
	if got := c.At(2); got != 0.6 {
		t.Errorf("At(2) = %v, want 0.6", got)
	}
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v", got)
	}
	if got := c.At(100); got != 1 {
		t.Errorf("At(100) = %v", got)
	}
	if got := c.Quantile(0.8); got != 3 {
		t.Errorf("Quantile(0.8) = %v, want 3", got)
	}
	if got := c.Quantile(1); got != 10 {
		t.Errorf("Quantile(1) = %v, want 10", got)
	}
	pts := c.Points(3)
	if len(pts) != 3 || pts[0][0] != 1 || pts[2][0] != 10 {
		t.Errorf("Points = %v", pts)
	}
	empty := NewCDF(nil)
	if empty.At(1) != 0 || empty.Quantile(0.5) != 0 || empty.Points(3) != nil {
		t.Error("empty CDF misbehaves")
	}
}

func TestCDFQuantileAtProperty(t *testing.T) {
	// For any sample and q, At(Quantile(q)) >= q.
	f := func(raw []float64, q01 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for i := range raw {
			if math.IsNaN(raw[i]) || math.IsInf(raw[i], 0) {
				raw[i] = 0
			}
		}
		q := float64(q01%100)/100 + 0.01
		c := NewCDF(raw)
		return c.At(c.Quantile(q)) >= q-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLCV(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	issues := []time.Duration{ms(0), ms(20), ms(40), ms(60)}
	// Q0 finishes at 30 (> issue of Q1 at 20): violation.
	// Q1 finishes at 35 (< issue of Q2 at 40): ok.
	// Q2 finishes at 100 (> issue of Q3 at 60): violation.
	// Q3 finishes at 70, sessionEnd 200: ok.
	finishes := []time.Duration{ms(30), ms(35), ms(100), ms(70)}
	if got := LCV(issues, finishes, ms(200)); got != 2 {
		t.Errorf("LCV = %d, want 2", got)
	}
	// Without a session end, the last query cannot violate.
	finishes[3] = ms(10000)
	if got := LCV(issues, finishes, 0); got != 2 {
		t.Errorf("LCV (no end) = %d, want 2", got)
	}
	if got := LCV(issues, finishes, ms(200)); got != 3 {
		t.Errorf("LCV (with end) = %d, want 3", got)
	}
	if got := LCVFraction(issues, finishes, ms(200)); got != 0.75 {
		t.Errorf("LCVFraction = %v", got)
	}
	if LCVFraction(nil, nil, 0) != 0 {
		t.Error("LCVFraction(empty) != 0")
	}
}

func TestLCVMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched LCV inputs did not panic")
		}
	}()
	LCV([]time.Duration{0}, nil, 0)
}

func TestMeasureQIF(t *testing.T) {
	// 51 queries over 1s → 50 intervals / 1s = 50 qps, the paper's
	// 20ms-sensing example.
	var issues []time.Duration
	for i := 0; i <= 50; i++ {
		issues = append(issues, time.Duration(i)*20*time.Millisecond)
	}
	q := MeasureQIF(issues)
	if q.Queries != 51 {
		t.Errorf("Queries = %d", q.Queries)
	}
	if math.Abs(q.PerSecond-50) > 1e-9 {
		t.Errorf("PerSecond = %v, want 50", q.PerSecond)
	}
	if q.MeanIntervl != 20*time.Millisecond {
		t.Errorf("MeanIntervl = %v", q.MeanIntervl)
	}
	if z := MeasureQIF(nil); z.Queries != 0 || z.PerSecond != 0 {
		t.Errorf("empty QIF = %+v", z)
	}
	one := MeasureQIF([]time.Duration{time.Second})
	if one.PerSecond != 0 {
		t.Error("single-query QIF nonzero")
	}
}

func TestIntervalHistogram(t *testing.T) {
	issues := []time.Duration{0, 5 * time.Millisecond, 30 * time.Millisecond, 31 * time.Millisecond, 500 * time.Millisecond}
	// gaps: 5, 25, 1, 469 ms; bins of 10ms up to 60ms → 6 bins
	h := IntervalHistogram(issues, 10*time.Millisecond, 60*time.Millisecond)
	if len(h) != 6 {
		t.Fatalf("bins = %d", len(h))
	}
	if h[0] != 2 { // 5ms and 1ms
		t.Errorf("bin 0 = %d, want 2", h[0])
	}
	if h[2] != 1 { // 25ms
		t.Errorf("bin 2 = %d, want 1", h[2])
	}
	if h[5] != 1 { // overflow 469ms
		t.Errorf("overflow bin = %d, want 1", h[5])
	}
	if IntervalHistogram(issues, 0, time.Second) != nil {
		t.Error("zero binWidth did not return nil")
	}
}

func TestOverConstraint(t *testing.T) {
	lats := []time.Duration{
		10 * time.Millisecond,
		DefaultConstraint, // at the boundary: not a violation
		DefaultConstraint + time.Millisecond,
		2 * time.Second,
	}
	if got := OverConstraint(lats, 0); got != 2 {
		t.Errorf("OverConstraint(default) = %d, want 2", got)
	}
	if got := OverConstraint(lats, 5*time.Millisecond); got != 4 {
		t.Errorf("OverConstraint(5ms) = %d, want 4", got)
	}
	if got := OverConstraint(nil, 0); got != 0 {
		t.Errorf("OverConstraint(nil) = %d, want 0", got)
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(100, 2*time.Second); got != 50 {
		t.Errorf("Throughput = %v", got)
	}
	if Throughput(5, 0) != 0 {
		t.Error("zero span not handled")
	}
}

func TestKLDivergence(t *testing.T) {
	a := []int64{10, 20, 30, 40}
	if got := KLDivergence(a, a); got != 0 {
		t.Errorf("KL(a,a) = %v, want 0", got)
	}
	b := []int64{40, 30, 20, 10}
	kl := KLDivergence(a, b)
	if kl <= 0 || math.IsInf(kl, 0) {
		t.Errorf("KL(a,b) = %v", kl)
	}
	// Scale invariance: KL compares shapes, not magnitudes.
	scaled := []int64{20, 40, 60, 80}
	if got := KLDivergence(a, scaled); got > 1e-9 {
		t.Errorf("KL(a, 2a) = %v, want ~0", got)
	}
	// Zero bins do not blow up.
	withZero := []int64{0, 0, 50, 50}
	if got := KLDivergence(a, withZero); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("KL with zero bins = %v", got)
	}
	// Mismatched lengths.
	if !math.IsInf(KLDivergence(a, []int64{1}), 1) {
		t.Error("mismatched lengths not Inf")
	}
	// Both all-zero → identical.
	if got := KLDivergence([]int64{0, 0}, []int64{0, 0}); got != 0 {
		t.Errorf("KL(0,0) = %v", got)
	}
}

// Small perturbations must yield small KL; large ones larger — the property
// the KL>0.2 threshold optimization relies on.
func TestKLMonotoneInPerturbation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := make([]int64, 20)
	for i := range base {
		base[i] = int64(100 + rng.Intn(900))
	}
	perturb := func(amount int64) []int64 {
		out := append([]int64(nil), base...)
		for i := range out {
			out[i] += rng.Int63n(2*amount+1) - amount
			if out[i] < 0 {
				out[i] = 0
			}
		}
		return out
	}
	small := KLDivergence(base, perturb(5))
	large := KLDivergence(base, perturb(500))
	if small >= large {
		t.Errorf("KL small %v >= large %v", small, large)
	}
	if small > 0.05 {
		t.Errorf("small perturbation KL %v unexpectedly large", small)
	}
}

func TestMSEAndNormalize(t *testing.T) {
	if got := MSE([]float64{1, 2}, []float64{1, 2}); got != 0 {
		t.Errorf("MSE equal = %v", got)
	}
	if got := MSE([]float64{0, 0}, []float64{3, 4}); got != 12.5 {
		t.Errorf("MSE = %v, want 12.5", got)
	}
	if !math.IsInf(MSE([]float64{1}, []float64{1, 2}), 1) {
		t.Error("mismatched MSE not Inf")
	}
	n := NormalizeCounts([]int64{1, 3})
	if n[0] != 0.25 || n[1] != 0.75 {
		t.Errorf("NormalizeCounts = %v", n)
	}
	z := NormalizeCounts([]int64{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Errorf("NormalizeCounts zeros = %v", z)
	}
}

func TestDurations(t *testing.T) {
	ds := Durations([]time.Duration{time.Second, 250 * time.Millisecond})
	if ds[0] != 1000 || ds[1] != 250 {
		t.Errorf("Durations = %v", ds)
	}
}

func TestQuantizeCounts(t *testing.T) {
	h := []int64{10, 20, 30, 40}
	q := QuantizeCounts(h, 100)
	// Quantized values preserve relative mass at 1/100 resolution.
	if q[0] != 10 || q[1] != 20 || q[2] != 30 || q[3] != 40 {
		t.Errorf("QuantizeCounts = %v", q)
	}
	// Sub-resolution perturbations vanish.
	h2 := []int64{10, 20, 30, 40}
	h2[0]++ // +1 part in 101 < 1/100 quantum after renormalization wobble
	q2 := QuantizeCounts(h2, 10)
	q10 := QuantizeCounts(h, 10)
	for i := range q2 {
		if q2[i] != q10[i] {
			t.Errorf("sub-quantum change visible at level 10: %v vs %v", q2, q10)
			break
		}
	}
	// Zero histogram stays zero; level default applies.
	z := QuantizeCounts([]int64{0, 0}, 0)
	if z[0] != 0 || z[1] != 0 {
		t.Errorf("zero quantize = %v", z)
	}
}

func TestQuantizedKLZeroForSmallChanges(t *testing.T) {
	a := []int64{1000, 2000, 3000}
	b := []int64{1001, 2000, 3000}
	qa, qb := QuantizeCounts(a, 64), QuantizeCounts(b, 64)
	if kl := KLDivergence(qa, qb); kl != 0 {
		t.Errorf("quantized KL of near-identical histograms = %v, want 0", kl)
	}
	c := []int64{3000, 2000, 1000}
	if kl := KLDivergence(QuantizeCounts(a, 64), QuantizeCounts(c, 64)); kl <= 0 {
		t.Errorf("quantized KL of reshaped histogram = %v, want > 0", kl)
	}
}

func TestBreakdown(t *testing.T) {
	b := Breakdown{
		Network:         2 * time.Millisecond,
		Scheduling:      10 * time.Millisecond,
		Execution:       300 * time.Millisecond,
		PostAggregation: 5 * time.Millisecond,
		Rendering:       16 * time.Millisecond,
	}
	if b.Total() != 333*time.Millisecond {
		t.Errorf("Total = %v", b.Total())
	}
	if b.Dominant() != "execution" {
		t.Errorf("Dominant = %q", b.Dominant())
	}
	// Earlier pipeline stage wins ties.
	tie := Breakdown{Network: time.Second, Rendering: time.Second}
	if tie.Dominant() != "network" {
		t.Errorf("tie Dominant = %q", tie.Dominant())
	}
	if (Breakdown{}).Total() != 0 {
		t.Error("zero breakdown total nonzero")
	}
	if s := b.String(); s == "" {
		t.Error("empty String")
	}
}

// TestPercentileExtremeFastPath pins the regression: the p>=100 (max) and
// p<=0 (min) answers come from a single scan, allocation-free and without
// mutating the input, and agree with the sorted-rank definition.
func TestPercentileExtremeFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 10001)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 100
	}
	var wantMax, wantMin = xs[0], xs[0]
	for _, x := range xs {
		wantMax = math.Max(wantMax, x)
		wantMin = math.Min(wantMin, x)
	}
	if got := Percentile(xs, 100); got != wantMax {
		t.Errorf("Percentile(xs, 100) = %v, want max %v", got, wantMax)
	}
	if got := Percentile(xs, 150); got != wantMax {
		t.Errorf("Percentile(xs, 150) = %v, want max %v", got, wantMax)
	}
	if got := Percentile(xs, 0); got != wantMin {
		t.Errorf("Percentile(xs, 0) = %v, want min %v", got, wantMin)
	}
	if allocs := testing.AllocsPerRun(20, func() { Percentile(xs, 100) }); allocs != 0 {
		t.Errorf("Percentile(xs, 100) allocates %v times, want 0", allocs)
	}
	// The fast path must not sort the caller's slice in place.
	probe := []float64{5, 1, 9, 3}
	Percentile(probe, 100)
	if probe[0] != 5 || probe[3] != 3 {
		t.Errorf("Percentile(·, 100) mutated input: %v", probe)
	}
}

// TestPercentileSortedMatchesPercentile: reading several percentiles from
// one sorted copy is the same function as sorting per call.
func TestPercentileSortedMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	xs := make([]float64, 997)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 30
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, p := range []float64{0, 1, 25, 50, 90, 95, 99, 99.9, 100} {
		if got, want := PercentileSorted(sorted, p), Percentile(xs, p); got != want {
			t.Errorf("PercentileSorted(%v) = %v, Percentile = %v", p, got, want)
		}
	}
}

func BenchmarkPercentileMax(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	xs := make([]float64, 1<<18)
	for i := range xs {
		xs[i] = rng.Float64() * 1000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Percentile(xs, 100)
	}
}
