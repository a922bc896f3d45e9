package opt

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/behavior"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/widget"
)

var roadDims = []CrossfilterDim{
	{Column: "x", Lo: 8.146, Hi: 11.2616367163},
	{Column: "y", Lo: 56.582, Hi: 57.774},
	{Column: "z", Lo: -8.608, Hi: 137.361},
}

func sliderWorkload(t *testing.T, seed int64, adjustments int) []QueryEvent {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	domains := [][2]float64{}
	for _, d := range roadDims {
		domains = append(domains, [2]float64{d.Lo, d.Hi})
	}
	sess := behavior.SimulateSliderUser(rng, device.Mouse, domains, adjustments)
	events, err := BuildCrossfilterWorkload(sess.Events, "dataroad", roadDims)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty workload")
	}
	return events
}

func TestBuildCrossfilterWorkload(t *testing.T) {
	events := sliderWorkload(t, 1, 6)
	for _, ev := range events {
		if len(ev.Stmts) != 2 {
			t.Fatalf("event has %d stmts, want n-1=2", len(ev.Stmts))
		}
		if len(ev.Ranges) != 3 {
			t.Fatalf("event has %d ranges", len(ev.Ranges))
		}
	}
	// Bad slider index rejected.
	if _, err := BuildCrossfilterWorkload([]trace.SliderEvent{{SliderIdx: 9}}, "t", roadDims); err == nil {
		t.Error("bad slider index accepted")
	}
}

func TestHistogramQueryParsesAndRuns(t *testing.T) {
	roads := dataset.Roads(1, 3000)
	e := engine.New(engine.ProfileMemory)
	e.Register(roads)
	ranges := [][2]float64{{8.5, 10.5}, {56.582, 57.774}, {-8.608, 137.361}}
	stmt, err := HistogramQuery("dataroad", roadDims, ranges, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.UsedFastPath {
		t.Error("generated histogram query missed the fast path")
	}
	if len(res.Rows) == 0 {
		t.Error("no histogram rows")
	}
	// Mismatched dims/ranges rejected.
	if _, err := HistogramQuery("t", roadDims, ranges[:2], 0, 20); err == nil {
		t.Error("mismatched ranges accepted")
	}
}

func newServer(profile engine.Profile, rows int) *engine.Server {
	roads := dataset.Roads(1, rows)
	e := engine.New(profile)
	e.Register(roads)
	return &engine.Server{Engine: e, Network: time.Millisecond}
}

func TestReplayRawExecutesAll(t *testing.T) {
	events := sliderWorkload(t, 2, 4)
	srv := newServer(engine.ProfileMemory, 3000)
	res, err := ReplayRaw(srv, events)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != len(events) || res.Skipped != 0 {
		t.Errorf("executed %d skipped %d of %d", res.Executed, res.Skipped, len(events))
	}
	if len(res.Issues) != res.Executed || len(res.Finishes) != res.Executed {
		t.Error("timing slices inconsistent")
	}
	for i := range res.Issues {
		if res.Finishes[i] <= res.Issues[i] {
			t.Fatal("finish before issue")
		}
	}
}

func TestReplaySkipDropsUnderLoad(t *testing.T) {
	events := sliderWorkload(t, 3, 8)
	// Disk profile on a large-enough table: execution ≫ issue interval.
	srv := newServer(engine.ProfileDisk, 60000)
	res, err := ReplaySkip(srv, events)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped == 0 {
		t.Error("skip policy dropped nothing under an overloaded backend")
	}
	if res.Executed+res.Skipped != res.Offered {
		t.Errorf("executed %d + skipped %d != offered %d", res.Executed, res.Skipped, res.Offered)
	}
	// Skip must bound queueing: no executed query waits behind more than
	// one in-flight execution.
	rawSrv := newServer(engine.ProfileDisk, 60000)
	raw, err := ReplayRaw(rawSrv, events)
	if err != nil {
		t.Fatal(err)
	}
	maxSkip, maxRaw := maxLatency(res.Latency), maxLatency(raw.Latency)
	if maxSkip >= maxRaw {
		t.Errorf("skip max latency %v not below raw %v", maxSkip, maxRaw)
	}
}

func maxLatency(ls []time.Duration) time.Duration {
	var m time.Duration
	for _, l := range ls {
		if l > m {
			m = l
		}
	}
	return m
}

func TestKLFilterReducesQueries(t *testing.T) {
	events := sliderWorkload(t, 4, 10)
	sample := dataset.Roads(99, 4000)
	f0, err := NewKLFilter(0, sample, []string{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(engine.ProfileMemory, 3000)
	res0, err := ReplayKL(srv, events, f0)
	if err != nil {
		t.Fatal(err)
	}
	if res0.Skipped == 0 {
		t.Error("KL>0 skipped nothing; identical-result queries should drop")
	}
	if res0.Executed == 0 {
		t.Fatal("KL>0 executed nothing")
	}

	f2, err := NewKLFilter(0.2, sample, []string{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := newServer(engine.ProfileMemory, 3000)
	res2, err := ReplayKL(srv2, events, f2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Executed >= res0.Executed {
		t.Errorf("KL>0.2 executed %d, not below KL>0's %d", res2.Executed, res0.Executed)
	}
	if res0.Policy != "KL>0" || res2.Policy != "KL>0.2" {
		t.Errorf("policy names %q, %q", res0.Policy, res2.Policy)
	}
}

func TestLCVAccounting(t *testing.T) {
	events := sliderWorkload(t, 5, 6)
	slow := newServer(engine.ProfileDisk, 60000)
	fast := newServer(engine.ProfileMemory, 60000)
	resSlow, err := ReplayRaw(slow, events)
	if err != nil {
		t.Fatal(err)
	}
	resFast, err := ReplayRaw(fast, events)
	if err != nil {
		t.Fatal(err)
	}
	if resSlow.LCV() <= resFast.LCV() {
		t.Errorf("disk LCV %d not above memory LCV %d", resSlow.LCV(), resFast.LCV())
	}
	if p := resSlow.LCVFraction(); p <= 0 || p > 1 {
		t.Errorf("LCVFraction = %v", p)
	}
}

// --- scroll prefetching ----------------------------------------------------

func scrollTrace(seed int64) []trace.ScrollEvent {
	rng := rand.New(rand.NewSource(seed))
	p := behavior.NewScrollerParams(rng)
	return behavior.SimulateScroller(rng, p, 1500).Events
}

func TestEventFetchInsensitiveToBatch(t *testing.T) {
	events := scrollTrace(6)
	exec := 80 * time.Millisecond
	var means []time.Duration
	for _, batch := range []int{12, 30, 58, 80} {
		r := SimulateEventFetch(events, 100, batch, exec)
		if r.Fetches == 0 {
			t.Fatalf("batch %d: no fetches", batch)
		}
		means = append(means, r.MeanWait())
	}
	// Figure 10: event fetch stays near the execution time at every batch.
	for i, m := range means {
		if m > 6*exec {
			t.Errorf("batch idx %d: mean wait %v far above exec %v", i, m, exec)
		}
	}
}

func TestTimerFetchLatencyCollapses(t *testing.T) {
	events := scrollTrace(7)
	exec := 80 * time.Millisecond
	small := SimulateTimerFetch(events, 100, 12, time.Second, exec)
	big := SimulateTimerFetch(events, 100, 200, time.Second, exec)
	if small.Violations == 0 {
		t.Skip("slow user: no violations at 12 tuples")
	}
	if big.Violations >= small.Violations {
		t.Errorf("violations did not collapse: %d → %d", small.Violations, big.Violations)
	}
	if big.MeanWait() >= small.MeanWait() && small.MeanWait() > 0 {
		t.Errorf("mean wait did not fall: %v → %v", small.MeanWait(), big.MeanWait())
	}
}

// TestTable8Shape reproduces the Table 8 contrast over a 15-user study:
// event fetch violates for nearly every user at every batch size; timer
// fetch violations collapse as the batch approaches the median of max
// scroll speed.
func TestTable8Shape(t *testing.T) {
	var traces [][]trace.ScrollEvent
	for u := 0; u < 15; u++ {
		traces = append(traces, scrollTrace(100+int64(u)))
	}
	exec := 80 * time.Millisecond
	batches := []int{12, 30, 58, 80}
	eventUsers := map[int]int{}
	timerUsers := map[int]int{}
	timerTotal := map[int]int{}
	for _, b := range batches {
		for _, tr := range traces {
			if SimulateEventFetch(tr, b, b, exec).Violated() {
				eventUsers[b]++
			}
			r := SimulateTimerFetch(tr, b, b, time.Second, exec)
			if r.Violated() {
				timerUsers[b]++
			}
			timerTotal[b] += r.Violations
		}
	}
	if eventUsers[12] < 12 {
		t.Errorf("event fetch @12: %d users violated, paper says ~all 15", eventUsers[12])
	}
	if timerUsers[80] > 2 {
		t.Errorf("timer fetch @80: %d users violated, paper says 0", timerUsers[80])
	}
	if timerUsers[12] <= timerUsers[58]-1 {
		t.Errorf("timer violations did not fall with batch: %v", timerUsers)
	}
	if timerTotal[12] <= timerTotal[80] {
		t.Errorf("timer total violations did not fall: %v", timerTotal)
	}
}

// --- caches and tile prefetching --------------------------------------------

func TestCachePolicies(t *testing.T) {
	for _, c := range []Cache{NewLRU(2), NewFIFO(2)} {
		if c.Get("a") {
			t.Errorf("%s: hit on empty cache", c.Name())
		}
		c.Put("a")
		c.Put("b")
		if !c.Get("a") || !c.Get("b") {
			t.Errorf("%s: resident keys missing", c.Name())
		}
		c.Put("c") // evicts per policy
		if c.Len() != 2 {
			t.Errorf("%s: len %d", c.Name(), c.Len())
		}
	}
	// LRU vs FIFO difference: after touching "a", inserting "c" evicts "b"
	// from LRU but "a" from FIFO.
	lru, fifo := NewLRU(2), NewFIFO(2)
	for _, c := range []Cache{lru, fifo} {
		c.Put("a")
		c.Put("b")
		c.Get("a")
		c.Put("c")
	}
	if !lru.Get("a") {
		t.Error("LRU evicted the recently used key")
	}
	if fifo.Get("a") {
		t.Error("FIFO kept the oldest key")
	}
	if HitRate(NewLRU(2)) != 0 {
		t.Error("hit rate on fresh cache != 0")
	}
}

func TestStepsFromTiles(t *testing.T) {
	mv := widget.NewMapView(12, 40.71, -74.0)
	set1 := mv.VisibleTiles()
	mv.Pan(512, 0)
	set2 := mv.VisibleTiles()
	mv.ZoomIn()
	set3 := mv.VisibleTiles()
	steps := StepsFromTiles([][]widget.Tile{set1, set2, set3})
	if steps[1].DTileX != 2 || steps[1].DTileY != 0 {
		t.Errorf("pan delta = (%d,%d), want (2,0)", steps[1].DTileX, steps[1].DTileY)
	}
	if steps[2].DZoom != 1 {
		t.Errorf("zoom delta = %d", steps[2].DZoom)
	}
}

// TestPredictivePrefetchBeatsEvictionOnly reproduces the §3.1.1 claim:
// prediction-driven prefetch outperforms pure LRU/FIFO eviction on a
// directional navigation trace.
func TestPredictivePrefetchBeatsEvictionOnly(t *testing.T) {
	// A steady eastward pan: highly predictable.
	mv := widget.NewMapView(12, 40.71, -74.0)
	var sets [][]widget.Tile
	for i := 0; i < 40; i++ {
		sets = append(sets, mv.VisibleTiles())
		mv.Pan(256, 0)
	}
	steps := StepsFromTiles(sets)

	base := EvaluateTilePolicy(steps, NewLRU(500), NoPrefetch{}, 0)
	momentum := EvaluateTilePolicy(steps, NewLRU(500), MomentumPrefetch{}, 60)
	markov := EvaluateTilePolicy(steps, NewLRU(500), MarkovPrefetch{}, 60)
	if momentum <= base {
		t.Errorf("momentum hit rate %v not above eviction-only %v", momentum, base)
	}
	if markov <= base {
		t.Errorf("markov hit rate %v not above eviction-only %v", markov, base)
	}
}

func TestNeighborPrefetchCoversPan(t *testing.T) {
	mv := widget.NewMapView(12, 40.71, -74.0)
	var sets [][]widget.Tile
	for i := 0; i < 20; i++ {
		sets = append(sets, mv.VisibleTiles())
		mv.Pan(128, 64)
	}
	steps := StepsFromTiles(sets)
	base := EvaluateTilePolicy(steps, NewLRU(1000), NoPrefetch{}, 0)
	nb := EvaluateTilePolicy(steps, NewLRU(1000), NeighborPrefetch{}, 80)
	if nb <= base {
		t.Errorf("neighbor hit rate %v not above baseline %v", nb, base)
	}
}

func TestPrefetchersEmptyHistory(t *testing.T) {
	for _, pf := range []TilePrefetcher{NoPrefetch{}, NeighborPrefetch{}, MomentumPrefetch{}, MarkovPrefetch{}} {
		if got := pf.Predict(nil, 10); len(got) != 0 {
			t.Errorf("%s predicted %d tiles from empty history", pf.Name(), len(got))
		}
	}
}
