// Package repro's top-level benchmarks regenerate each paper artifact
// (one benchmark per table/figure — see DESIGN.md's per-experiment index)
// and measure the real compute cost of the underlying machinery. Custom
// metrics attached via b.ReportMetric carry the artifact's headline number
// so `go test -bench` output doubles as a compact results table.
//
// Ablation benchmarks at the bottom quantify the design choices DESIGN.md
// calls out: buffer-pool sizing, incremental crossfilter maintenance, the
// KL threshold sweep, prefetcher policies, and cache eviction.
package repro

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/behavior"
	"repro/internal/crossfilter"
	"repro/internal/datacube"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/progressive"
	"repro/internal/session"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/taxonomy"
	"repro/internal/trace"
	"repro/internal/widget"
)

// Shared fixtures, built once.
var (
	fixOnce    sync.Once
	fixRoads   *storage.Table // 150k rows: thrashes the disk pool
	fixSample  *storage.Table
	fixScrolls []*behavior.ScrollTrace
	fixEvents  map[string][]opt.QueryEvent // per device
)

func fixtures() {
	fixOnce.Do(func() {
		fixRoads = dataset.Roads(1, 150000)
		fixSample = storage.NewTable("sample", fixRoads.Schema)
		for i := 0; i < fixRoads.NumRows(); i += fixRoads.NumRows() / 2000 {
			fixSample.MustAppendRow(fixRoads.Row(i)...)
		}
		for u := 0; u < 5; u++ {
			rng := rand.New(rand.NewSource(100 + int64(u)))
			fixScrolls = append(fixScrolls, behavior.SimulateScroller(rng, behavior.NewScrollerParams(rng), 2000))
		}
		fixEvents = map[string][]opt.QueryEvent{}
		lonLo, lonHi, latLo, latHi, altLo, altHi := dataset.RoadBounds()
		domains := [][2]float64{{lonLo, lonHi}, {latLo, latHi}, {altLo, altHi}}
		dims := []opt.CrossfilterDim{
			{Column: "x", Lo: lonLo, Hi: lonHi},
			{Column: "y", Lo: latLo, Hi: latHi},
			{Column: "z", Lo: altLo, Hi: altHi},
		}
		for _, dev := range device.Profiles() {
			rng := rand.New(rand.NewSource(7))
			sess := behavior.SimulateSliderUser(rng, dev, domains, 6)
			events, err := opt.BuildCrossfilterWorkload(sess.Events, "dataroad", dims)
			if err != nil {
				panic(err)
			}
			fixEvents[dev.Name] = events
		}
	})
}

// --- Case study 1: inertial scrolling ---------------------------------------

func BenchmarkFig7Inertia(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		tr := behavior.SimulateScroller(rng, behavior.ScrollerParams{MaxTuplesPerSec: 120, ReadPause: time.Second}, 1000)
		if len(tr.Events) == 0 {
			b.Fatal("no events")
		}
	}
}

func BenchmarkFig8ScrollSpeed(b *testing.B) {
	fixtures()
	var last behavior.SpeedStats
	for i := 0; i < b.N; i++ {
		last = behavior.MeasureSpeed(fixScrolls[i%len(fixScrolls)].Events)
	}
	b.ReportMetric(last.MaxTuplesSec, "max_tuples/s")
}

func BenchmarkFig9Backscrolls(b *testing.B) {
	total := 0
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		p := behavior.NewScrollerParams(rng)
		p.SelectRate = 0.4
		tr := behavior.SimulateScroller(rng, p, 800)
		total += tr.Backscrolls
	}
	b.ReportMetric(float64(total)/float64(b.N), "backscrolls/user")
}

func BenchmarkTable7ScrollStats(b *testing.B) {
	fixtures()
	var speeds []float64
	for _, tr := range fixScrolls {
		speeds = append(speeds, behavior.MeasureSpeed(tr.Events).MaxTuplesSec)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := metrics.Summarize(speeds)
		if s.N == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig10PrefetchLatency(b *testing.B) {
	fixtures()
	exec := 80 * time.Millisecond
	for i := 0; i < b.N; i++ {
		tr := fixScrolls[i%len(fixScrolls)]
		opt.SimulateEventFetch(tr.Events, 58, 58, exec)
		opt.SimulateTimerFetch(tr.Events, 58, 58, time.Second, exec)
	}
}

func BenchmarkTable8LCV(b *testing.B) {
	fixtures()
	exec := 80 * time.Millisecond
	violations := 0
	for i := 0; i < b.N; i++ {
		tr := fixScrolls[i%len(fixScrolls)]
		violations += opt.SimulateEventFetch(tr.Events, 12, 12, exec).Violations
	}
	b.ReportMetric(float64(violations)/float64(b.N), "violations/user")
}

// --- Case study 2: crossfiltering -------------------------------------------

func BenchmarkFig11DeviceJitter(b *testing.B) {
	for _, prof := range device.Profiles() {
		b.Run(prof.Name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			var j float64
			for i := 0; i < b.N; i++ {
				s := prof.Seek(rng, 0, 0, 100, 300, 100, time.Second, time.Second)
				j = device.PathJitter(s)
			}
			b.ReportMetric(j, "jitter")
		})
	}
}

func BenchmarkFig13LatencySeries(b *testing.B) {
	fixtures()
	for _, prof := range []engine.Profile{engine.ProfileDisk, engine.ProfileMemory} {
		b.Run(prof.Name, func(b *testing.B) {
			events := fixEvents["mouse"]
			var lcv float64
			for i := 0; i < b.N; i++ {
				eng := engine.New(prof)
				eng.Register(fixRoads)
				srv := &engine.Server{Engine: eng, Network: time.Millisecond}
				res, err := opt.ReplayRaw(srv, events)
				if err != nil {
					b.Fatal(err)
				}
				lcv = res.LCVFraction()
			}
			b.ReportMetric(lcv*100, "lcv_%")
		})
	}
}

func BenchmarkFig14QIF(b *testing.B) {
	fixtures()
	events := fixEvents["leapmotion"]
	issues := make([]time.Duration, len(events))
	for i, ev := range events {
		issues[i] = ev.At
	}
	var qif metrics.QIF
	for i := 0; i < b.N; i++ {
		qif = metrics.MeasureQIF(issues)
		metrics.IntervalHistogram(issues, 5*time.Millisecond, 60*time.Millisecond)
	}
	b.ReportMetric(qif.PerSecond, "queries/s")
}

func BenchmarkFig15LCVFraction(b *testing.B) {
	fixtures()
	events := fixEvents["touch"]
	eng := engine.New(engine.ProfileMemory)
	eng.Register(fixRoads)
	b.ResetTimer()
	var pct float64
	for i := 0; i < b.N; i++ {
		srv := &engine.Server{Engine: eng, Network: time.Millisecond}
		res, err := opt.ReplayRaw(srv, events)
		if err != nil {
			b.Fatal(err)
		}
		pct = res.LCVFraction()
	}
	b.ReportMetric(pct*100, "lcv_%")
}

// --- Case study 3: composite interfaces --------------------------------------

func BenchmarkTable9WidgetShare(b *testing.B) {
	var mapFrac float64
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		s := session.Run(rng, 0, 4*time.Minute)
		m, total := 0, 0
		for _, q := range s.Queries[1:] {
			total++
			if q.Widget == widget.KindMap {
				m++
			}
		}
		if total > 0 {
			mapFrac = float64(m) / float64(total)
		}
	}
	b.ReportMetric(mapFrac*100, "map_%")
}

func BenchmarkFig18ZoomLevels(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	s := session.Run(rng, 0, 10*time.Minute)
	b.ResetTimer()
	var frac float64
	for i := 0; i < b.N; i++ {
		in, total := 0, 0
		for _, q := range s.Queries {
			total++
			if q.Zoom >= 11 && q.Zoom <= 14 {
				in++
			}
		}
		frac = float64(in) / float64(total)
	}
	b.ReportMetric(frac*100, "band_%")
}

func BenchmarkTable10DragRanges(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	s := session.Run(rng, 0, 10*time.Minute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext := map[int][]float64{}
		for j := 1; j < len(s.Queries); j++ {
			q, prev := s.Queries[j], s.Queries[j-1]
			if q.Action == behavior.ActDrag && q.Zoom == prev.Zoom {
				ext[q.Zoom] = append(ext[q.Zoom], q.BoundCenterLng-prev.BoundCenterLng)
			}
		}
	}
}

func BenchmarkFig20FilterCDF(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	s := session.Run(rng, 0, 10*time.Minute)
	var counts []float64
	for _, q := range s.Queries {
		counts = append(counts, float64(q.FilterCount))
	}
	b.ResetTimer()
	var at4 float64
	for i := 0; i < b.N; i++ {
		at4 = metrics.NewCDF(counts).At(4)
	}
	b.ReportMetric(at4, "P(≤4)")
}

func BenchmarkFig21TimeCDFs(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	s := session.Run(rng, 0, 10*time.Minute)
	var req []float64
	for _, q := range s.Queries {
		req = append(req, q.RequestTime.Seconds())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cdf := metrics.NewCDF(req)
		cdf.At(1)
		cdf.Quantile(0.8)
	}
}

// --- Survey artifacts ---------------------------------------------------------

func BenchmarkTaxonomyAdvisor(b *testing.B) {
	p := taxonomy.SystemProfile{
		LargeData: true, HighFrameRateDevice: true,
		ConsecutiveQueries: true, SpeculativePrefetch: true,
		Audience: taxonomy.AudienceNovice,
	}
	var n int
	for i := 0; i < b.N; i++ {
		n = len(taxonomy.RecommendMetrics(p))
	}
	b.ReportMetric(float64(n), "metrics")
}

func BenchmarkStudyAdvisor(b *testing.B) {
	q := taxonomy.StudyQuestion{DeviceDependent: true, DependsOnInherentAbility: true}
	for i := 0; i < b.N; i++ {
		taxonomy.AdviseSetting(q)
		taxonomy.AdviseSubjects(q)
		taxonomy.CoOccurrence(taxonomy.Accuracy, taxonomy.Latency)
	}
}

func mustHistogram() *sql.SelectStmt {
	lonLo, lonHi, latLo, latHi, altLo, altHi := dataset.RoadBounds()
	dims := []opt.CrossfilterDim{
		{Column: "x", Lo: lonLo, Hi: lonHi},
		{Column: "y", Lo: latLo, Hi: latHi},
		{Column: "z", Lo: altLo, Hi: altHi},
	}
	ranges := [][2]float64{{lonLo, lonHi}, {latLo, latHi}, {altLo, altHi}}
	stmt, err := opt.HistogramQuery("dataroad", dims, ranges, 1, 20)
	if err != nil {
		panic(err)
	}
	return stmt
}

// --- Ablations ------------------------------------------------------------------

// BenchmarkAblationBufferPool sweeps the disk profile's pool size: model
// latency collapses once the table fits.
func BenchmarkAblationBufferPool(b *testing.B) {
	fixtures()
	stmt := mustHistogram()
	for _, pool := range []int{512, 2048, 4096} {
		b.Run(sizeName(pool), func(b *testing.B) {
			prof := engine.ProfileDisk
			prof.PoolPages = pool
			eng := engine.New(prof)
			eng.Register(fixRoads)
			var cost time.Duration
			for i := 0; i < b.N; i++ {
				res, err := eng.Execute(stmt)
				if err != nil {
					b.Fatal(err)
				}
				cost = res.Stats.ModelCost
			}
			b.ReportMetric(float64(cost.Microseconds())/1000, "model_ms")
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1024:
		return "pool" + itoa(n/1024) + "k"
	default:
		return "pool" + itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationCrossfilter: incremental filter maintenance vs full
// recomputation.
func BenchmarkAblationCrossfilter(b *testing.B) {
	fixtures()
	cf, err := crossfilter.New(fixRoads, []string{"x", "y", "z"}, 20)
	if err != nil {
		b.Fatal(err)
	}
	d := cf.Dim(0)
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			span := d.Hi - d.Lo
			lo := d.Lo + float64(i%50)/100*span
			cf.SetFilter(0, lo, lo+span/4)
		}
	})
	b.Run("recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			span := d.Hi - d.Lo
			lo := d.Lo + float64(i%50)/100*span
			cf.SetFilter(0, lo, lo+span/4)
			cf.RecomputeAll()
		}
	})
}

// BenchmarkAblationKLThreshold sweeps the KL threshold beyond the paper's
// {0, 0.2}: executed-query count falls as the threshold rises.
func BenchmarkAblationKLThreshold(b *testing.B) {
	fixtures()
	events := fixEvents["leapmotion"]
	for _, th := range []float64{0, 0.05, 0.2, 0.5} {
		b.Run("kl"+fmtTh(th), func(b *testing.B) {
			var executed int
			for i := 0; i < b.N; i++ {
				f, err := opt.NewKLFilter(th, fixSample, []string{"x", "y", "z"})
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for _, ev := range events {
					if f.Admit(ev) {
						n++
					}
				}
				executed = n
			}
			b.ReportMetric(float64(executed), "admitted")
		})
	}
}

func fmtTh(t float64) string {
	switch t {
	case 0:
		return "0"
	case 0.05:
		return "0.05"
	case 0.2:
		return "0.2"
	default:
		return "0.5"
	}
}

// BenchmarkAblationPrefetchers compares tile prefetch policies on one
// navigation trace by hit rate.
func BenchmarkAblationPrefetchers(b *testing.B) {
	steps := navigationSteps()
	for _, spec := range []struct {
		name string
		pf   opt.TilePrefetcher
	}{
		{"none", opt.NoPrefetch{}},
		{"neighbor", opt.NeighborPrefetch{}},
		{"momentum", opt.MomentumPrefetch{}},
		{"markov", opt.MarkovPrefetch{}},
	} {
		b.Run(spec.name, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				rate = opt.EvaluateTilePolicy(steps, opt.NewLRU(2000), spec.pf, 60)
			}
			b.ReportMetric(rate*100, "hit_%")
		})
	}
}

// BenchmarkAblationCaches compares LRU vs FIFO eviction under the same
// neighbor prefetcher.
func BenchmarkAblationCaches(b *testing.B) {
	steps := navigationSteps()
	for _, spec := range []struct {
		name string
		mk   func() opt.Cache
	}{
		{"lru", func() opt.Cache { return opt.NewLRU(400) }},
		{"fifo", func() opt.Cache { return opt.NewFIFO(400) }},
	} {
		b.Run(spec.name, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				rate = opt.EvaluateTilePolicy(steps, spec.mk(), opt.NeighborPrefetch{}, 60)
			}
			b.ReportMetric(rate*100, "hit_%")
		})
	}
}

func navigationSteps() []opt.TileStep {
	rng := rand.New(rand.NewSource(9))
	s := session.Run(rng, 0, 8*time.Minute)
	var sets [][]widget.Tile
	for _, q := range s.Queries {
		if q.Widget != widget.KindMap {
			continue
		}
		var tiles []widget.Tile
		for _, key := range q.VisibleTileKeys {
			if t, err := widget.ParseTile(key); err == nil {
				tiles = append(tiles, t)
			}
		}
		if len(tiles) > 0 {
			sets = append(sets, tiles)
		}
	}
	return opt.StepsFromTiles(sets)
}

// Keep the trace import used for its types in benchmarks above.
var _ = trace.Span

// --- Extension benchmarks --------------------------------------------------------

func BenchmarkExtProgressive(b *testing.B) {
	fixtures()
	ex := progressive.NewExecutor(fixRoads, 3)
	lonLo, lonHi, latLo, latHi, _, _ := dataset.RoadBounds()
	q := progressive.Query{
		Column: "y", Lo: latLo, Hi: latHi, Bins: 20,
		Filters: map[string][2]float64{"x": {lonLo, (lonLo + lonHi) / 2}},
	}
	var frac float64
	for i := 0; i < b.N; i++ {
		snaps, err := ex.Run(q, 500)
		if err != nil {
			b.Fatal(err)
		}
		s, _ := progressive.FirstWithin(snaps, 1e-4)
		frac = s.Fraction
	}
	b.ReportMetric(frac*100, "%data_for_1e-4")
}

func BenchmarkExtScaleout(b *testing.B) {
	fixtures()
	stmt := mustHistogram()
	for _, n := range []int{1, 8, 32} {
		b.Run("nodes"+itoa(n), func(b *testing.B) {
			cluster, err := engine.NewPartitioned(engine.ProfileDisk, n, fixRoads)
			if err != nil {
				b.Fatal(err)
			}
			var cost time.Duration
			for i := 0; i < b.N; i++ {
				res, err := cluster.Execute(stmt)
				if err != nil {
					b.Fatal(err)
				}
				cost = res.Stats.ModelCost
			}
			b.ReportMetric(float64(cost.Microseconds())/1000, "model_ms")
		})
	}
}

func BenchmarkExtThroughput(b *testing.B) {
	fixtures()
	stmt := mustHistogram()
	batch := make([]*sql.SelectStmt, 32)
	for i := range batch {
		batch[i] = stmt
	}
	for _, n := range []int{1, 4} {
		b.Run("replicas"+itoa(n), func(b *testing.B) {
			rs, err := engine.NewReplicaSet(engine.ProfileMemory, n, fixRoads)
			if err != nil {
				b.Fatal(err)
			}
			var qps float64
			for i := 0; i < b.N; i++ {
				span, err := rs.RunBatch(batch)
				if err != nil {
					b.Fatal(err)
				}
				qps = metrics.Throughput(len(batch), span)
			}
			b.ReportMetric(qps, "q/s")
		})
	}
}

func BenchmarkExtReuse(b *testing.B) {
	fixtures()
	events := fixEvents["leapmotion"]
	dims := []opt.CrossfilterDim{}
	lonLo, lonHi, latLo, latHi, altLo, altHi := dataset.RoadBounds()
	dims = append(dims,
		opt.CrossfilterDim{Column: "x", Lo: lonLo, Hi: lonHi},
		opt.CrossfilterDim{Column: "y", Lo: latLo, Hi: latHi},
		opt.CrossfilterDim{Column: "z", Lo: altLo, Hi: altHi})
	var hitRate float64
	for i := 0; i < b.N; i++ {
		eng := engine.New(engine.ProfileMemory)
		eng.Register(fixRoads)
		srv := &engine.Server{Engine: eng, Network: time.Millisecond}
		cache := opt.NewSessionCache(0, 0)
		if _, err := opt.ReplayWithReuse(srv, events, dims, cache); err != nil {
			b.Fatal(err)
		}
		hitRate = cache.HitRate()
	}
	b.ReportMetric(hitRate*100, "hit_%")
}

// --- Parallel execution ----------------------------------------------------------

// fullRoads is the paper-scale 434,874-row road table, built once; the
// parallel benchmarks use it so speedups are measured at the cardinality
// the paper's crossfilter case study runs at.
var (
	fullRoadOnce sync.Once
	fullRoads    *storage.Table
)

func fullRoadTable() *storage.Table {
	fullRoadOnce.Do(func() { fullRoads = dataset.Roads(1, dataset.RoadCount) })
	return fullRoads
}

// BenchmarkParallelHistogram is the parallel-vs-serial contrast on the
// engine's filtered-histogram fast path: identical query, identical result
// bytes, worker count swept over P ∈ {1, 2, 4, 8}. On a multi-core host
// P≥4 should run the 434,874-row aggregate at least 2× faster than the
// P=1 serial oracle; on a single-core host the sweep degenerates into a
// measure of scheduling overhead.
func BenchmarkParallelHistogram(b *testing.B) {
	roads := fullRoadTable()
	stmt := mustHistogram()
	for _, p := range []int{1, 2, 4, 8} {
		b.Run("p"+itoa(p), func(b *testing.B) {
			eng := engine.New(engine.ProfileMemory)
			eng.SetParallelism(p)
			eng.Register(roads)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.Execute(stmt)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Stats.UsedFastPath {
					b.Fatal("fast path missed")
				}
			}
			b.SetBytes(int64(roads.NumRows() * 24))
		})
	}
}

// BenchmarkParallelCubeBuild sweeps worker counts over the one-time cube
// build, the third filtered-histogram backend.
func BenchmarkParallelCubeBuild(b *testing.B) {
	roads := fullRoadTable()
	lonLo, lonHi, latLo, latHi, altLo, altHi := dataset.RoadBounds()
	dims := []datacube.Dim{
		{Name: "x", Lo: lonLo, Hi: lonHi, Bins: 20},
		{Name: "y", Lo: latLo, Hi: latHi, Bins: 20},
		{Name: "z", Lo: altLo, Hi: altHi, Bins: 20},
	}
	for _, p := range []int{1, 4} {
		b.Run("p"+itoa(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := datacube.BuildWith(roads, dims, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBackends compares the three ways to answer a filtered
// histogram: SQL engine scan (fast path), crossfilter incremental update,
// and the precomputed data cube (imMens/Nanocubes-style). The cube's cost
// is independent of record count; the others scan or touch records.
func BenchmarkAblationBackends(b *testing.B) {
	fixtures()
	lonLo, lonHi, latLo, latHi, altLo, altHi := dataset.RoadBounds()
	mid := (lonLo + lonHi) / 2

	b.Run("engine-scan", func(b *testing.B) {
		eng := engine.New(engine.ProfileMemory)
		eng.Register(fixRoads)
		stmt := mustHistogram()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Execute(stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("crossfilter-incremental", func(b *testing.B) {
		cf, err := crossfilter.New(fixRoads, []string{"x", "y", "z"}, 20)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := lonLo + float64(i%40)/40*(mid-lonLo)
			cf.SetFilter(0, lo, mid)
			cf.Histogram(1)
		}
	})
	b.Run("datacube", func(b *testing.B) {
		cube, err := datacube.Build(fixRoads, []datacube.Dim{
			{Name: "x", Lo: lonLo, Hi: lonHi, Bins: 20},
			{Name: "y", Lo: latLo, Hi: latHi, Bins: 20},
			{Name: "z", Lo: altLo, Hi: altHi, Bins: 20},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := lonLo + float64(i%40)/40*(mid-lonLo)
			if _, err := cube.Histogram(1, []*datacube.Range{{Lo: lo, Hi: mid}, nil, nil}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("datacube-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := datacube.Build(fixRoads, []datacube.Dim{
				{Name: "x", Lo: lonLo, Hi: lonHi, Bins: 20},
				{Name: "y", Lo: latLo, Hi: latHi, Bins: 20},
				{Name: "z", Lo: altLo, Hi: altHi, Bins: 20},
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationBrush is the incremental-brush ablation: one drag step
// (a small filter-edge move plus the full execBrush read — every histogram
// and the filtered total) through each structure that can answer it. The
// rebuild and full-scan variants cost O(n·d) and O(n); the sorted-index
// delta scan touches only the records between the old and new edges; the
// cubes answer from precomputed counts independent of n.
func BenchmarkAblationBrush(b *testing.B) {
	fixtures()
	lonLo, lonHi, latLo, latHi, altLo, altHi := dataset.RoadBounds()
	span := lonHi - lonLo
	// Drag workload: the brush's low edge oscillates in 0.5%-of-domain
	// steps, the profile of per-frame slider callbacks.
	dragLo := func(i int) float64 { return lonLo + 0.30*span + float64(i%40)*0.005*span }
	dragHi := lonLo + 0.65*span

	readAll := func(cf *crossfilter.Crossfilter) {
		for d := 0; d < cf.NumDims(); d++ {
			cf.Histogram(d)
		}
		cf.Total()
	}
	newCF := func(b *testing.B) *crossfilter.Crossfilter {
		cf, err := crossfilter.New(fixRoads, []string{"x", "y", "z"}, 20)
		if err != nil {
			b.Fatal(err)
		}
		return cf
	}
	cubeDims := []datacube.Dim{
		{Name: "x", Lo: lonLo, Hi: lonHi, Bins: 20},
		{Name: "y", Lo: latLo, Hi: latHi, Bins: 20},
		{Name: "z", Lo: altLo, Hi: altHi, Bins: 20},
	}

	b.Run("crossfilter-rebuild", func(b *testing.B) {
		cf := newCF(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cf.SetFilter(0, dragLo(i), dragHi)
			cf.RecomputeAll()
			readAll(cf)
		}
	})
	b.Run("crossfilter-fullscan", func(b *testing.B) {
		cf := newCF(b)
		cf.SetIncremental(false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cf.SetFilter(0, dragLo(i), dragHi)
			readAll(cf)
		}
	})
	b.Run("crossfilter-delta", func(b *testing.B) {
		cf := newCF(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cf.SetFilter(0, dragLo(i), dragHi)
			readAll(cf)
		}
		b.StopTimer()
		if delta, _ := cf.ScanStats(); b.N > 2 && delta == 0 {
			b.Fatal("delta path never taken")
		}
	})
	b.Run("datacube", func(b *testing.B) {
		cube, err := datacube.Build(fixRoads, cubeDims)
		if err != nil {
			b.Fatal(err)
		}
		filters := make([]*datacube.Range, 3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			filters[0] = &datacube.Range{Lo: dragLo(i), Hi: dragHi}
			for d := range cubeDims {
				if _, err := cube.Histogram(d, filters); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := cube.Count(filters); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prefix-cube", func(b *testing.B) {
		prefix, err := datacube.BuildPrefix(fixRoads, cubeDims, 0)
		if err != nil {
			b.Fatal(err)
		}
		filters := make([]*datacube.Range, 3)
		out := make([]int64, 20)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			filters[0] = &datacube.Range{Lo: dragLo(i), Hi: dragHi}
			for d := range cubeDims {
				if err := prefix.HistogramInto(d, filters, out); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := prefix.Count(filters); err != nil {
				b.Fatal(err)
			}
		}
	})
}
