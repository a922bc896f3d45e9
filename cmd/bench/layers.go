package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/colstore"
	"repro/internal/crossfilter"
	"repro/internal/datacube"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/planner"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/sql"
	"repro/internal/storage"
)

// perLayer are the metrics of the traced run, one group per package under
// internal/ plus the instrument's own. README.md says which end-to-end
// metric each should move, and on which workload.
var perLayer = []metricDef{
	{name: "serve.handler_us_p50", unit: "us", better: "lower"},
	{name: "serve.self_us_p50", unit: "us", better: "lower"},
	{name: "serve.http_hop_us_p50", unit: "us", better: "lower"},
	{name: "serve.stage_admission_mean_us", unit: "us", better: "lower"},
	{name: "serve.stage_queue_mean_us", unit: "us", better: "lower"},
	{name: "serve.stage_execute_mean_us", unit: "us", better: "lower"},
	{name: "serve.stage_scatter_mean_us", unit: "us", better: "lower"},
	{name: "serve.stage_merge_mean_us", unit: "us", better: "lower"},
	{name: "serve.stage_write_mean_us", unit: "us", better: "lower"},
	{name: "serve.executed", unit: "count", better: "higher"},
	{name: "serve.coalesced", unit: "count", better: "lower"},
	{name: "serve.shed", unit: "count", better: "lower"},
	{name: "serve.errors", unit: "count", better: "lower"},
	{name: "serve.degraded", unit: "count", better: "lower"},
	{name: "serve.lcv", unit: "count", better: "lower"},
	{name: "serve.server_cpu_us_per_req", unit: "us", better: "lower"},
	{name: "datacube.prefix_brush_ns_p50", unit: "ns", better: "lower"},
	{name: "datacube.dense_build_s", unit: "s", better: "lower"},
	{name: "datacube.prefix_build_s", unit: "s", better: "lower"},
	{name: "planner.answer_ns_p50", unit: "ns", better: "lower"},
	{name: "planner.choice_prefix_cube", unit: "count", better: "higher"},
	{name: "planner.choice_mat_index", unit: "count", better: "higher"},
	{name: "planner.choice_cross_delta", unit: "count", better: "higher"},
	{name: "planner.choice_other", unit: "count", better: "lower"},
	{name: "planner.materializations", unit: "count", better: "lower"},
	{name: "planner.evictions", unit: "count", better: "lower"},
	{name: "planner.index_bytes", unit: "B", better: "lower"},
	{name: "crossfilter.setfilter_us_p50", unit: "us", better: "lower"},
	{name: "crossfilter.scan_records_per_step", unit: "count", better: "lower"},
	{name: "opt.tile_cache_hit_ratio", unit: "fraction", better: "higher"},
	{name: "opt.brush_cache_hit_ratio", unit: "fraction", better: "higher"},
	{name: "shard.scatter_brush_us_p50", unit: "us", better: "lower"},
	{name: "shard.merge_us_p50", unit: "us", better: "lower"},
	{name: "shard.query_hist_us_p50", unit: "us", better: "lower"},
	{name: "shard.build_s", unit: "s", better: "lower"},
	{name: "router.scatter_us_p50", unit: "us", better: "lower"},
	{name: "router.hop_us_p50", unit: "us", better: "lower"},
	{name: "router.spawn_ready_s", unit: "s", better: "lower"},
	{name: "router.children_rss_mb", unit: "MB", better: "lower"},
	{name: "router.hedges", unit: "count", better: "lower"},
	{name: "router.hedge_wins", unit: "count", better: "lower"},
	{name: "router.restarts", unit: "count", better: "lower"},
	{name: "sql.parse_us_p50", unit: "us", better: "lower"},
	{name: "engine.execute_us_p50", unit: "us", better: "lower"},
	{name: "engine.execute_p1_us_p50", unit: "us", better: "lower"},
	{name: "engine.ns_per_row", unit: "ns", better: "lower"},
	{name: "engine.tuples_scanned_per_query", unit: "count", better: "lower"},
	{name: "morsel.speedup_p2", unit: "ratio", better: "higher"},
	{name: "colstore.select_ns_per_row", unit: "ns", better: "lower"},
	{name: "colstore.freeze_s", unit: "s", better: "lower"},
	{name: "colstore.encoded_mb", unit: "MB", better: "lower"},
	{name: "colstore.ratio", unit: "ratio", better: "higher"},
	{name: "dataset.gen_s", unit: "s", better: "lower"},
	{name: "bench.sat_qps", unit: "req/s", better: "higher"},
	{name: "bench.gen_late_p95_us", unit: "us", better: "lower"},
	{name: "bench.client_cpu_us_per_req", unit: "us", better: "lower"},
	{name: "bench.p50_pass_spread", unit: "fraction", better: "lower"},
	{name: "bench.sat_pass_spread", unit: "fraction", better: "lower"},
	{name: "bench.trace_overhead_frac", unit: "fraction", better: "lower"},
	{name: "bench.host_slowdown", unit: "ratio", better: "lower"},
}

// Replay sizes: brush-sized calls are microseconds, so hundreds are free;
// a query scans the whole table, so a few dozen must do.
const (
	replayBrushes = 400
	replayQueries = 32
	replayMin     = 16
	replayBudget  = 1500 * time.Millisecond
)

// tracer keeps the run's spans in memory and the metric values as they
// are measured; spans are written out once, at the end.
type tracer struct {
	spans []span
	vals  map[string]float64
}

// each calls fn(i) for i in [0,n), records one span per call under name
// (child of parent) and returns the durations. A loop that has used up
// replayBudget stops early (never before replayMin calls), so the traced
// run's length is bounded whatever a call costs at this workload's scale.
func (t *tracer) each(name, parent string, n int, fn func(i int)) []time.Duration {
	out := make([]time.Duration, 0, n)
	loop := time.Now()
	for i := 0; i < n; i++ {
		start := time.Now()
		if i >= replayMin && start.Sub(loop) > replayBudget {
			break
		}
		fn(i)
		end := time.Now()
		out = append(out, end.Sub(start))
		t.spans = append(t.spans, span{ID: int64(i), Name: name, Parent: parent, StartNS: start.UnixNano(), EndNS: end.UnixNano()})
	}
	return out
}

// once times a build step, in seconds.
func (t *tracer) once(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	end := time.Now()
	t.spans = append(t.spans, span{Name: name, StartNS: start.UnixNano(), EndNS: end.UnixNano()})
	t.vals[name] = end.Sub(start).Seconds()
	return err
}

func p50(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return metrics.Percentile(xs, 50)
}

func (t *tracer) write(w workload) error {
	dir := filepath.Join("cmd", "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace_"+w.name+".json"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(t.spans)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runTraced is the --trace 1 run: a shortened load phase against the real
// server with client-side spans, then the script's inputs replayed in this
// process against each layer's public entry point.
func runTraced(w workload, seed int64, seconds int) error {
	bin, err := buildServer()
	if err != nil {
		return err
	}
	scripts := w.script(seed, w.scriptLength(seconds))
	fmt.Printf("workload %s seed %d seconds %d traced script_sha256 %s\n", w.name, seed, seconds, scriptHash(scripts))
	orc, err := newOracle(w.rows)
	if err != nil {
		return err
	}
	t := &tracer{vals: map[string]float64{}}
	attempted, failed, roundTrip, err := t.loadPhase(bin, w, scripts, orc, seconds)
	if err != nil {
		return err
	}
	if err := t.replay(w, scripts[0], roundTrip); err != nil {
		return err
	}
	if err := t.write(w); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("wrote %d spans to cmd/bench/out/trace_%s.json\n", len(t.spans), w.name)
	return report(perLayer, t.vals, attempted, failed)
}

// loadPhase drives the real server for half of seconds: three rounds of an
// untraced paced pass, a traced paced pass and a sat pass. It fills the
// bench.*, opt.*, planner counter and serve stage/counter metrics and
// returns the traced passes' median loopback round trip.
func (t *tracer) loadPhase(bin string, w workload, scripts [sessions][]*request, orc *oracle, seconds int) (attempted, failed int, roundTrip time.Duration, err error) {
	b, err := setUp(bin, w, scripts)
	if err != nil {
		return 0, 0, 0, err
	}
	defer b.close()
	if _, err := verify(b.players, orc, w.verify); err != nil {
		return 0, 0, 0, err
	}
	const n = 3
	pass := time.Duration(seconds) * time.Second / 2 / (3 * n)
	if _, err := pacedPass(b.players, w.rate, pass, false); err != nil {
		return 0, 0, 0, fmt.Errorf("warm-up: %w", err)
	}
	var plain, traced, satQPS, late, trips []float64
	var satReqs int
	var serverCPU, clientCPU time.Duration
	for i := 0; i < n; i++ {
		// The per-layer numbers are all as measured; this says how much of
		// a slow reading is the host's (calib.go).
		if err := b.readSpeed(); err != nil {
			return 0, 0, 0, err
		}
		for _, on := range []bool{false, true} {
			r, err := pacedPass(b.players, w.rate, pass, on)
			if err != nil {
				return 0, 0, 0, fmt.Errorf("paced pass %d: %w", i, err)
			}
			attempted += r.attempted
			failed += r.failed
			if on {
				traced = append(traced, metrics.Percentile(r.latencies, 50))
				for _, s := range r.spans {
					if s.Name == "round_trip" {
						trips = append(trips, float64(s.EndNS-s.StartNS))
					}
				}
				t.spans = append(t.spans, r.spans...)
			} else {
				plain = append(plain, metrics.Percentile(r.latencies, 50))
				late = append(late, metrics.Percentile(r.lateUS, 95))
			}
		}
		pids := b.srv.tree()
		cpu0, self0 := cpuTime(pids), selfCPU()
		r, err := satPass(b.players, pass)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("sat pass %d: %w", i, err)
		}
		serverCPU += cpuTime(pids) - cpu0
		clientCPU += selfCPU() - self0
		satQPS = append(satQPS, float64(r.attempted-r.failed)/r.elapsed.Seconds())
		satReqs += r.attempted
		attempted += r.attempted
		failed += r.failed
	}
	st, err := b.srv.stats()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("scrape /metrics: %w", err)
	}
	restarts, err := b.srv.restarts()
	if err != nil {
		return 0, 0, 0, err
	}
	if err := b.close(); err != nil {
		return 0, 0, 0, err
	}

	v := t.vals
	v["bench.sat_qps"] = median(satQPS)
	v["bench.sat_pass_spread"] = passSpread(satQPS)
	v["bench.p50_pass_spread"] = passSpread(plain)
	v["bench.gen_late_p95_us"] = median(late)
	v["bench.trace_overhead_frac"] = median(traced)/median(plain) - 1
	v["bench.host_slowdown"] = mean(b.speeds)
	v["bench.client_cpu_us_per_req"] = usOf(clientCPU) / float64(satReqs)
	v["serve.server_cpu_us_per_req"] = usOf(serverCPU) / float64(satReqs)
	for _, stage := range []string{"admission", "queue", "execute", "scatter", "merge", "write"} {
		v["serve.stage_"+stage+"_mean_us"] = st.Stages[stage].MeanMS * 1000 // absent stage reads 0
	}
	v["serve.executed"] = float64(st.Executed)
	v["serve.coalesced"] = float64(st.Coalesced)
	v["serve.shed"] = float64(st.Shed)
	v["serve.errors"] = float64(st.Errors)
	v["serve.degraded"] = float64(st.Degraded)
	v["serve.lcv"] = float64(st.LCV)
	v["opt.tile_cache_hit_ratio"] = ratio(st.TileCacheHits, st.TileCacheMiss)
	v["opt.brush_cache_hit_ratio"] = ratio(st.BrushCacheHits, st.BrushCacheMiss)
	v["router.restarts"] = float64(restarts)
	for _, k := range []string{"choice_prefix_cube", "choice_mat_index", "choice_cross_delta", "choice_other", "materializations", "evictions", "index_bytes"} {
		v["planner."+k] = 0
	}
	if p := st.Planner; p != nil {
		for name, c := range p.Choices {
			switch name {
			case planner.PrefixCube.String():
				v["planner.choice_prefix_cube"] = float64(c)
			case planner.MatIndex.String():
				v["planner.choice_mat_index"] = float64(c)
			case planner.CrossDelta.String():
				v["planner.choice_cross_delta"] = float64(c)
			default:
				v["planner.choice_other"] += float64(c)
			}
		}
		v["planner.materializations"] = float64(p.Materializations)
		v["planner.evictions"] = float64(p.Evictions)
		v["planner.index_bytes"] = float64(p.IndexBytes)
	}
	return attempted, failed, time.Duration(metrics.Percentile(trips, 50)), nil
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// discard is the least http.ResponseWriter a handler can write to, so
// serve.handler_us_p50 times the handler and not a recorder.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(int)             {}

// replay builds every layer over the workload's data in this process and
// times each layer's public entry point on the script's own inputs.
func (t *tracer) replay(w workload, script []*request, roundTrip time.Duration) error {
	v := t.vals
	evs := script[:min(replayBrushes, len(script))]
	dims := serve.RoadCubeDims()
	filters := make([][]*datacube.Range, len(evs))
	for i, e := range evs {
		filters[i] = filtersOf(e.ranges)
	}
	par := runtime.GOMAXPROCS(0)

	// dataset, colstore
	var plain, frozen *storage.Table
	_ = t.once("dataset.gen_s", func() error { plain = dataset.Roads(datasetSeed, w.rows); return nil })
	if err := t.once("colstore.freeze_s", func() (err error) { frozen, err = colstore.Freeze(plain, nil); return }); err != nil {
		return err
	}
	cs := colstore.StatsOf(frozen)
	v["colstore.encoded_mb"] = float64(cs.EncodedBytes) / (1 << 20)
	v["colstore.ratio"] = cs.Ratio
	table := plain
	if w.encode {
		table = frozen
	}
	sel := t.each("colstore.select", "engine.execute", replayQueries, func(i int) {
		var preds []colstore.RangePred
		for d, r := range evs[i*len(evs)/replayQueries].ranges {
			if col, ok := colstore.Of(frozen.Column(dims[d].Name)); ok && r != nil {
				preds = append(preds, colstore.RangePred{Col: col, Lo: r[0], Hi: r[1]})
			}
		}
		colstore.Select(w.rows, preds, par)
	})
	v["colstore.select_ns_per_row"] = p50(sel, time.Nanosecond) / float64(w.rows)

	// sql, engine, morsel
	queries := make([]string, replayQueries)
	stmts := make([]*sql.SelectStmt, replayQueries)
	for i := range queries {
		e := evs[i*len(evs)/replayQueries]
		queries[i] = histogramSQL(e.ranges, e.moved)
	}
	var perr error
	parse := t.each("sql.parse", "engine.execute", replayQueries, func(i int) {
		if stmts[i], perr = sql.Parse(queries[i]); perr != nil {
			panic(perr) // the statement came out of opt.HistogramQuery's own parser
		}
	})
	v["sql.parse_us_p50"] = p50(parse, time.Microsecond)
	eng := engine.New(engine.ProfileMemory)
	eng.Register(table)
	var scanned int
	var xerr error
	exec := func(name string) []time.Duration {
		return t.each(name, "serve.handler", replayQueries, func(i int) {
			res, err := eng.Execute(stmts[i])
			if err != nil {
				xerr = err
				return
			}
			scanned += res.Stats.TuplesScanned
		})
	}
	execP := exec("engine.execute")
	v["engine.tuples_scanned_per_query"] = float64(scanned) / float64(len(execP))
	eng.SetParallelism(1)
	execP1 := exec("engine.execute_p1")
	eng.SetParallelism(par)
	if xerr != nil {
		return fmt.Errorf("engine replay: %w", xerr)
	}
	v["engine.execute_us_p50"] = p50(execP, time.Microsecond)
	v["engine.execute_p1_us_p50"] = p50(execP1, time.Microsecond)
	v["engine.ns_per_row"] = p50(execP, time.Nanosecond) / float64(w.rows)
	v["morsel.speedup_p2"] = p50(execP1, time.Nanosecond) / p50(execP, time.Nanosecond)

	// datacube
	var cube *datacube.Cube
	var prefix *datacube.PrefixCube
	if err := t.once("datacube.dense_build_s", func() (err error) { cube, err = datacube.Build(table, dims); return }); err != nil {
		return err
	}
	_ = t.once("datacube.prefix_build_s", func() error { prefix = datacube.NewPrefix(cube); return nil })
	hists := make([][]int64, len(dims))
	for d := range hists {
		hists[d] = make([]int64, dims[d].Bins)
	}
	var berr error
	brush := t.each("datacube.prefix_brush", "serve.handler", len(evs), func(i int) {
		for d := range hists {
			if err := prefix.HistogramInto(d, filters[i], hists[d]); err != nil {
				berr = err
			}
		}
		if _, err := prefix.Count(filters[i]); err != nil {
			berr = err
		}
	})
	if berr != nil {
		return fmt.Errorf("datacube replay: %w", berr)
	}
	v["datacube.prefix_brush_ns_p50"] = p50(brush, time.Nanosecond)

	// planner
	plan, err := planner.New(table, cube, dims, planner.Config{Prefix: prefix})
	if err != nil {
		return err
	}
	plans := t.each("planner.answer", "serve.handler", len(evs), func(i int) {
		if _, _, err := plan.Answer("replay", evs[i].moved, filters[i], hists); err != nil {
			berr = err
		}
	})
	plan.Close()
	if berr != nil {
		return fmt.Errorf("planner replay: %w", berr)
	}
	v["planner.answer_ns_p50"] = p50(plans, time.Nanosecond)

	// crossfilter
	specs := make([]crossfilter.DimSpec, len(dims))
	for i, d := range dims {
		specs[i] = crossfilter.DimSpec{Name: d.Name, Lo: d.Lo, Hi: d.Hi}
	}
	cross, err := crossfilter.NewWithBounds(table, specs, 0)
	if err != nil {
		return err
	}
	before := cross.ScanRecords()
	steps := t.each("crossfilter.setfilter", "planner.answer", len(evs), func(i int) {
		r := evs[i].ranges[evs[i].moved]
		cross.SetFilter(evs[i].moved, r[0], r[1])
	})
	v["crossfilter.setfilter_us_p50"] = p50(steps, time.Microsecond)
	v["crossfilter.scan_records_per_step"] = float64(cross.ScanRecords()-before) / float64(len(steps))

	// shard: the in-process coordinator, S=2
	var coord *shard.Coordinator
	if err := t.once("shard.build_s", func() (err error) {
		coord, err = shard.New(table, dims, shard.Options{Shards: 2, WithEngine: true, Encode: w.encode})
		return
	}); err != nil {
		return err
	}
	defer coord.Close() // idempotent: a server that was handed it closes it first
	gathers := make([]*shard.Gather, len(evs))
	scatter := t.each("shard.scatter_brush", "serve.handler", len(evs), func(i int) {
		if gathers[i], err = coord.ScatterBrush(context.Background(), "replay", filters[i]); err != nil {
			berr = err
		}
	})
	if berr != nil {
		return fmt.Errorf("shard replay: %w", berr)
	}
	merge := t.each("shard.merge", "serve.handler", len(scatter), func(i int) { gathers[i].MergeBrush(dims) })
	both := make([]time.Duration, len(merge))
	for i := range both {
		both[i] = scatter[i] + merge[i]
	}
	v["shard.scatter_brush_us_p50"] = p50(both, time.Microsecond)
	v["shard.merge_us_p50"] = p50(merge, time.Microsecond)
	qhist := t.each("shard.query_hist", "serve.handler", replayQueries, func(i int) {
		if _, _, _, err := coord.QueryHistogram(context.Background(), queries[i]); err != nil {
			berr = err
		}
	})
	if berr != nil {
		return fmt.Errorf("shard query replay: %w", berr)
	}
	v["shard.query_hist_us_p50"] = p50(qhist, time.Microsecond)

	// router: a fleet of this binary's own children, S=2
	var fleet *router.Fleet
	if err := t.once("router.spawn_ready_s", func() (err error) {
		fleet, err = router.New(router.Config{Shards: 2, Dataset: "road", Rows: w.rows, Seed: datasetSeed, Encode: w.encode, ChildStderr: os.Stderr})
		if err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		return fleet.WaitReady(ctx)
	}); err != nil {
		if fleet != nil {
			fleet.Close()
		}
		return err
	}
	defer fleet.Close() // idempotent, as above
	hop := t.each("router.scatter", "serve.handler", len(evs), func(i int) {
		g, err := fleet.ScatterBrush(context.Background(), "replay", filters[i])
		if err != nil {
			berr = err
			return
		}
		g.MergeBrush(dims)
	})
	if berr != nil {
		return fmt.Errorf("router replay: %w", berr)
	}
	v["router.scatter_us_p50"] = p50(hop, time.Microsecond)
	v["router.hop_us_p50"] = v["router.scatter_us_p50"] - v["shard.scatter_brush_us_p50"]

	// serve: the handler in process, configured as idevald configures it
	// for this workload, over the layers built above.
	cfg := serve.Config{Planner: w.planner}
	backends := serve.Backends{Engine: eng, Cube: cube, Tiles: table, TileLat: "y", TileLng: "x"}
	var answer []time.Duration // the layer call beneath the handler, per brush
	switch {
	case w.router > 1:
		cfg.Gatherer, cfg.GatherDims, backends = fleet, fleet.Dims(), serve.Backends{}
		answer = hop
	case w.shards > 1:
		// The coordinator goes in through the Gatherer door, which is where
		// serve.New puts the one it builds for -shards.
		cfg.Gatherer, cfg.GatherDims, backends.Cube = coord, dims, nil
		answer = both
	case w.planner:
		answer = plans
	default:
		answer = brush
	}
	srv, err := serve.New(backends, cfg)
	if err != nil {
		return err
	}
	h := srv.Handler()
	reqs := make([]*http.Request, len(evs))
	wire := make([]byte, 0, 1024)
	for i, e := range evs {
		wire = append(wire[:0], e.wire...)
		patchSeq(wire[e.seqOff:e.seqOff+seqWidth], int64(i+1), e.pad)
		if reqs[i], err = http.ReadRequest(bufio.NewReader(bytes.NewReader(wire))); err != nil {
			return fmt.Errorf("scripted request %d does not parse: %w", i, err)
		}
		body := new(bytes.Buffer)
		if _, err := body.ReadFrom(reqs[i].Body); err != nil {
			return err
		}
		reqs[i].Body = io.NopCloser(body)
	}
	rw := &discard{h: http.Header{}}
	handler := t.each("serve.handler", "round_trip", len(evs), func(i int) { h.ServeHTTP(rw, reqs[i]) })
	// Self time: the handler's span minus the layer call beneath it. Brushes
	// pair with the same input's replayed answer; queries were replayed on
	// a thinned set, so they are charged that set's median; a cached tile
	// has nothing beneath it.
	sqlAnswer := p50(execP, time.Nanosecond)
	if w.shards > 1 {
		sqlAnswer = p50(qhist, time.Nanosecond)
	}
	var self []time.Duration
	for i, d := range handler {
		switch {
		case evs[i].kind == kindSQL:
			d -= time.Duration(sqlAnswer)
		case evs[i].kind == kindBrush && i < len(answer):
			d -= answer[i]
		}
		self = append(self, d)
	}
	v["serve.handler_us_p50"] = p50(handler, time.Microsecond)
	v["serve.self_us_p50"] = p50(self, time.Microsecond)
	v["serve.http_hop_us_p50"] = usOf(roundTrip) - v["serve.handler_us_p50"]

	fs := fleet.Stats()
	v["router.hedges"], v["router.hedge_wins"] = float64(fs.Hedges), float64(fs.HedgeWins)
	v["router.restarts"] += float64(fs.Restarts)
	v["router.children_rss_mb"] = peakRSSMB(childrenOf(os.Getpid()))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Drain(ctx)
}
