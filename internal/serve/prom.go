package serve

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obsv"
	"repro/internal/tracefmt"
)

// promNamespace prefixes every exported Prometheus metric name.
const promNamespace = "idevald"

// wantsProm decides the /metrics representation: ?format=prometheus wins,
// else an Accept header naming text/plain or OpenMetrics. The default
// stays JSON — the repo's own tooling (loadgen, tests) decodes Stats.
func wantsProm(r *http.Request) bool {
	if f := r.URL.Query().Get("format"); f != "" {
		return f == "prometheus"
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

// writeProm renders the full metrics surface in Prometheus text
// exposition format 0.0.4: every Stats counter and gauge, the end-to-end
// latency histogram, one histogram per pipeline stage, and the
// LCV-by-stage attribution vector. Series names and label sets are stable
// across scrapes (zero-count stages still emit), so dashboards never see
// series appear mid-run.
func (s *Server) writeProm(w http.ResponseWriter) {
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obsv.NewPromWriter(w, promNamespace)

	p.Counter("requests_total", "Requests offered across all endpoints.", float64(st.Issued))
	p.Counter("executed_total", "Backend executions (under coalescing, fewer than requests).", float64(st.Executed))
	p.Counter("coalesced_total", "Requests that rode another request's execution.", float64(st.Coalesced))
	p.Counter("shed_total", "Requests shed at admission with HTTP 429.", float64(st.Shed))
	p.Counter("errors_total", "Requests that failed during execution.", float64(st.Errors))
	p.Counter("lcv_total", "Latency-constraint violations (next-action definition, online).", float64(st.LCV))
	p.Counter("over_constraint_total", "Responses slower than the latency constraint.", float64(st.OverConstraint))
	p.Counter("seq_regressions_total", "Per-session sequence regressions (must stay zero).", float64(st.Regressions))
	p.Counter("tile_cache_hits_total", "Tile requests answered from the result cache.", float64(st.TileCacheHits))
	p.Counter("tile_cache_misses_total", "Tile requests that had to execute.", float64(st.TileCacheMiss))
	p.Counter("degraded_total", "Requests answered by a lower degradation-ladder tier.", float64(st.Degraded))
	p.Counter("deadline_exceeded_total", "Executions cut short by their deadline budget.", float64(st.Deadlines))
	p.Counter("retries_total", "Backend retries after injected transient errors.", float64(st.Retries))
	p.Counter("brush_cache_hits_total", "Brushes answered from the exact-result cache.", float64(st.BrushCacheHits))
	p.Counter("brush_cache_misses_total", "Cache-tier lookups that found no exact answer.", float64(st.BrushCacheMiss))
	p.Counter("breaker_rejects_total", "Requests rejected by the open circuit breaker.", float64(st.BreakerRejects))
	p.Counter("breaker_trips_total", "Circuit-breaker open transitions.", float64(st.BreakerTrips))

	p.Gauge("queue_depth", "Admission queue occupancy.", float64(st.QueueDepth))
	p.Gauge("inflight", "Requests executing right now.", float64(st.Inflight))
	p.Gauge("qif_per_sec", "Query issuing frequency over the recent window.", st.QIFPerSec)
	p.Gauge("qif_window", "Issue timestamps in the QIF window.", float64(st.QIFWindow))
	p.Gauge("constraint_seconds", "The latency constraint in force.", float64(s.reg.Constraint())/1e9)
	p.Gauge("latency_samples", "Observations in the latency histogram.", float64(st.LatencySamples))

	if st.Store != nil {
		p.Gauge("colstore_encoded_bytes", "Resident bytes of the served table's encoded columns.", float64(st.Store.EncodedBytes))
		p.Gauge("colstore_plain_bytes", "Bytes the served table would occupy uncompressed.", float64(st.Store.PlainBytes))
		p.Gauge("colstore_compression_ratio", "Plain bytes over encoded bytes for the served table.", st.Store.Ratio)
		cols := make(map[string]float64, len(st.Store.Columns))
		for _, c := range st.Store.Columns {
			cols[c.Name] = float64(c.Bytes)
		}
		p.GaugeVec("colstore_column_bytes", "Resident encoded bytes per served column.", "column", cols)
		p.Gauge("colstore_zone_bytes", "Resident bytes of the served table's zone maps (min/max per 64 rows).", float64(st.Store.ZoneBytes))
		skipped, filled, evaluated := map[string]float64{}, map[string]float64{}, map[string]float64{}
		for _, c := range st.Store.Columns {
			if c.ZoneBytes > 0 {
				skipped[c.Name] = float64(c.ZoneWordsSkipped)
				filled[c.Name] = float64(c.ZoneWordsFilled)
				evaluated[c.Name] = float64(c.ZoneWordsEvaluated)
			}
		}
		p.CounterVec("colstore_zone_words_skipped_total", "64-row words a range filter decided empty from the zone map.", "column", skipped)
		p.CounterVec("colstore_zone_words_filled_total", "64-row words a range filter decided full from the zone map.", "column", filled)
		p.CounterVec("colstore_zone_words_evaluated_total", "64-row words a range filter compared row by row.", "column", evaluated)
		p.Gauge("colstore_sketch_bytes", "Resident bytes of the column sketches built so far (one code byte per row of a plain column a statement has filtered or binned).", float64(st.Store.SketchBytes))
		decided, refined := map[string]float64{}, map[string]float64{}
		for _, c := range st.Store.Columns {
			if c.SketchBytes > 0 {
				decided[c.Name] = float64(c.SketchRowsDecided)
				refined[c.Name] = float64(c.SketchRowsRefined)
			}
		}
		p.CounterVec("colstore_sketch_rows_decided_total", "Rows of zone-undecided words a range filter decided from their sketch code.", "column", decided)
		p.CounterVec("colstore_sketch_rows_refined_total", "Rows in a sketch bucket cut by a bound, compared by value.", "column", refined)
		p.Gauge("colstore_run_bytes", "Resident bytes of the cell-run directories (run starts and per-run column bounds) of the served table and its partitions.", float64(st.Store.RunBytes))
		runSkipped, runSummed, runScanned := map[string]float64{}, map[string]float64{}, map[string]float64{}
		for _, c := range st.Store.Columns {
			if c.RunBytes > 0 {
				runSkipped[c.Name] = float64(c.RunsSkipped)
				runSummed[c.Name] = float64(c.RunsSummed)
				runScanned[c.Name] = float64(c.RunsScanned)
			}
		}
		p.CounterVec("colstore_runs_skipped_total", "Cell runs a histogram statement reading the column skipped from their bounds.", "column", runSkipped)
		p.CounterVec("colstore_runs_summed_total", "Cell runs a histogram statement reading the column counted whole from their bounds.", "column", runSummed)
		p.CounterVec("colstore_runs_scanned_total", "Cell runs a histogram statement reading the column sent to the row kernels.", "column", runScanned)
	}

	if st.Planner != nil {
		choices := make(map[string]float64, len(st.Planner.Choices))
		for name, n := range st.Planner.Choices {
			choices[name] = float64(n)
		}
		p.CounterVec("planner_choice_total",
			"Brush answers per answering structure.",
			"structure", choices)
		p.Counter("planner_materializations_total", "Per-selection indexes built for hot drag templates.", float64(st.Planner.Materializations))
		p.Counter("planner_evictions_total", "Indexes the planner store's byte budget pushed out.", float64(st.Planner.Evictions))
		p.Gauge("planner_index_count", "Materialized per-selection indexes resident.", float64(st.Planner.IndexCount))
		p.Gauge("planner_index_bytes", "Resident bytes of materialized indexes.", float64(st.Planner.IndexBytes))
		p.Gauge("planner_store_bytes", "Resident bytes charged against the planner store's budget.", float64(st.Planner.StoreBytes))
		p.Gauge("planner_budget_bytes", "The planner store's byte budget.", float64(st.Planner.BudgetBytes))
	}

	if rr, ok := s.coord.(RPCReporter); ok {
		_, rpc, childService := rr.RPCStats()
		p.Histogram("router_rpc_seconds", "Router-measured shard RPC latency (request written to reply dispatched).", "", rpc)
		p.Histogram("router_child_service_seconds", "Shard child's own service time per RPC (request read to reply encoded).", "", childService)
	}

	lcv := s.reg.tracer.LCVByStage()
	byStage := make(map[string]float64, int(obsv.NumStages))
	for stg := obsv.StageAdmission; stg < obsv.NumStages; stg++ {
		byStage[stg.String()] = float64(lcv[stg])
	}
	p.CounterVec("lcv_by_stage_total",
		"Latency-constraint violations attributed to the violating request's dominant stage.",
		"stage", byStage)

	p.Histogram("request_seconds", "End-to-end user-perceived request latency.", "", s.reg.hist.Snapshot())
	for stg := obsv.StageAdmission; stg < obsv.NumStages; stg++ {
		p.Histogram("stage_seconds", "Per-stage span latency across requests that visited the stage.",
			`stage="`+stg.String()+`"`, s.reg.tracer.StageHist(stg).Snapshot())
	}
	_ = p.Err()
}

// handleTrace exports the ring of recent request traces as tracefmt JSON
// lines, newest last. ?n= bounds the tail returned.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	recs := s.reg.tracer.Recent()
	if nStr := r.URL.Query().Get("n"); nStr != "" {
		if n, err := strconv.Atoi(nStr); err == nil && n >= 0 && n < len(recs) {
			recs = recs[len(recs)-n:]
		}
	}
	out := make([]tracefmt.TraceRecord, 0, len(recs))
	for _, rec := range recs {
		out = append(out, traceWire(rec, s.start))
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = tracefmt.WriteTraceRecords(w, out)
}

// traceWire converts one completed trace to its wire record; timestamps
// are relative to server start, like the request log's.
func traceWire(rec *obsv.TraceRecord, serverStart time.Time) tracefmt.TraceRecord {
	out := tracefmt.TraceRecord{
		TimestampMS: rec.Start.Sub(serverStart).Milliseconds(),
		Session:     rec.Session,
		Seq:         rec.Seq,
		Kind:        rec.Kind,
		Status:      rec.Status,
		TotalMS:     durMS(rec.Total),
		Tier:        rec.Tier,
		LCV:         rec.LCV,
		Dominant:    rec.Dominant().String(),
		StagesMS:    make(map[string]float64, int(obsv.NumStages)),
	}
	for stg := obsv.StageAdmission; stg < obsv.NumStages; stg++ {
		if rec.Visited(stg) {
			out.StagesMS[stg.String()] = durMS(rec.Stages[stg])
		}
	}
	return out
}
