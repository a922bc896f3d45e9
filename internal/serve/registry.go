package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colstore"
	"repro/internal/metrics"
	"repro/internal/obsv"
	"repro/internal/planner"
)

// qifWindow bounds the ring of recent issue timestamps that the QIF
// report is computed over. Percentiles describe a recent window of
// traffic, so the issuing-rate headline must describe the same recent
// horizon — a lifetime average would mix in traffic from long ago.
const qifWindow = 1 << 12

// Registry is the serving layer's online metrics: the paper's frontend
// metrics (LCV against the next-action definition, QIF) plus the classical
// backend ones (latency percentiles, shed and error counts, queue depth),
// all computed incrementally as requests flow.
//
// Counters are atomics and latency goes into a lock-free fixed-bucket
// histogram (internal/obsv), so the request path never shares a lock with
// a scrape. The one remaining mutex guards only the QIF timestamp ring.
type Registry struct {
	constraint time.Duration

	issued           atomic.Int64
	executed         atomic.Int64
	coalesced        atomic.Int64
	shed             atomic.Int64
	errors           atomic.Int64
	lcv              atomic.Int64
	overConstraint   atomic.Int64
	regressions      atomic.Int64
	tileHits         atomic.Int64
	tileMisses       atomic.Int64
	degraded         atomic.Int64
	deadlines        atomic.Int64
	retries          atomic.Int64
	brushCacheHits   atomic.Int64
	brushCacheMisses atomic.Int64
	breakerRejects   atomic.Int64

	// hist holds user-perceived end-to-end latency; percentile reads are a
	// bucket walk over atomic counters — no reservoir, no sorting.
	hist obsv.Histogram

	// tracer owns the per-stage histograms, LCV-by-stage attribution, and
	// the recent-trace ring exported at /v1/trace.
	tracer *obsv.Tracer

	mu sync.Mutex // guards the QIF ring only
	// issueRing holds the most recent qifWindow issue timestamps; QIF is
	// reported over this window so it describes the same recent traffic
	// the latency percentiles do.
	issueRing  []time.Time
	issueHead  int // next write position
	issueCount int // occupied slots, <= qifWindow
}

// NewRegistry builds a registry evaluating against the given wall-clock
// latency constraint; 0 means metrics.DefaultConstraint.
func NewRegistry(constraint time.Duration) *Registry {
	if constraint <= 0 {
		constraint = metrics.DefaultConstraint
	}
	return &Registry{
		constraint: constraint,
		tracer:     obsv.NewTracer(0),
	}
}

// Constraint returns the wall-clock latency constraint in force.
func (r *Registry) Constraint() time.Duration { return r.constraint }

// Tracer returns the registry's stage tracer; handlers Begin/Finish traces
// against it.
func (r *Registry) Tracer() *obsv.Tracer { return r.tracer }

// recordIssue counts one offered request and feeds the QIF clock.
func (r *Registry) recordIssue(now time.Time) {
	r.issued.Add(1)
	r.mu.Lock()
	if r.issueRing == nil {
		r.issueRing = make([]time.Time, qifWindow)
	}
	r.issueRing[r.issueHead] = now
	r.issueHead = (r.issueHead + 1) % qifWindow
	if r.issueCount < qifWindow {
		r.issueCount++
	}
	r.mu.Unlock()
}

// qifLocked computes the windowed issuing rate over the issue ring; the
// caller holds r.mu. O(1): the ring's oldest and newest entries bound the
// window span.
func (r *Registry) qifLocked() float64 {
	if r.issueCount < 2 {
		return 0
	}
	newest := r.issueRing[(r.issueHead-1+qifWindow)%qifWindow]
	oldest := r.issueRing[(r.issueHead-r.issueCount+qifWindow)%qifWindow]
	span := newest.Sub(oldest)
	if span <= 0 {
		return 0
	}
	return float64(r.issueCount-1) / span.Seconds()
}

// recordExec counts one backend execution. Under coalescing this runs once
// per execution, not once per request, which is what makes executed <
// issued the signature of the optimization working.
func (r *Registry) recordExec() { r.executed.Add(1) }

// recordLatency records one responded request's user-perceived latency.
func (r *Registry) recordLatency(latency time.Duration) {
	if latency > r.constraint {
		r.overConstraint.Add(1)
	}
	r.hist.Observe(latency)
}

// recordCoalesced counts one request superseded by a newer one.
func (r *Registry) recordCoalesced() { r.coalesced.Add(1) }

// recordShed counts one request rejected at admission (HTTP 429).
func (r *Registry) recordShed() { r.shed.Add(1) }

// recordError counts one request that failed during execution.
func (r *Registry) recordError() { r.errors.Add(1) }

// recordLCV adds n latency-constraint violations: requests still in flight
// when their session issued its next request (Figure 2's definition,
// evaluated online).
func (r *Registry) recordLCV(n int) {
	if n != 0 {
		r.lcv.Add(int64(n))
	}
}

// recordRegression counts a per-session sequence regression: an executed
// state older than one already applied. It must stay zero; the race
// integration test asserts on it.
func (r *Registry) recordRegression() { r.regressions.Add(1) }

// recordTileHit counts a /v1/tiles request served from the result cache
// without touching the admission queue.
func (r *Registry) recordTileHit() { r.tileHits.Add(1) }

// recordTileMiss counts a /v1/tiles request that had to execute.
func (r *Registry) recordTileMiss() { r.tileMisses.Add(1) }

// recordDegraded counts one request answered by a lower ladder tier (cached
// or partial result) instead of the exact scan.
func (r *Registry) recordDegraded() { r.degraded.Add(1) }

// recordDeadline counts one execution cut short by its deadline budget.
func (r *Registry) recordDeadline() { r.deadlines.Add(1) }

// recordRetry counts one backend retry after an injected transient error.
func (r *Registry) recordRetry() { r.retries.Add(1) }

// recordBrushCacheHit counts one brush answered from the exact-result cache.
func (r *Registry) recordBrushCacheHit() { r.brushCacheHits.Add(1) }

// recordBrushCacheMiss counts one cache-tier lookup that found no exact
// answer for the requested ranges — the other half of the brush cache's
// hit rate, which was previously unobservable.
func (r *Registry) recordBrushCacheMiss() { r.brushCacheMisses.Add(1) }

// recordBreakerReject counts one request rejected by the open circuit
// breaker before admission.
func (r *Registry) recordBreakerReject() { r.breakerRejects.Add(1) }

// StageStats is one pipeline stage's span summary in a Stats snapshot.
type StageStats struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// Stats is one /metrics snapshot.
type Stats struct {
	Issued         int64   `json:"issued"`
	Executed       int64   `json:"executed"`
	Coalesced      int64   `json:"coalesced"`
	Shed           int64   `json:"shed"`
	Errors         int64   `json:"errors"`
	LCV            int64   `json:"lcv"`
	LCVFraction    float64 `json:"lcv_fraction"`
	OverConstraint int64   `json:"over_constraint"`
	ConstraintMS   float64 `json:"constraint_ms"`
	Regressions    int64   `json:"seq_regressions"`
	TileCacheHits  int64   `json:"tile_cache_hits"`
	TileCacheMiss  int64   `json:"tile_cache_misses"`
	Degraded       int64   `json:"degraded"`
	Deadlines      int64   `json:"deadline_exceeded"`
	Retries        int64   `json:"retries"`
	BrushCacheHits int64   `json:"brush_cache_hits"`
	BrushCacheMiss int64   `json:"brush_cache_misses"`
	BreakerRejects int64   `json:"breaker_rejects"`
	BreakerTrips   int64   `json:"breaker_trips"`
	QIFPerSec      float64 `json:"qif_per_sec"`
	QIFWindow      int     `json:"qif_window"`
	P50MS          float64 `json:"p50_ms"`
	P95MS          float64 `json:"p95_ms"`
	P99MS          float64 `json:"p99_ms"`
	MaxMS          float64 `json:"max_ms"`
	LatencySamples int64   `json:"latency_samples"`
	LatencyDropped int64   `json:"latency_dropped"`
	QueueDepth     int     `json:"queue_depth"`
	Inflight       int     `json:"inflight"`

	// Stages is the per-stage span breakdown (admission, queue, coalesce,
	// execute, merge, write), present for stages that have observations.
	Stages map[string]StageStats `json:"stages,omitempty"`
	// LCVByStage attributes each latency-constraint violation to the
	// pipeline stage that consumed the most of the violating request's
	// time — the "where did the budget go" view of LCV.
	LCVByStage map[string]int64 `json:"lcv_by_stage,omitempty"`

	// Store is the compressed-columnar encoding breakdown of the served
	// table (per-column encodings, encoded vs plain bytes, compression
	// ratio). Present only when the backends were frozen via
	// colstore.Freeze / EncodeBackends.
	Store *colstore.TableStats `json:"store,omitempty"`

	// Planner is the materialization planner's decision and index-economy
	// snapshot (per-structure choice counts, materializations, store
	// bytes). Present only when the server runs with Config.Planner.
	Planner *planner.Stats `json:"planner,omitempty"`

	// Router is the process router's counters snapshot (spawns, restarts,
	// hedges, data-plane RPCs and redials, RPC and child-service p50).
	// Present only when the gatherer implements RPCReporter.
	Router any `json:"router,omitempty"`
}

const msPerNS = 1.0 / float64(time.Millisecond)

func durMS(d time.Duration) float64 { return float64(d) * msPerNS }

// snapshot computes the current stats; queue depth and inflight come from
// the server, which owns those gauges. Nothing here blocks the request
// path: counters and histogram buckets are atomics, and r.mu (the QIF
// ring) is held for an O(1) read.
func (r *Registry) snapshot(queueDepth, inflight int) Stats {
	s := Stats{
		Issued:         r.issued.Load(),
		Executed:       r.executed.Load(),
		Coalesced:      r.coalesced.Load(),
		Shed:           r.shed.Load(),
		Errors:         r.errors.Load(),
		LCV:            r.lcv.Load(),
		OverConstraint: r.overConstraint.Load(),
		ConstraintMS:   durMS(r.constraint),
		Regressions:    r.regressions.Load(),
		TileCacheHits:  r.tileHits.Load(),
		TileCacheMiss:  r.tileMisses.Load(),
		Degraded:       r.degraded.Load(),
		Deadlines:      r.deadlines.Load(),
		Retries:        r.retries.Load(),
		BrushCacheHits: r.brushCacheHits.Load(),
		BrushCacheMiss: r.brushCacheMisses.Load(),
		BreakerRejects: r.breakerRejects.Load(),
		QueueDepth:     queueDepth,
		Inflight:       inflight,
	}
	if s.Issued > 0 {
		s.LCVFraction = float64(s.LCV) / float64(s.Issued)
	}
	r.mu.Lock()
	s.QIFPerSec = r.qifLocked()
	s.QIFWindow = r.issueCount
	r.mu.Unlock()

	lat := r.hist.Snapshot()
	s.LatencySamples = lat.Count
	if lat.Count > 0 {
		s.P50MS = durMS(lat.Percentile(50))
		s.P95MS = durMS(lat.Percentile(95))
		s.P99MS = durMS(lat.Percentile(99))
		s.MaxMS = durMS(lat.Percentile(100))
	}

	lcvByStage := r.tracer.LCVByStage()
	for st := obsv.StageAdmission; st < obsv.NumStages; st++ {
		snap := r.tracer.StageHist(st).Snapshot()
		if snap.Count > 0 {
			if s.Stages == nil {
				s.Stages = make(map[string]StageStats, int(obsv.NumStages))
			}
			s.Stages[st.String()] = StageStats{
				Count:  snap.Count,
				MeanMS: durMS(snap.Mean()),
				P50MS:  durMS(snap.Percentile(50)),
				P95MS:  durMS(snap.Percentile(95)),
				P99MS:  durMS(snap.Percentile(99)),
				MaxMS:  durMS(snap.Percentile(100)),
			}
		}
		if n := lcvByStage[st]; n > 0 {
			if s.LCVByStage == nil {
				s.LCVByStage = make(map[string]int64, int(obsv.NumStages))
			}
			s.LCVByStage[st.String()] = n
		}
	}
	return s
}
