// Package serve is the real network serving layer over the repo's
// backends: HTTP/JSON handlers for SQL queries (internal/engine),
// crossfilter brush updates (internal/datacube), and map-tile fetches,
// with per-session state keyed by a session token.
//
// The server reproduces the paper's §3.1.1 latency components as
// production plumbing rather than a virtual-clock model:
//
//   - network: real sockets — the handler's transport;
//   - query scheduling: a bounded worker pool behind an admission queue.
//     When the queue is full the request is shed with a fast 429 instead
//     of joining the Figure 2 cascade;
//   - query execution: the engine or cube itself;
//   - per-session single-flight coalescing: a newer brush supersedes a
//     queued stale one, the serving-side analog of opt.ReplaySkip
//     (Algorithm 1) — every session still receives its latest result.
//
// Online metrics (LCV against a configurable latency constraint, QIF,
// queue depth, latency percentiles, shed count) are exposed at /metrics;
// /healthz reports liveness; request completions are logged in tracefmt
// schema; Drain stops admission and waits for in-flight work on SIGTERM.
package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colstore"
	"repro/internal/datacube"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/obsv"
	"repro/internal/opt"
	"repro/internal/planner"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/widget"
)

// Config tunes the serving layer's admission and scheduling plumbing.
type Config struct {
	// Workers is the execution pool size; 0 means runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds the admission queue; a request arriving with the
	// queue full is shed with HTTP 429. 0 means 64.
	QueueDepth int
	// Constraint is the wall-clock latency constraint the registry
	// evaluates; 0 means metrics.DefaultConstraint.
	Constraint time.Duration
	// ExecDelay adds fixed wall time to every execution, standing in for a
	// slower backend in overload experiments and tests. 0 disables it.
	ExecDelay time.Duration
	// Log, when non-nil, receives one tracefmt.ServeRecord JSON line per
	// completed request.
	Log io.Writer
	// TileCacheSize bounds the /v1/tiles LRU result cache (entries keyed
	// by dataset and tile). 0 means 1024; negative disables caching.
	TileCacheSize int

	// Deadlines enables deadline-aware execution with the degradation
	// ladder: each request's backend work runs under a context expiring
	// DegradeAfter past issue (queue wait included), and a blown budget
	// falls back exact → cached → the fixed sample's answer, extrapolated,
	// instead of running to completion. Disabled, requests run to completion
	// no matter the cost — the chaos baseline.
	Deadlines bool
	// DegradeAfter is the per-request budget before degrading; 0 means
	// Constraint/2 (half the latency constraint spent trying for exact, the
	// rest reserved for the fallback and the response path).
	DegradeAfter time.Duration
	// Fault, when non-nil, injects the configured fault schedule into every
	// backend execution — the chaos harness hook.
	Fault *fault.Injector
	// MaxRetries bounds retry attempts after injected backend errors; 0
	// means 2, negative disables retries.
	MaxRetries int
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit breaker (503 + Retry-After at admission); 0 means 8, negative
	// disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is the open period before a half-open probe; 0 means
	// 250ms.
	BreakerCooldown time.Duration
	// BrushCacheSize bounds the ranges-keyed cache of exact brush answers
	// (the ladder's middle tier, so it exists only with Deadlines on). 0
	// means 256; negative disables it.
	BrushCacheSize int

	// Planner enables the materialization planner: hot drag templates get
	// dedicated per-selection indexes built off the hot path, and a brush
	// is answered from its session template's index when that is built,
	// else from the prefix cube (the two are bit-identical). Requires a
	// cube with a backing table (Backends.Tiles) carrying every cube
	// dimension as a numeric column.
	//
	// Planner and Gatherer each pick who answers a brush; New accepts at
	// most one of them (the planner does not yet run inside shard
	// replicas).
	Planner bool
	// PlannerHotStreak is how many consecutive same-template brushes a
	// session issues before its template is materialized; 0 means
	// planner.DefaultHotStreak.
	PlannerHotStreak int

	// Gatherer, when non-nil, holds the partitions: every brush and every
	// histogram-shaped query scatter-gathers through it and merges by
	// addition — a *shard.Coordinator over in-process partitions (idevald
	// -shards) or a router.Fleet of shard child processes (idevald
	// -router). Requires GatherDims and no Cube backend. The server owns
	// it: Drain closes it.
	Gatherer Gatherer
	// GatherDims are the served cube dimensions when a Gatherer is
	// configured — the global domains every shard child bins against.
	GatherDims []datacube.Dim
}

const (
	// retryBase is the backoff base for retry attempt k after an injected
	// backend error (base·2^k, capped, full jitter).
	retryBase = 2 * time.Millisecond
	// partialRows is the size of the fixed sample behind the ladder's last
	// rung (the whole table when it has no more rows than this).
	partialRows = 32768
	// sampleSeed fixes which rows the sample holds, so two servers over one
	// table degrade to the same answer.
	sampleSeed = 1
)

// Gatherer is the scatter contract: fan one request out to every partition,
// collect their raw answers, and report coverage. *shard.Coordinator
// implements it in process — shard 0's leg on the calling serve worker, one
// goroutine per further shard — router.Fleet across child processes; the
// ladder, coalescing and metrics are the same over either.
type Gatherer interface {
	// ScatterBrush scatters one brush snapshot. The session token lets
	// process-level implementations route with per-session affinity; a ctx
	// with no deadline blocks for full coverage.
	ScatterBrush(ctx context.Context, session string, filters []*datacube.Range) (*shard.Gather, error)
	// QueryHistogram scatters a histogram-shaped SQL query: the covered
	// partitions' (bin, count) rows summed, raw, and the fraction of all
	// records they own. The bool is false for any other statement — it has
	// no merge law and needs an unsharded table.
	QueryHistogram(ctx context.Context, query string) (*engine.Result, float64, bool, error)
	// Close releases the gatherer's resources (child processes; the
	// in-process coordinator only refuses later scatters). Called once,
	// from Drain.
	Close()
}

// HealthReporter is optionally implemented by gatherers that supervise
// remote shard backends. Ready reports whether every shard can currently
// serve; detail is a JSON-marshalable per-shard breakdown (state,
// consecutive failures, last transition) that /readyz embeds so supervisors
// and tests can assert on why readiness flipped.
type HealthReporter interface {
	Health() (ready bool, detail any)
}

// RPCReporter is optionally implemented by gatherers whose scatter legs
// cross a process boundary. stats is a JSON-marshalable counters snapshot
// that /metrics embeds under "router"; rpc is the gatherer-measured
// per-call latency and childService the remote side's own share of it, both
// exported as Prometheus histograms — their difference is the hop.
type RPCReporter interface {
	RPCStats() (stats any, rpc, childService obsv.HistSnapshot)
}

// Backends are the data systems the server fronts. Engine serves /v1/query,
// Cube (over Tiles, its backing table) serves /v1/brush, and Tiles (a table
// with latitude/longitude columns named TileLat/TileLng) is what /v1/tiles
// counts, by SQL. Nil backends make the corresponding endpoint respond 501,
// unless a Gatherer answers it.
type Backends struct {
	Engine  *engine.Engine
	Cube    *datacube.Cube
	Tiles   *storage.Table
	TileLat string
	TileLng string
}

// Server is the HTTP serving layer. Create with New, expose with Handler,
// and stop with Drain.
type Server struct {
	cfg Config
	reg *Registry

	eng     *engine.Engine
	tiles   *storage.Table
	tileLat string
	tileLng string

	tileMu    sync.Mutex
	tileCache *opt.ResultLRU

	// The brush path: coord's scatter-gather, or plan when the planner is
	// on (coord still takes its statements); nil coord means no brush
	// backend. Unsharded, coord gathers from one replica that is the served
	// table.
	cubeDims []datacube.Dim
	coord    Gatherer
	plan     *planner.Planner

	// Degradation ladder state: fault injector and circuit breaker guarding
	// backend executions, resolved retry/deadline knobs, and the fallback
	// rungs, which exist only with Deadlines on — the ranges-keyed cache of
	// exact brush answers (brushCache, nil when off) and sample, one more
	// partition: a replica over a fixed uniform sample of the served table
	// holding sampleFrac of its records (nil when the served dimensions have
	// no backing table).
	fault        *fault.Injector
	brk          *breaker
	degradeAfter time.Duration
	maxRetries   int
	sample       *shard.Replica
	sampleFrac   float64
	brushMu      sync.Mutex
	brushCache   *opt.ResultLRU
	// shardTables are the partitions of a handed-in *shard.Coordinator,
	// which SQL scans in the served table's place; the /metrics store
	// section adds their zone, sketch and run counters to the table's.
	shardTables []*storage.Table

	mux      *http.ServeMux
	queue    chan func()
	wg       sync.WaitGroup
	inflight atomic.Int64
	nextID   atomic.Int64
	start    time.Time

	drainMu  sync.RWMutex
	draining bool

	sessMu   sync.Mutex
	sessions map[string]*sessionState

	logMu sync.Mutex
}

// sessionState is the per-session serving state: the coalescing slot, the
// latest filter snapshot, the applied high-water mark, and the in-flight
// requests not yet counted as LCV violations.
type sessionState struct {
	mu sync.Mutex

	// Brush coalescing: slot holds the waiters of the next execution;
	// running marks an execution (or run-to-idle loop) in progress. latest
	// is the highest-seq brush snapshot seen — executions always apply it,
	// so applied sequence numbers are monotonic per session.
	slot    *brushTask
	running bool
	latest  BrushRequest
	lastSeq int64
	applied int64

	// uncounted holds the in-flight requests (by id, with their stage
	// traces) that have not yet been counted as latency-constraint
	// violations; they are counted (and cleared) the moment the session
	// issues its next request — Figure 2's definition, evaluated online.
	// Counting also marks the trace, so the violation is attributed to the
	// violating request's dominant stage when it finishes.
	uncounted map[int64]*obsv.Trace
}

type brushTask struct {
	waiters []*brushWaiter
}

type brushWaiter struct {
	rq *request
	ch chan brushOutcome
}

type brushOutcome struct {
	resp *BrushResponse
	err  error
}

// New builds the server and starts its worker pool.
func New(b Backends, cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	tileCacheSize := cfg.TileCacheSize
	if tileCacheSize == 0 {
		tileCacheSize = 1024
	}
	s := &Server{
		cfg:       cfg,
		reg:       NewRegistry(cfg.Constraint),
		eng:       b.Engine,
		tiles:     b.Tiles,
		tileLat:   b.TileLat,
		tileLng:   b.TileLng,
		queue:     make(chan func(), cfg.QueueDepth),
		sessions:  make(map[string]*sessionState),
		tileCache: opt.NewResultLRU(tileCacheSize),
		start:     time.Now(),
		fault:     cfg.Fault,
	}
	s.degradeAfter = cfg.DegradeAfter
	if s.degradeAfter <= 0 {
		s.degradeAfter = s.reg.Constraint() / 2
	}
	s.maxRetries = cfg.MaxRetries
	if s.maxRetries == 0 {
		s.maxRetries = 2
	}
	breakerThreshold := cfg.BreakerThreshold
	if breakerThreshold == 0 {
		breakerThreshold = 8
	}
	breakerCooldown := cfg.BreakerCooldown
	if breakerCooldown <= 0 {
		breakerCooldown = 250 * time.Millisecond
	}
	s.brk = newBreaker(breakerThreshold, breakerCooldown)
	brushCacheSize := cfg.BrushCacheSize
	if brushCacheSize == 0 {
		brushCacheSize = 256
	}
	// Only the ladder's fallback reads the cache, and only with Deadlines
	// on; otherwise nothing is written to it either.
	if cfg.Deadlines && brushCacheSize > 0 {
		s.brushCache = opt.NewResultLRU(brushCacheSize)
	}
	if b.Tiles != nil {
		lat, lng := b.Tiles.Column(b.TileLat), b.Tiles.Column(b.TileLng)
		if lat == nil || lng == nil {
			return nil, fmt.Errorf("serve: tile table %q lacks columns %q/%q", b.Tiles.Name, b.TileLat, b.TileLng)
		}
		// The tile path range-filters the coordinates, which string
		// columns cannot answer — reject the misconfiguration at build
		// time instead of on the first tile request.
		if lat.Type == storage.String || lng.Type == storage.String {
			return nil, fmt.Errorf("serve: tile columns %q/%q of table %q must be numeric", b.TileLat, b.TileLng, b.Tiles.Name)
		}
	}
	if b.Cube != nil {
		s.cubeDims = b.Cube.Dims()
	}
	// One brush answerer, picked here once. Planner and Gatherer each claim
	// the pick, so each arm requires the other absent.
	switch {
	case cfg.Gatherer != nil && !cfg.Planner && b.Cube == nil:
		if len(cfg.GatherDims) == 0 {
			return nil, fmt.Errorf("serve: a gatherer needs GatherDims (the global cube dimensions)")
		}
		s.cubeDims = append([]datacube.Dim(nil), cfg.GatherDims...)
		s.coord = cfg.Gatherer
		if coord, ok := cfg.Gatherer.(*shard.Coordinator); ok {
			for i := 0; i < coord.NumShards(); i++ {
				s.shardTables = append(s.shardTables, coord.Replica(i).Table)
			}
		}
	case cfg.Gatherer != nil:
		return nil, fmt.Errorf("serve: Planner and a Gatherer (in place of a Cube) each pick the brush answerer; configure at most one")
	case b.Cube == nil:
		if cfg.Planner {
			return nil, fmt.Errorf("serve: the planner needs a cube with a backing table")
		}
		// no brush backend: /v1/brush answers 501
	case b.Tiles == nil:
		return nil, fmt.Errorf("serve: a cube needs its backing table (Backends.Tiles)")
	default:
		// S = 1 is a partition: one replica that is the served table in
		// table order (non-histogram SQL sees row order) behind the served
		// engine, its prefix integrated from the dense cube — not NewReplica,
		// whose cell-run pass finds too many runs in table order to keep.
		rep := &shard.Replica{Table: b.Tiles, Engine: b.Engine, Prefix: datacube.NewPrefix(b.Cube)}
		s.coord = shard.Start([]*shard.Replica{rep}, s.cubeDims, shard.Options{})
		if cfg.Planner {
			pl, err := planner.New(b.Tiles, b.Cube, s.cubeDims, planner.Config{
				HotStreak: cfg.PlannerHotStreak,
				Prefix:    rep.Prefix,
			})
			if err != nil {
				s.coord.Close()
				return nil, fmt.Errorf("serve: planner: %w", err)
			}
			s.plan = pl
		}
	}
	// The sample rung bins the served dimensions' backing table; it needs
	// every one of them as a numeric column.
	if cfg.Deadlines && b.Tiles != nil && len(s.cubeDims) > 0 {
		usable := true
		for _, d := range s.cubeDims {
			if col := b.Tiles.Column(d.Name); col == nil || col.Type == storage.String {
				usable = false
				break
			}
		}
		if usable {
			// An engine of the served one's profile, if there is one.
			repOpts := shard.Options{WithEngine: b.Engine != nil}
			if b.Engine != nil {
				repOpts.Profile = b.Engine.Profile()
			}
			var err error
			if s.sample, err = sampleReplica(b.Tiles, s.cubeDims, repOpts); err != nil {
				return nil, fmt.Errorf("serve: sample rung: %w", err)
			}
			s.sampleFrac = 1 // of an empty table, as Gather.Fraction has it
			if n := b.Tiles.NumRows(); n > 0 {
				s.sampleFrac = float64(s.sample.Table.NumRows()) / float64(n)
			}
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/query", s.handleQuery)
	s.mux.HandleFunc("/v1/brush", s.handleBrush)
	s.mux.HandleFunc("/v1/tiles", s.handleTiles)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/trace", s.handleTrace)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for task := range s.queue {
				s.inflight.Add(1)
				task()
				s.inflight.Add(-1)
			}
		}()
	}
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the online metrics registry.
func (s *Server) Registry() *Registry { return s.reg }

// storeStats is the /metrics store section: the columns of the served
// table that scans reach through colstore — every column of a frozen
// table, the viewed ones of an unfrozen table — with their zone maps and
// counters, sketches and cell-run counters summed with those of the shard
// partitions (which build their own sketches, on their own first range
// filter, and carry the cell-run directories). Nil until there is such a
// column, i.e. before an unfrozen table's first scan. Encodings and views
// answer in O(1), so a scrape costs O(columns).
func (s *Server) storeStats() *colstore.TableStats {
	if s.tiles == nil {
		return nil
	}
	st := colstore.StatsOf(s.tiles)
	for _, t := range s.shardTables {
		ps := colstore.StatsOf(t)
		st.ZoneBytes += ps.ZoneBytes
		st.SketchBytes += ps.SketchBytes
		st.RunBytes += ps.RunBytes
		st.RunsDecided += ps.RunsDecided
		st.GridStatements += ps.GridStatements
		for _, sc := range ps.Columns {
			i := slices.IndexFunc(st.Columns, func(c colstore.ColumnStats) bool { return c.Name == sc.Name })
			if i < 0 {
				// Only the partitions have scanned this column so far.
				i = len(st.Columns)
				st.Columns = append(st.Columns, colstore.ColumnStats{
					Name: sc.Name, Encoding: sc.Encoding, Ratio: sc.Ratio,
				})
			}
			c := &st.Columns[i]
			c.ZoneBytes += sc.ZoneBytes
			c.ZoneWordsSkipped += sc.ZoneWordsSkipped
			c.ZoneWordsFilled += sc.ZoneWordsFilled
			c.ZoneWordsEvaluated += sc.ZoneWordsEvaluated
			c.SketchBytes += sc.SketchBytes
			c.SketchRowsDecided += sc.SketchRowsDecided
			c.SketchRowsRefined += sc.SketchRowsRefined
			c.RunBytes += sc.RunBytes
			c.RunsSkipped += sc.RunsSkipped
			c.RunsSummed += sc.RunsSummed
			c.RunsScanned += sc.RunsScanned
		}
	}
	if len(st.Columns) == 0 {
		return nil
	}
	return &st
}

// Stats snapshots the online metrics.
func (s *Server) Stats() Stats {
	st := s.reg.snapshot(len(s.queue), int(s.inflight.Load()))
	st.BreakerTrips, _ = s.brk.stats()
	st.Store = s.storeStats()
	if s.plan != nil {
		st.Planner = s.plan.Stats()
	}
	if rr, ok := s.coord.(RPCReporter); ok {
		st.Router, _, _ = rr.RPCStats()
	}
	return st
}

// Planner returns the materialization planner, or nil when Config.Planner
// is off — the determinism hook for tests and benchmarks (WaitBuilds).
func (s *Server) Planner() *planner.Planner { return s.plan }

// Drain stops admission (new requests get 503), lets queued and in-flight
// work finish, and waits for the worker pool to exit or ctx to expire.
// It is the SIGTERM path of cmd/idevald and is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	if s.draining {
		s.drainMu.Unlock()
	} else {
		s.draining = true
		close(s.queue)
		s.drainMu.Unlock()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		// The worker pool is gone, so no scatter can be in flight: the
		// gatherer can be closed, and the planner's background builds can
		// be waited out (no brush will ever trigger a new one).
		if s.coord != nil {
			s.coord.Close()
		}
		if s.plan != nil {
			s.plan.Close()
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

// isDraining reports whether admission has stopped.
func (s *Server) isDraining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

// admit tries to enqueue a task, holding the drain lock so the queue
// cannot close mid-send. The error is ErrDraining or ErrQueueFull.
var (
	errDraining  = fmt.Errorf("serve: draining")
	errQueueFull = fmt.Errorf("serve: queue full")
)

func (s *Server) admit(task func()) error {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return errDraining
	}
	select {
	case s.queue <- task:
		return nil
	default:
		return errQueueFull
	}
}

// session returns the named session's state, creating it on first use.
func (s *Server) session(name string) *sessionState {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	sess := s.sessions[name]
	if sess == nil {
		sess = &sessionState{lastSeq: -1, applied: -1, uncounted: make(map[int64]*obsv.Trace)}
		s.sessions[name] = sess
	}
	return sess
}

// --- /v1/query --------------------------------------------------------------

// QueryRequest is a SQL query against the engine backend.
type QueryRequest struct {
	Session string `json:"session"`
	Seq     int64  `json:"seq"`
	SQL     string `json:"sql"`
}

// QueryResponse carries the materialized result. Degraded marks an
// estimate: the query lost shards or its whole budget and was answered from
// what was covered, or a bounded sample (SampleFraction of the records,
// counts scaled up) — only histogram-shaped queries degrade this way.
type QueryResponse struct {
	Seq            int64    `json:"seq"`
	Columns        []string `json:"columns"`
	Rows           [][]any  `json:"rows"`
	ModelMS        float64  `json:"model_ms"`
	Degraded       bool     `json:"degraded,omitempty"`
	SampleFraction float64  `json:"sample_fraction,omitempty"`
}

// errNoMergeLaw is the 501 of a server whose only tables are partitions.
var errNoMergeLaw = errors.New("serve: not a histogram-shaped statement: its per-shard answers have no merge law, and this server holds no unsharded table to run it on")

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.eng == nil && s.coord == nil {
		httpError(w, http.StatusNotImplemented, "no engine backend")
		return
	}
	var req QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Session == "" || req.SQL == "" {
		httpError(w, http.StatusBadRequest, "want JSON {session, seq, sql}")
		return
	}
	rq := s.begin(w, req.Session, req.Seq, "query")
	if rq == nil {
		return
	}
	res, tier, frac, ok := s.runSQL(rq, req.SQL)
	if !ok {
		return
	}
	resp := QueryResponse{
		Seq:     req.Seq,
		Columns: res.Columns,
		Rows:    rowsJSON(res.Rows),
		ModelMS: float64(res.Stats.ModelCost) / float64(time.Millisecond),
	}
	if tier == "partial" { // an estimate from the fraction a sample or a short merge covered
		resp.Degraded, resp.SampleFraction = true, frac
	}
	rq.reply(resp, req.Seq, false)
}

// runSQL runs one statement — a /v1/query's, or a /v1/tiles miss's box
// count — down the query rungs on a pool worker: a histogram shape scatters
// to the partitions, anything else runs on the served table, and under a
// backend fault the sample answers. ok false: the request was refused or
// failed, and is answered.
func (s *Server) runSQL(rq *request, query string) (res *engine.Result, tier string, frac float64, ok bool) {
	shaped := false // the statement went to the gatherer's partitions
	admitted, tier, frac, err := rq.run(rungs{
		exact: func(ctx context.Context) (frac float64, err error) {
			if s.coord != nil {
				// Histogram shapes scatter across the partitions' engines and
				// merge by addition; any other runs unsharded, below, and its
				// time is the execute stage's again.
				rq.tr.Enter(obsv.StageScatter)
				if res, frac, shaped, err = s.coord.QueryHistogram(ctx, query); shaped || err != nil {
					return frac, err
				}
				rq.tr.Enter(obsv.StageExecute)
			}
			if s.eng == nil {
				return 0, errNoMergeLaw
			}
			res, err = s.eng.QueryCtx(ctx, query)
			return 1, err
		},
		scale: func(frac float64) {
			for _, row := range res.Rows {
				row[1].I = extrapolate(row[1].I, frac)
			}
		},
		// Only a backend fault on a histogram shape is answered from the
		// sample; no other shape merges, and a SQL error is the client's.
		sample: func(ctx context.Context, rep *shard.Replica, err error) bool {
			if !isBackendFault(err) {
				return false
			}
			stmt, shaped, _ := rep.Shaped(query)
			if !shaped {
				return false
			}
			a, err := rep.Histogram(ctx, stmt)
			if err != nil {
				return false
			}
			res = shard.NewGather([]*shard.Answer{a}, nil, a.Records).MergeHistogram()
			return true
		},
	})
	if !admitted {
		return nil, "", 0, false
	}
	if err != nil {
		status := http.StatusBadRequest // a SQL error: the backend is healthy, the query is not
		if errors.Is(err, errNoMergeLaw) {
			status = http.StatusNotImplemented
		} else if shaped {
			status = http.StatusInternalServerError // a gather that covered nothing
		}
		rq.fail(err, status)
		return nil, "", 0, false
	}
	if tier == "partial" {
		rq.tr.SetTier(tier)
	}
	return res, tier, frac, true
}

// isBackendFault distinguishes faults of the backend (injected errors,
// blown deadlines — retry or degrade) from faults of the request (parse and
// execution errors — the client's problem).
func isBackendFault(err error) bool {
	return errors.Is(err, fault.ErrInjected) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}

func rowsJSON(rows [][]storage.Value) [][]any {
	out := make([][]any, len(rows))
	for i, row := range rows {
		vals := make([]any, len(row))
		for j, v := range row {
			vals[j] = valueJSON(v)
		}
		out[i] = vals
	}
	return out
}

func valueJSON(v storage.Value) any {
	switch v.Type {
	case storage.String:
		return v.S
	case storage.Int64:
		return v.I
	default:
		return v.F
	}
}

// --- /v1/brush --------------------------------------------------------------

// BrushRequest is one crossfilter brush update: the full filter state
// snapshot at issue time (nil entries mean unfiltered), and the index of
// the dimension that moved. Carrying the whole state is what makes
// coalescing safe: the latest snapshot subsumes every superseded one.
type BrushRequest struct {
	Session string        `json:"session"`
	Seq     int64         `json:"seq"`
	Ranges  []*[2]float64 `json:"ranges"`
	Moved   int           `json:"moved"`
}

// BrushResponse is the coordinated-view result: every dimension's
// histogram under the applied filter state, and the passing-record total.
// AppliedSeq is the sequence number of the snapshot that executed; it is
// at least the request's own Seq, and strictly greater when the request
// was coalesced into a newer one.
//
// Tier reports which rung of the degradation ladder answered: "exact" (or
// "" when deadlines are off), "cache" (a previous exact answer for the same
// ranges — exact data, so not degraded), or "partial" (a scaled sample
// estimate; Degraded is true and SampleFraction reports the fraction of
// records it saw). Degraded responses still carry the applied seq, so
// clients stay sequence-consistent across tiers.
type BrushResponse struct {
	AppliedSeq     int64     `json:"applied_seq"`
	Coalesced      bool      `json:"coalesced"`
	Total          int64     `json:"total"`
	Histograms     [][]int64 `json:"histograms"`
	Tier           string    `json:"tier,omitempty"`
	Degraded       bool      `json:"degraded,omitempty"`
	SampleFraction float64   `json:"sample_fraction,omitempty"`
}

func (s *Server) handleBrush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.coord == nil {
		httpError(w, http.StatusNotImplemented, "no cube backend")
		return
	}
	var req BrushRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Session == "" {
		httpError(w, http.StatusBadRequest, "want JSON {session, seq, ranges, moved}")
		return
	}
	if len(req.Ranges) != len(s.cubeDims) {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("want %d ranges, got %d", len(s.cubeDims), len(req.Ranges)))
		return
	}
	// Note: no isDraining pre-check here. During Drain a brush may still
	// ride an existing slot or in-progress execution — the run-to-idle loop
	// flushes pending coalesced brushes before the worker pool exits. Only
	// a brush needing a fresh admission is refused (admit returns
	// errDraining below).
	rq := s.begin(w, req.Session, req.Seq, "brush")
	if rq == nil {
		return
	}
	sess := rq.sess
	waiter := &brushWaiter{rq: rq, ch: make(chan brushOutcome, 1)}

	sess.mu.Lock()
	if req.Seq > sess.lastSeq {
		sess.lastSeq = req.Seq
		sess.latest = req
	}
	// Stage transitions happen under sess.mu, which is also what hands the
	// waiter (and its trace) to the run-to-idle loop: a rider parks in the
	// coalesce stage; only the waiter that admits a fresh execution waits
	// in the queue stage. runBrushes stamps both into the execute stage
	// when their pass starts.
	var admitErr error
	switch {
	case sess.slot != nil:
		// A pending execution exists: this request rides along with it and
		// one backend execution is saved.
		rq.tr.Enter(obsv.StageCoalesce)
		sess.slot.waiters = append(sess.slot.waiters, waiter)
		s.reg.recordCoalesced()
	case sess.running:
		// An execution is in progress; park in a fresh slot that the
		// run-to-idle loop will pick up without re-entering admission.
		rq.tr.Enter(obsv.StageCoalesce)
		sess.slot = &brushTask{waiters: []*brushWaiter{waiter}}
	default:
		rq.tr.Enter(obsv.StageQueue)
		sess.slot = &brushTask{waiters: []*brushWaiter{waiter}}
		admitErr = s.admit(func() { s.runBrushes(sess) })
		if admitErr != nil {
			sess.slot = nil
		}
	}
	sess.mu.Unlock()
	if admitErr != nil {
		rq.refuse(admitErr)
		return
	}

	// The execution gave the breaker its own verdict in the ladder; a cube
	// error that is no backend fault is the server's, not the request's.
	out := <-waiter.ch
	if out.err != nil {
		rq.fail(out.err, http.StatusInternalServerError)
		return
	}
	resp := *out.resp
	resp.Coalesced = resp.AppliedSeq > req.Seq
	rq.reply(resp, resp.AppliedSeq, resp.Coalesced)
}

// runBrushes executes the session's pending brushes to idle: each pass
// snapshots the latest filter state and answers every waiter that
// accumulated since the previous pass with that one result. Per-session
// execution is serialized here, which is what makes applied sequence
// numbers monotonic. During Drain the loop keeps running until the slot is
// empty — pending coalesced brushes are flushed, not dropped.
func (s *Server) runBrushes(sess *sessionState) {
	for {
		sess.mu.Lock()
		bt := sess.slot
		if bt == nil {
			sess.running = false
			sess.mu.Unlock()
			return
		}
		sess.slot = nil
		sess.running = true
		payload := sess.latest
		// The deadline budget runs from the moment the oldest rider issued:
		// queue wait counts against it, so a request that already blew its
		// budget waiting skips straight to the fallback tiers.
		earliest := bt.waiters[0].rq.start
		for _, wt := range bt.waiters[1:] {
			if wt.rq.start.Before(earliest) {
				earliest = wt.rq.start
			}
		}
		sess.mu.Unlock()

		// Every rider's queue/coalesce wait ends here; the one execution's
		// span lands on each of their traces. Their handler goroutines are
		// parked on wt.ch until the send below, so the traces are ours to
		// stamp (sess.mu above ordered their handlers' writes before us).
		for _, wt := range bt.waiters {
			wt.rq.tr.Enter(obsv.StageExecute)
		}
		// stamp lets the ladder mark later stage transitions (the sharded
		// scatter) on every rider's trace.
		stamp := func(st obsv.Stage) {
			for _, wt := range bt.waiters {
				wt.rq.tr.Enter(st)
			}
		}

		resp, err := s.execBrushLadder(payload, earliest, stamp)

		sess.mu.Lock()
		if payload.Seq < sess.applied {
			s.reg.recordRegression()
		} else {
			sess.applied = payload.Seq
		}
		sess.mu.Unlock()

		for _, wt := range bt.waiters {
			wt.rq.tr.Enter(obsv.StageMerge)
			if resp != nil {
				wt.rq.tr.SetTier(resp.Tier)
			}
			wt.ch <- brushOutcome{resp: resp, err: err}
		}
	}
}

// faultGate passes one backend operation through the fault injector,
// retrying injected errors with capped jittered exponential backoff while
// the budget lasts. nil means proceed with the real work; fault.ErrInjected
// means retries were exhausted; a context error means the deadline expired
// mid-delay (an injected stall serves only as much of itself as the budget
// allows). Without an injector it is just the budget check.
func (s *Server) faultGate(ctx context.Context) error {
	if s.fault == nil {
		return ctx.Err()
	}
	const maxBackoff = 100 * time.Millisecond
	var err error
	for attempt := 0; ; attempt++ {
		err = s.fault.Do(ctx)
		if err == nil || !errors.Is(err, fault.ErrInjected) {
			return err
		}
		if attempt >= s.maxRetries {
			return err
		}
		backoff := retryBase << uint(attempt)
		if backoff > maxBackoff {
			backoff = maxBackoff
		}
		// Full jitter: [backoff, 2·backoff) decorrelates retry herds.
		backoff += time.Duration(rand.Int63n(int64(backoff)))
		s.reg.recordRetry()
		if serr := fault.Sleep(ctx, backoff); serr != nil {
			return serr
		}
	}
}

// answer answers one brush snapshot exactly over the partitions that answer
// under ctx: their merged histograms and total, raw and unscaled, and the
// fraction of all records they own. The planner answers on the calling
// goroutine — its session template's index if built, else the S = 1
// replica's prefix cube, bit-identical either way — and covers everything.
// Every other server scatters through coord (in-process partition legs, one
// replica answered inline at S = 1, or the process router's children) and merges by
// addition; a shard that misses ctx's deadline or fails lowers the covered
// fraction. stamp marks stage transitions on every rider's trace. An error
// means no partition answered.
func (s *Server) answer(ctx context.Context, req BrushRequest, stamp func(obsv.Stage)) (*BrushResponse, float64, error) {
	filters := brushFilters(req.Ranges)
	if s.plan != nil {
		resp := &BrushResponse{AppliedSeq: req.Seq, Histograms: datacube.NewHistograms(s.cubeDims)}
		var err error
		if resp.Total, _, err = s.plan.Answer(req.Session, req.Moved, filters, resp.Histograms); err != nil {
			return nil, 0, err
		}
		return resp, 1, nil
	}
	stamp(obsv.StageScatter)
	g, err := s.coord.ScatterBrush(ctx, req.Session, filters)
	if err == nil && g.Covered() == 0 {
		err = cmp.Or(g.FirstErr(), errors.New("serve: shard gather covered no shards"))
	}
	if err != nil {
		return nil, 0, err
	}
	b := g.MergeBrush(s.cubeDims)
	return &BrushResponse{AppliedSeq: req.Seq, Histograms: b.Histograms, Total: b.Total}, b.Fraction(), nil
}

// rungs are one endpoint's steps down the degradation ladder, building its
// answer in variables their closures share. exact answers, raw, over the
// partitions that answer under ctx and returns the record fraction they own
// (an error: none answered); cached swaps in a stored exact answer; sample,
// once err lost every partition, answers the same way from rep — the sample
// partition — and reports whether it did; scale extrapolates either raw
// answer from frac of the records to all. Only exact is required.
type rungs struct {
	exact  func(ctx context.Context) (frac float64, err error)
	cached func() bool
	sample func(ctx context.Context, rep *shard.Replica, err error) bool
	scale  func(frac float64)
}

// ladder is one backend execution — brush, query or tile — and names the
// rung that answered. Behind the fault gate, full coverage is exact, "";
// anything less falls to "cache", failing that to "partial": an exact answer
// over a subset of the records — the partitions that answered, or with none
// the fixed sample (bounded work, so it may outrun the budget) — scaled by
// 1/fraction and counted degraded with that fraction. An error means no rung
// answered. Deadlines on, the budget expires degradeAfter past issued, so
// queue wait counts against it; off (the chaos baseline) it never does and
// injected stalls are served in full, but losing a partition to an error
// still degrades.
func (s *Server) ladder(issued time.Time, r rungs) (tier string, frac float64, err error) {
	ctx := context.Background()
	if s.cfg.Deadlines {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, issued.Add(s.degradeAfter))
		defer cancel()
	}
	defer func() {
		time.Sleep(s.cfg.ExecDelay) // returns at once for the zero default
		s.reg.recordExec()
	}()
	if err = s.faultGate(ctx); err == nil {
		frac, err = r.exact(ctx)
	}
	if err == nil && frac == 1 {
		return "", 1, nil
	}
	if ctx.Err() != nil {
		s.reg.recordDeadline()
	}
	if r.cached != nil && r.cached() {
		return "cache", 1, nil
	}
	if err != nil {
		frac = 0
		if r.sample != nil && s.sample != nil && r.sample(context.WithoutCancel(ctx), s.sample, err) {
			frac = s.sampleFrac
		}
	}
	if frac == 0 {
		return "", 0, err
	}
	r.scale(frac)
	s.reg.recordDegraded()
	return "partial", frac, nil
}

// extrapolate estimates a count over all records from one seen over frac of
// them, rounding half up — the one place a count is scaled, whether frac is
// the partitions that answered or the sample.
func extrapolate(v int64, frac float64) int64 {
	return int64(float64(v)*(1/frac) + 0.5)
}

// execBrushLadder answers one brush snapshot through the ladder (its cache
// and sample rungs exist only with Deadlines on), the budget running from
// the oldest rider's issue; the breaker hears healthy whenever a rung served.
func (s *Server) execBrushLadder(req BrushRequest, earliest time.Time, stamp func(obsv.Stage)) (*BrushResponse, error) {
	var resp *BrushResponse
	tier, frac, err := s.ladder(earliest, rungs{
		exact: func(ctx context.Context) (frac float64, err error) {
			resp, frac, err = s.answer(ctx, req, stamp)
			return frac, err
		},
		cached: func() bool {
			c := s.lookupBrush(req)
			if c != nil {
				resp = c
			}
			return c != nil
		},
		scale: func(frac float64) {
			for _, h := range resp.Histograms {
				for i, v := range h {
					h[i] = extrapolate(v, frac)
				}
			}
			resp.Total = extrapolate(resp.Total, frac)
		},
		sample: func(_ context.Context, rep *shard.Replica, _ error) bool {
			resp = &BrushResponse{AppliedSeq: req.Seq, Histograms: datacube.NewHistograms(s.cubeDims)}
			var err error
			resp.Total, err = rep.Brush(brushFilters(req.Ranges), resp.Histograms)
			return err == nil
		},
	})
	if err != nil {
		s.brk.failure(time.Now())
		return nil, err
	}
	s.brk.success()
	resp.Tier = tier
	switch tier {
	case "":
		if s.cfg.Deadlines {
			resp.Tier = "exact"
		}
		s.cacheBrush(req, resp) // read-only from here on
	case "partial":
		resp.Degraded, resp.SampleFraction = true, frac
	}
	return resp, nil
}

// brushKey is the ranges-keyed cache key: the filter state fully determines
// an exact brush answer (data is immutable), so any session may reuse it.
func brushKey(req BrushRequest) string {
	key := make([]byte, 0, 16*len(req.Ranges))
	for _, rg := range req.Ranges {
		if rg == nil {
			key = append(key, '*', '|')
			continue
		}
		key = strconv.AppendFloat(key, rg[0], 'g', -1, 64)
		key = append(key, ',')
		key = strconv.AppendFloat(key, rg[1], 'g', -1, 64)
		key = append(key, '|')
	}
	return string(key)
}

// cacheBrush stores an exact answer under its ranges key, when a rung can
// ever read it back. The cached value is read-only from then on; lookupBrush
// copies the struct for the ladder to override per-request fields.
func (s *Server) cacheBrush(req BrushRequest, resp *BrushResponse) {
	if s.brushCache == nil {
		return
	}
	s.brushMu.Lock()
	s.brushCache.Put(brushKey(req), resp)
	s.brushMu.Unlock()
}

// lookupBrush returns the request's own copy of the cached exact answer for
// its ranges, or nil, counting the outcome either way. The data is
// immutable, so an earlier answer is not degraded, and beats any estimate.
func (s *Server) lookupBrush(req BrushRequest) *BrushResponse {
	if s.brushCache == nil {
		return nil
	}
	s.brushMu.Lock()
	v, ok := s.brushCache.Get(brushKey(req))
	s.brushMu.Unlock()
	if !ok {
		s.reg.recordBrushCacheMiss()
		return nil
	}
	s.reg.recordBrushCacheHit()
	c := *v.(*BrushResponse)
	c.AppliedSeq = req.Seq
	return &c
}

// sampleReplica builds the ladder's last partition: min(partialRows, n) rows
// of t drawn uniformly without replacement under a fixed seed, gathered in
// ascending table order by storage.Table.Take (so zones and sketches still
// skip), behind the replica every partition gets. It costs the same ≈1 MB
// whatever n is.
func sampleReplica(t *storage.Table, dims []datacube.Dim, opts shard.Options) (*shard.Replica, error) {
	sample := t.Take(sampleRows(t.NumRows(), min(partialRows, t.NumRows())))
	return shard.NewReplica(0, sample, dims, nil, opts)
}

// sampleRows draws k of the row indexes [0, n) uniformly without replacement,
// ascending, in one pass and no memory beyond the k picks (selection
// sampling: row i is taken with probability still-needed / still-left).
func sampleRows(n, k int) []int {
	rng := rand.New(rand.NewSource(sampleSeed))
	rows := make([]int, 0, k)
	for i := 0; len(rows) < k; i++ {
		if rng.Intn(n-i) < k-len(rows) {
			rows = append(rows, i)
		}
	}
	return rows
}

// brushFilters converts a request's wire-format ranges to datacube filters
// (nil entries stay unfiltered).
func brushFilters(ranges []*[2]float64) []*datacube.Range {
	filters := make([]*datacube.Range, len(ranges))
	buf := make([]datacube.Range, len(ranges))
	for i, rg := range ranges {
		if rg != nil {
			buf[i] = datacube.Range{Lo: rg[0], Hi: rg[1]}
			filters[i] = &buf[i]
		}
	}
	return filters
}

// --- /v1/tiles --------------------------------------------------------------

// TileResponse is one map-tile fetch: the record count inside the tile's
// geographic bounds — the aggregate a tile renderer needs. Degraded and
// SampleFraction mean what they do on QueryResponse.
type TileResponse struct {
	Seq            int64   `json:"seq"`
	Key            string  `json:"key"`
	Count          int64   `json:"count"`
	Degraded       bool    `json:"degraded,omitempty"`
	SampleFraction float64 `json:"sample_fraction,omitempty"`
}

// tileBounds returns the web-mercator lat/lng bounds of tile z/x/y.
func tileBounds(t widget.Tile) (latLo, latHi, lngLo, lngHi float64) {
	n := math.Exp2(float64(t.Z))
	lngLo = float64(t.X)/n*360 - 180
	lngHi = float64(t.X+1)/n*360 - 180
	latHi = 180 / math.Pi * math.Atan(math.Sinh(math.Pi*(1-2*float64(t.Y)/n)))
	latLo = 180 / math.Pi * math.Atan(math.Sinh(math.Pi*(1-2*float64(t.Y+1)/n)))
	return latLo, latHi, lngLo, lngHi
}

func (s *Server) handleTiles(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	if s.tiles == nil || (s.eng == nil && s.coord == nil) {
		httpError(w, http.StatusNotImplemented, "no tile backend")
		return
	}
	q := r.URL.Query()
	session := q.Get("session")
	if session == "" {
		httpError(w, http.StatusBadRequest, "session required")
		return
	}
	var seq int64
	var err error
	if v := q.Get("seq"); v != "" { // absent means 0
		if seq, err = strconv.ParseInt(v, 10, 64); err != nil {
			httpError(w, http.StatusBadRequest, "seq must be an integer")
			return
		}
	}
	key := q.Get("key")
	if key == "" {
		key = q.Get("z") + "/" + q.Get("x") + "/" + q.Get("y")
	}
	tile, err := widget.ParseTile(key)
	if err != nil {
		httpError(w, http.StatusBadRequest, "want key=z/x/y or z=&x=&y= naming an existing tile: "+err.Error())
		return
	}
	rq := s.begin(w, session, seq, "tile")
	if rq == nil {
		return
	}

	// Tile counts are immutable per (dataset, tile), so a cache hit skips
	// the admission queue and the scan entirely.
	cacheKey := s.tiles.Name + "|" + tile.String()
	s.tileMu.Lock()
	cached, hit := s.tileCache.Get(cacheKey)
	s.tileMu.Unlock()
	if hit {
		s.reg.recordTileHit()
		rq.tr.SetTier("cache")
		rq.reply(TileResponse{Seq: seq, Key: tile.String(), Count: cached.(int64)}, seq, false)
		return
	}
	s.reg.recordTileMiss()

	// A miss is a one-bin histogram statement down the query ladder; only
	// an exact count is cached.
	latLo, latHi, lngLo, lngHi := tileBounds(tile)
	res, tier, frac, ok := s.runSQL(rq, boxQuery(s.tiles.Name, s.tileLat, s.tileLng, latLo, latHi, lngLo, lngHi))
	if !ok {
		return
	}
	resp := TileResponse{Seq: seq, Key: tile.String()}
	for _, row := range res.Rows {
		resp.Count += row[1].I
	}
	if tier == "partial" {
		resp.Degraded, resp.SampleFraction = true, frac
	} else {
		s.tileMu.Lock()
		s.tileCache.Put(cacheKey, resp.Count)
		s.tileMu.Unlock()
	}
	rq.reply(resp, seq, false)
}

// boxQuery is the statement counting table's rows inside the half-open box
// [latLo, latHi) × [lngLo, lngHi): a histogram whose every kept row bins to
// ROUND(lat * 0) = 0, so its one row (none for an empty box) holds the
// count, and whose shape partitions answer and merge by addition. %g prints
// the shortest form that parses back to the same float.
func boxQuery(table, lat, lng string, latLo, latHi, lngLo, lngHi float64) string {
	bin := "ROUND(" + lat + " * 0)"
	return fmt.Sprintf("SELECT %s, COUNT(*) FROM %s WHERE %s >= %g AND %s < %g AND %s >= %g AND %s < %g GROUP BY %s",
		bin, table, lat, latLo, lat, latHi, lng, lngLo, lng, lngHi, bin)
}

// --- /metrics, /healthz, /readyz --------------------------------------------

// handleMetrics answers JSON by default (the repo's own tooling decodes
// Stats) and Prometheus text exposition when asked — ?format=prometheus,
// or an Accept header naming text/plain or OpenMetrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsProm(r) {
		s.writeProm(w)
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleHealthz is pure liveness: the process is up and serving HTTP, so it
// always answers 200. A draining server is still alive — it reports the
// state and its remaining queue depth so an operator can watch the flush,
// but an orchestrator must not kill it for failing liveness mid-drain.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	state := "ok"
	if s.isDraining() {
		state = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      state,
		"queue_depth": len(s.queue),
	})
}

// handleReadyz is readiness: 503 while draining (stop routing new traffic
// here), while the circuit breaker holds the backend open, or while a
// supervised shard fleet has a shard with no serving replica. The body
// always carries the reason, and — when the gatherer reports health — a
// per-shard breakdown (state, consecutive failures, last transition), so a
// supervisor or test can assert on why readiness flipped, not just that it
// did.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	status := http.StatusOK
	state := "ready"
	switch {
	case s.isDraining():
		status = http.StatusServiceUnavailable
		state = "draining"
	case s.brk.isOpen(time.Now()):
		status = http.StatusServiceUnavailable
		state = "breaker_open"
	}
	body := map[string]any{"queue_depth": len(s.queue)}
	if hr, ok := s.coord.(HealthReporter); ok {
		ready, detail := hr.Health()
		body["shards"] = detail
		if !ready && status == http.StatusOK {
			status = http.StatusServiceUnavailable
			state = "shard_down"
		}
	}
	body["status"] = state
	writeJSON(w, status, body)
}

// --- helpers ----------------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// maxBodyBytes bounds a /v1 POST body. The largest legitimate one is a
// SQL statement of a few hundred bytes; the bound is there so that a
// client cannot make the server buffer an arbitrary one.
const maxBodyBytes = 1 << 20

// decodeBody decodes a /v1 POST body into req, reading at most
// maxBodyBytes of it, and reports whether it parsed. When it did not the
// reply is written: 413 for an oversized body, else 400.
func decodeBody(w http.ResponseWriter, r *http.Request, req any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(req)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body over %d bytes", maxBodyBytes))
	case err != nil:
		httpError(w, http.StatusBadRequest, "malformed JSON body: "+err.Error())
	default:
		return true
	}
	return false
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
