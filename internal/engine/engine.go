// Package engine executes the SQL subset over columnar storage and charges
// every query against a cost profile, reproducing the disk-based
// (PostgreSQL) versus in-memory (MemSQL) backends of the paper's
// crossfiltering case study.
//
// Execution is real — scans, joins, aggregation all run over the data — and
// produces two time figures per query: the measured wall time of this Go
// implementation and a modeled latency from the profile's cost parameters
// (page I/O, per-tuple work, fixed overhead). Experiments use the modeled
// latency on the virtual clock so results are machine-independent; the
// benchmarks additionally report the real throughput of the engine itself.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/morsel"
	"repro/internal/sql"
	"repro/internal/storage"
)

// Profile is a backend cost profile. Model latency for a query is
//
//	Fixed + misses·PerPageMiss + hits·PerPageHit + tuples·PerTuple
//
// where misses and hits come from routing the query's page touches through
// a buffer pool of PoolPages (PoolPages <= 0 means fully resident: every
// touch is a hit).
type Profile struct {
	Name        string
	Fixed       time.Duration
	PerPageHit  time.Duration
	PerPageMiss time.Duration
	PerTuple    time.Duration
	PoolPages   int
}

// ProfileDisk models the paper's disk-based backend (PostgreSQL): a buffer
// pool smaller than the road table (6,796 pages at 64 rows/page), so large
// scans thrash and stay in the paper's observed 150–500 ms band.
var ProfileDisk = Profile{
	Name:        "disk",
	Fixed:       2 * time.Millisecond,
	PerPageHit:  2 * time.Microsecond,
	PerPageMiss: 40 * time.Microsecond,
	PerTuple:    200 * time.Nanosecond,
	PoolPages:   2048,
}

// ProfileMemory models the paper's in-memory backend (MemSQL): fully
// resident, vectorized per-tuple cost, ~10–15 ms for a full-table
// crossfilter histogram — inside the paper's observed 10–50 ms band.
var ProfileMemory = Profile{
	Name:        "memory",
	Fixed:       time.Millisecond,
	PerPageHit:  0,
	PerPageMiss: 0,
	PerTuple:    25 * time.Nanosecond,
	PoolPages:   0,
}

// ExecStats is the cost accounting of one executed query.
type ExecStats struct {
	PagesTouched  int
	PageHits      int
	PageMisses    int
	TuplesScanned int
	TuplesOutput  int
	UsedFastPath  bool
	RealTime      time.Duration // wall time of this implementation
	ModelCost     time.Duration // profile cost model latency
}

// Result is a materialized query result.
type Result struct {
	Columns []string
	Rows    [][]storage.Value
	Stats   ExecStats
}

// Histogram extracts a (bin → count) map from a two-column (bin, count)
// result, the shape the crossfilter query produces. The second return is
// false if the result does not have that shape.
func (r *Result) Histogram() (map[int]int64, bool) {
	if len(r.Columns) != 2 {
		return nil, false
	}
	h := make(map[int]int64, len(r.Rows))
	for _, row := range r.Rows {
		bin := int(row[0].AsFloat())
		count := row[1].I
		if row[1].Type == storage.Float64 {
			count = int64(row[1].F)
		}
		h[bin] = count
	}
	return h, true
}

// defaultParallelism is the process-wide default for new engines: 0 means
// runtime.GOMAXPROCS(0). Atomic because tests flip it around concurrent
// query runs.
var defaultParallelism atomic.Int32

// DefaultParallelism returns the default parallelism applied to new
// engines; 0 means runtime.GOMAXPROCS(0).
func DefaultParallelism() int { return int(defaultParallelism.Load()) }

// SetDefaultParallelism changes the default parallelism for engines created
// afterwards. 0 restores runtime.GOMAXPROCS(0); 1 forces the serial path.
func SetDefaultParallelism(p int) { defaultParallelism.Store(int32(p)) }

// Engine holds a catalog of tables and a cost profile.
type Engine struct {
	profile Profile
	tables  map[string]*storage.Table
	pool    *storage.BufferPool

	// parallelism is the worker count for morsel-parallel operators;
	// 1 pins the serial path (the oracle differential tests compare
	// against). See parallel.go for the execution model.
	parallelism int

	// histScratch pools the histogram fast path's per-worker accumulators
	// (*histAcc) across statements.
	histScratch sync.Pool
}

// New creates an engine with the given profile. Parallelism defaults to
// DefaultParallelism (GOMAXPROCS unless overridden); use SetParallelism(1)
// to pin the serial oracle path.
func New(profile Profile) *Engine {
	e := &Engine{
		profile:     profile,
		tables:      make(map[string]*storage.Table),
		parallelism: DefaultParallelism(),
	}
	if e.parallelism <= 0 {
		e.parallelism = runtime.GOMAXPROCS(0)
	}
	if profile.PoolPages > 0 {
		e.pool = storage.NewBufferPool(profile.PoolPages)
	}
	return e
}

// SetParallelism sets the engine's morsel-parallel worker count. 1 selects
// the serial path; values above 1 enable parallel scans and aggregation
// with results byte-identical to the serial path. Values below 1 are
// clamped to runtime.GOMAXPROCS(0). Not safe to call concurrently with
// Query/Execute.
func (e *Engine) SetParallelism(p int) {
	if p < 1 {
		p = runtime.GOMAXPROCS(0)
	}
	e.parallelism = p
}

// Parallelism returns the engine's worker count.
func (e *Engine) Parallelism() int { return e.parallelism }

// Profile returns the engine's cost profile.
func (e *Engine) Profile() Profile { return e.profile }

// Pool returns the engine's buffer pool, or nil for fully resident
// profiles.
func (e *Engine) Pool() *storage.BufferPool { return e.pool }

// Register adds a table to the catalog, replacing any previous table of the
// same name.
func (e *Engine) Register(t *storage.Table) { e.tables[t.Name] = t }

// Table returns a registered table or nil.
func (e *Engine) Table(name string) *storage.Table { return e.tables[name] }

// Query parses and executes a SQL string.
func (e *Engine) Query(q string) (*Result, error) {
	return e.QueryCtx(context.Background(), q)
}

// QueryCtx parses and executes a SQL string under a context. An expired or
// cancelled context aborts the scan cooperatively at morsel granularity and
// returns the context's error (errors.Is-matchable against
// context.DeadlineExceeded / context.Canceled).
func (e *Engine) QueryCtx(ctx context.Context, q string) (*Result, error) {
	stmt, err := sql.Parse(q)
	if err != nil {
		return nil, err
	}
	return e.ExecuteCtx(ctx, stmt)
}

// Execute runs a parsed statement.
func (e *Engine) Execute(stmt *sql.SelectStmt) (*Result, error) {
	return e.ExecuteCtx(context.Background(), stmt)
}

// ExecuteCtx runs a parsed statement under a context. Every hot loop —
// filtered scans, hash aggregation, the histogram fast path, join build and
// probe — checks cancellation at morsel boundaries, so an expired deadline
// stops burning CPU within one morsel's worth of rows per worker. On
// cancellation no result is returned; cost-model charges for the partial
// work are discarded along with it.
func (e *Engine) ExecuteCtx(ctx context.Context, stmt *sql.SelectStmt) (*Result, error) {
	start := time.Now()
	var stats ExecStats

	var res *Result
	if hq, ok := e.matchHistogram(stmt); ok {
		var err error
		res, err = e.runHistogram(ctx, hq, &stats)
		if err != nil {
			return nil, err
		}
		stats.UsedFastPath = true
	} else {
		rel, err := e.evalTableExpr(ctx, stmt.From, &stats)
		if err != nil {
			return nil, err
		}
		res, err = e.runGeneric(ctx, stmt, rel, &stats)
		if err != nil {
			return nil, err
		}
	}
	stats.TuplesOutput = len(res.Rows)
	stats.RealTime = time.Since(start)
	stats.ModelCost = e.profile.Fixed +
		time.Duration(stats.PageHits)*e.profile.PerPageHit +
		time.Duration(stats.PageMisses)*e.profile.PerPageMiss +
		time.Duration(stats.TuplesScanned)*e.profile.PerTuple
	res.Stats = stats
	return res, nil
}

// ctxErr wraps a context cancellation in engine terms while keeping the
// cause errors.Is-matchable.
func ctxErr(err error) error {
	return fmt.Errorf("engine: execution aborted: %w", err)
}

// chargePages routes a scan of rows [lo, hi) of table t through the buffer
// pool (if any) and accumulates page statistics.
func (e *Engine) chargePages(t *storage.Table, lo, hi int, stats *ExecStats) {
	if hi <= lo {
		return
	}
	first, last := t.PageOf(lo), t.PageOf(hi-1)
	n := last - first + 1
	stats.PagesTouched += n
	if e.pool == nil {
		stats.PageHits += n
		return
	}
	for p := first; p <= last; p++ {
		if e.pool.Touch(storage.PageID{Table: t.Name, Page: p}) {
			stats.PageHits++
		} else {
			stats.PageMisses++
		}
	}
}

// relation is an intermediate result: bindings describing its columns plus
// either a live base table or materialized rows.
type relation struct {
	bindings []binding
	table    *storage.Table // non-nil for an unmaterialized base table
	rows     [][]storage.Value
}

type binding struct {
	qualifier string // table name or alias; "" for computed columns
	name      string
	typ       storage.Type
}

func (r *relation) numRows() int {
	if r.table != nil {
		return r.table.NumRows()
	}
	return len(r.rows)
}

// row materializes row i of the relation.
func (r *relation) row(i int) []storage.Value {
	if r.table != nil {
		return r.table.Row(i)
	}
	return r.rows[i]
}

func (e *Engine) evalTableExpr(ctx context.Context, te sql.TableExpr, stats *ExecStats) (*relation, error) {
	switch t := te.(type) {
	case nil:
		// SELECT without FROM: a single empty row.
		return &relation{rows: [][]storage.Value{{}}}, nil
	case sql.TableRef:
		tbl := e.tables[t.Name]
		if tbl == nil {
			return nil, fmt.Errorf("engine: unknown table %q", t.Name)
		}
		qual := t.Name
		if t.Alias != "" {
			qual = t.Alias
		}
		b := make([]binding, len(tbl.Schema))
		for i, def := range tbl.Schema {
			b[i] = binding{qualifier: qual, name: def.Name, typ: def.Type}
		}
		return &relation{bindings: b, table: tbl}, nil
	case sql.SubqueryRef:
		sub, err := e.ExecuteCtx(ctx, t.Query)
		if err != nil {
			return nil, err
		}
		// Inherit the subquery's page/tuple charges.
		stats.PagesTouched += sub.Stats.PagesTouched
		stats.PageHits += sub.Stats.PageHits
		stats.PageMisses += sub.Stats.PageMisses
		stats.TuplesScanned += sub.Stats.TuplesScanned
		b := make([]binding, len(sub.Columns))
		for i, name := range sub.Columns {
			typ := storage.Float64
			if len(sub.Rows) > 0 {
				typ = sub.Rows[0][i].Type
			}
			b[i] = binding{qualifier: t.Alias, name: name, typ: typ}
		}
		return &relation{bindings: b, rows: sub.Rows}, nil
	case sql.JoinExpr:
		return e.evalJoin(ctx, t, stats)
	default:
		return nil, fmt.Errorf("engine: unsupported table expression %T", te)
	}
}

// evalJoin materializes both sides and hash-joins them on the single
// equality in ON; remaining ON conjuncts become a residual filter.
func (e *Engine) evalJoin(ctx context.Context, j sql.JoinExpr, stats *ExecStats) (*relation, error) {
	left, err := e.evalTableExpr(ctx, j.Left, stats)
	if err != nil {
		return nil, err
	}
	right, err := e.evalTableExpr(ctx, j.Right, stats)
	if err != nil {
		return nil, err
	}

	eq, residual, err := splitJoinCondition(j.On)
	if err != nil {
		return nil, err
	}

	out := &relation{bindings: append(append([]binding{}, left.bindings...), right.bindings...)}

	// Decide which side of the equality binds to which relation.
	leftKey, err := compileExpr(eq.Left, left.bindings)
	var rightKey evalFunc
	if err == nil {
		rightKey, err = compileExpr(eq.Right, right.bindings)
	}
	if err != nil {
		// Try the flipped orientation.
		leftKey, err = compileExpr(eq.Right, left.bindings)
		if err != nil {
			return nil, fmt.Errorf("engine: join key does not resolve: %w", err)
		}
		rightKey, err = compileExpr(eq.Left, right.bindings)
		if err != nil {
			return nil, fmt.Errorf("engine: join key does not resolve: %w", err)
		}
	}

	// Build on the smaller side.
	build, probe := right, left
	buildKey, probeKey := rightKey, leftKey
	buildOnLeft := false
	if left.numRows() < right.numRows() {
		build, probe = left, right
		buildKey, probeKey = leftKey, rightKey
		buildOnLeft = true
	}

	ht := make(map[string][]int, build.numRows())
	e.chargeRelationScan(build, stats)
	for i := 0; i < build.numRows(); i++ {
		if i%morsel.Size == 0 && ctx.Err() != nil {
			return nil, ctxErr(ctx.Err())
		}
		k := encodeValue(buildKey(build.row(i)))
		ht[k] = append(ht[k], i)
	}

	var residualFn evalFunc
	if residual != nil {
		residualFn, err = compileExpr(residual, out.bindings)
		if err != nil {
			return nil, err
		}
	}

	e.chargeRelationScan(probe, stats)
	for i := 0; i < probe.numRows(); i++ {
		if i%morsel.Size == 0 && ctx.Err() != nil {
			return nil, ctxErr(ctx.Err())
		}
		prow := probe.row(i)
		k := encodeValue(probeKey(prow))
		for _, bi := range ht[k] {
			brow := build.row(bi)
			var joined []storage.Value
			if buildOnLeft {
				joined = append(append([]storage.Value{}, brow...), prow...)
			} else {
				joined = append(append([]storage.Value{}, prow...), brow...)
			}
			if residualFn != nil && !truthy(residualFn(joined)) {
				continue
			}
			out.rows = append(out.rows, joined)
		}
	}
	return out, nil
}

// chargeRelationScan charges a full scan of the relation: pages for base
// tables, tuples either way.
func (e *Engine) chargeRelationScan(r *relation, stats *ExecStats) {
	stats.TuplesScanned += r.numRows()
	if r.table != nil {
		e.chargePages(r.table, 0, r.table.NumRows(), stats)
	}
}

// splitJoinCondition extracts one column=column equality from the ON
// expression; any other conjuncts are returned as a residual predicate.
func splitJoinCondition(on sql.Expr) (eq sql.BinaryExpr, residual sql.Expr, err error) {
	var conjuncts []sql.Expr
	var collect func(e sql.Expr)
	collect = func(e sql.Expr) {
		if b, ok := e.(sql.BinaryExpr); ok && b.Op == "AND" {
			collect(b.Left)
			collect(b.Right)
			return
		}
		conjuncts = append(conjuncts, e)
	}
	collect(on)
	found := false
	for _, c := range conjuncts {
		if b, ok := c.(sql.BinaryExpr); ok && b.Op == "=" && !found {
			if _, lok := b.Left.(sql.ColumnRef); lok {
				if _, rok := b.Right.(sql.ColumnRef); rok {
					eq = b
					found = true
					continue
				}
			}
		}
		if residual == nil {
			residual = c
		} else {
			residual = sql.BinaryExpr{Op: "AND", Left: residual, Right: c}
		}
	}
	if !found {
		return eq, nil, fmt.Errorf("engine: join requires a column equality in ON, got %v", on)
	}
	return eq, residual, nil
}
