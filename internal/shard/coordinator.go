package shard

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/colstore"
	"repro/internal/datacube"
	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/storage"
)

// Coordinator owns the shard replicas and scatter-gathers requests across
// them. It is safe for concurrent use: scatters run under a read lock,
// Close under the write lock, and each shard's pool serializes nothing
// beyond its own task channel.
type Coordinator struct {
	opts    Options
	dims    []datacube.Dim
	workers []*worker
	records int // total records across all partitions

	mu     sync.RWMutex // guards task-channel sends against Close
	closed atomic.Bool
	wg     sync.WaitGroup
}

// New partitions t across opts.Shards replicas and starts their worker
// pools. dims are both the partitioning dimensions and the served cube
// dimensions: every replica's prefix cube bins against these global
// domains, never its partition's own min/max — bin edges must agree across
// shards or histogram addition is meaningless.
func New(t *storage.Table, dims []datacube.Dim, opts Options) (*Coordinator, error) {
	opts.normalize(len(dims))
	parts, err := Partition(t, dims, opts.Shards, opts.Mode, opts.RangeDim)
	if err != nil {
		return nil, err
	}
	if opts.Encode || colstore.IsFrozen(t) {
		// Re-encode each partition: partitioning materializes raw rows, so
		// a frozen source would otherwise silently fan out uncompressed.
		for i, part := range parts {
			parts[i], err = colstore.Freeze(part, &colstore.Options{Parallelism: opts.Parallelism})
			if err != nil {
				return nil, fmt.Errorf("shard %d: freeze: %w", i, err)
			}
		}
	}
	c := &Coordinator{opts: opts, dims: dims, records: t.NumRows()}
	for id, part := range parts {
		rep := &Replica{ID: id, Table: part}
		rep.Prefix, err = datacube.BuildPrefix(part, dims, opts.Parallelism)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", id, err)
		}
		if opts.WithEngine {
			rep.Engine = engine.New(opts.Profile)
			rep.Engine.SetParallelism(opts.Parallelism)
			rep.Engine.Register(part)
		}
		w := &worker{rep: rep, fault: opts.injector(id), tasks: make(chan *task, taskQueueDepth)}
		c.workers = append(c.workers, w)
		for g := 0; g < opts.Workers; g++ {
			c.wg.Add(1)
			go w.loop(&c.wg)
		}
	}
	return c, nil
}

// NumShards returns the shard count.
func (c *Coordinator) NumShards() int { return len(c.workers) }

// Records returns the total record count across all partitions.
func (c *Coordinator) Records() int { return c.records }

// Replica returns shard i's replica — the differential tests reach through
// this to compare per-shard structures against the oracle.
func (c *Coordinator) Replica(i int) *Replica { return c.workers[i].rep }

// Close shuts the worker pools down and waits for every goroutine to exit.
// Scatters issued after Close fail; scatters in flight complete (their
// tasks were already enqueued).
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed.Swap(true) {
		c.mu.Unlock()
		return
	}
	for _, w := range c.workers {
		close(w.tasks)
	}
	c.mu.Unlock()
	c.wg.Wait()
}

// scatter enqueues run on every shard's pool and returns the gather
// channel, buffered to the dispatch count so stragglers answering after an
// abandoned gather never block.
func (c *Coordinator) scatter(ctx context.Context, run func(ctx context.Context, r *Replica) (*Answer, error)) (<-chan result, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed.Load() {
		return nil, fmt.Errorf("shard: coordinator closed")
	}
	out := make(chan result, len(c.workers))
	for i, w := range c.workers {
		t := &task{ctx: ctx, run: run, out: out}
		select {
		case w.tasks <- t:
		case <-ctx.Done():
			// The shard's backlog is full and the deadline hit first:
			// answer for it locally so the gather still sees S results.
			out <- result{shard: i, err: ctx.Err()}
		}
	}
	return out, nil
}

// Gather is the outcome of one scatter: per-shard answers (nil where a
// shard failed or missed the deadline) plus coverage accounting.
type Gather struct {
	Answers []*Answer // indexed by shard; nil means no answer
	Errs    []error   // indexed by shard; the miss reason where Answers is nil

	records        int // total records across all shards
	covered        int // shards that answered
	coveredRecords int // records owned by the shards that answered
}

// NewGather assembles a Gather from per-shard answers collected outside the
// in-process coordinator — the constructor the process-level router uses
// after gathering its children's binary answer frames. totalRecords is the
// record count across ALL shards (answered or not); coverage accounting follows
// from which answer slots are non-nil, exactly as the in-process gather
// computes it, so Fraction and MergeBrush behave identically across the
// process boundary.
func NewGather(answers []*Answer, errs []error, totalRecords int) *Gather {
	g := &Gather{Answers: answers, Errs: errs, records: totalRecords}
	for _, a := range answers {
		if a != nil {
			g.covered++
			g.coveredRecords += a.Records
		}
	}
	return g
}

// ScatterBrush adapts Scatter to the serving layer's Gatherer interface.
// The session is ignored: in-process shards share one address space, so
// there is no affinity to route — every scatter reaches every shard pool
// directly.
func (c *Coordinator) ScatterBrush(ctx context.Context, _ string, filters []*datacube.Range) (*Gather, error) {
	return c.Scatter(ctx, filters)
}

// gather collects up to len(workers) results, stopping early when ctx
// expires; shards that have not answered by then are marked with ctx's
// error.
func (c *Coordinator) gather(ctx context.Context, out <-chan result) *Gather {
	g := &Gather{
		Answers: make([]*Answer, len(c.workers)),
		Errs:    make([]error, len(c.workers)),
		records: c.records,
	}
	for n := 0; n < len(c.workers); n++ {
		select {
		case r := <-out:
			if r.err != nil {
				g.Errs[r.shard] = r.err
				continue
			}
			g.Answers[r.shard] = r.ans
			g.covered++
			g.coveredRecords += r.ans.Records
		case <-ctx.Done():
			for i := range g.Errs {
				if g.Answers[i] == nil && g.Errs[i] == nil {
					g.Errs[i] = ctx.Err()
				}
			}
			return g
		}
	}
	return g
}

// Complete reports whether every shard answered.
func (g *Gather) Complete() bool { return g.covered == len(g.Answers) }

// Covered returns the number of shards that answered.
func (g *Gather) Covered() int { return g.covered }

// Fraction returns the fraction of all records owned by the shards that
// answered — the SampleFraction a degraded partial response reports. An
// empty dataset is trivially fully covered.
func (g *Gather) Fraction() float64 {
	if g.records == 0 {
		return 1
	}
	return float64(g.coveredRecords) / float64(g.records)
}

// FirstErr returns the first per-shard error, or nil.
func (g *Gather) FirstErr() error {
	for _, err := range g.Errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Brush is a merged brush answer: one histogram per dimension plus the
// filtered total, summed over the covered shards.
type Brush struct {
	Histograms     [][]int64
	Total          int64
	Shards         int // shard count
	Covered        int // shards included in the merge
	Records        int // records across all shards
	CoveredRecords int // records across the covered shards
}

// Fraction returns the covered record fraction (1 for an empty dataset).
func (b *Brush) Fraction() float64 {
	if b.Records == 0 {
		return 1
	}
	return float64(b.CoveredRecords) / float64(b.Records)
}

// MergeBrush sums the covered shards' histograms element-wise and their
// totals — the merge law the differential suite proves equal to the
// unsharded computation whenever coverage is complete.
func (g *Gather) MergeBrush(dims []datacube.Dim) *Brush {
	b := &Brush{
		Histograms:     datacube.NewHistograms(dims),
		Shards:         len(g.Answers),
		Covered:        g.covered,
		Records:        g.records,
		CoveredRecords: g.coveredRecords,
	}
	for _, a := range g.Answers {
		if a == nil {
			continue
		}
		b.Total += a.Total
		for i, h := range a.Histograms {
			dst := b.Histograms[i]
			for bin, v := range h {
				dst[bin] += v
			}
		}
	}
	return b
}

// Scatter fans a prefix-cube brush request (all-dimension histograms plus
// the filtered count) out to every shard and gathers under ctx. filters
// follows datacube conventions: nil or empty means unfiltered, otherwise
// one entry per dimension with nil entries unfiltered.
func (c *Coordinator) Scatter(ctx context.Context, filters []*datacube.Range) (*Gather, error) {
	run := func(tctx context.Context, r *Replica) (*Answer, error) {
		a := &Answer{Records: r.Table.NumRows(), Histograms: datacube.NewHistograms(c.dims)}
		var err error
		if a.Total, err = r.Prefix.BrushInto(filters, a.Histograms); err != nil {
			return nil, err
		}
		return a, nil
	}
	out, err := c.scatter(ctx, run)
	if err != nil {
		return nil, err
	}
	return c.gather(ctx, out), nil
}

// Brush is the one-shot form of Scatter: gather and merge. Callers that
// need coverage-sensitive handling (degradation ladders) use Scatter and
// inspect the Gather.
func (c *Coordinator) Brush(ctx context.Context, filters []*datacube.Range) (*Brush, error) {
	g, err := c.Scatter(ctx, filters)
	if err != nil {
		return nil, err
	}
	return g.MergeBrush(c.dims), nil
}

// QueryHistogram scatters a histogram-shaped SQL query across the shard
// engines and merges the per-shard (bin, count) rows by addition. The bool
// reports whether the statement matched the fast-path shape — anything
// else cannot be merged by addition and must run on an unsharded replica.
// When coverage is partial, counts are scaled by 1/fraction (the
// PartialHistogram estimation convention) and the fraction is returned;
// complete gathers return the counts untouched, byte-identical to the
// unsharded fast path. A gather with zero coverage returns the first
// shard error.
func (c *Coordinator) QueryHistogram(ctx context.Context, query string) (*engine.Result, float64, bool, error) {
	if !c.opts.WithEngine {
		return nil, 0, false, nil
	}
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, 0, false, err
	}
	if !c.workers[0].rep.Engine.IsHistogramShaped(stmt) {
		return nil, 0, false, nil
	}
	run := func(tctx context.Context, r *Replica) (*Answer, error) {
		res, err := r.Engine.ExecuteCtx(tctx, stmt)
		if err != nil {
			return nil, err
		}
		if len(res.Columns) != 2 {
			return nil, fmt.Errorf("shard: histogram query returned %d columns", len(res.Columns))
		}
		return &Answer{
			Records: r.Table.NumRows(),
			Bins:    res.Rows,
			Scanned: res.Stats.TuplesScanned,
			Cost:    res.Stats.ModelCost,
		}, nil
	}
	out, err := c.scatter(ctx, run)
	if err != nil {
		return nil, 0, true, err
	}
	g := c.gather(ctx, out)
	if g.covered == 0 {
		return nil, 0, true, g.FirstErr()
	}
	res := mergeHistResult(g)
	return res, g.Fraction(), true, nil
}

// mergeHistResult sums the covered shards' (bin, count) rows and
// materializes them in the fast path's exact shape: ascending bins, only
// non-empty bins, float bin / int count values. The shards' rows are
// concatenated, sorted by bin and folded — a few dozen entries, no map per
// shard. Cost stats sum tuples (work done) and take the max model cost
// (the shards ran in parallel). Partial coverage scales counts by
// 1/fraction with round-half-up, matching PartialHistogram.
func mergeHistResult(g *Gather) *engine.Result {
	res := &engine.Result{Columns: []string{"bin", "count"}}
	type binCount struct {
		bin   int
		count int64
	}
	var all []binCount // every covered shard's rows
	for _, a := range g.Answers {
		if a == nil {
			continue
		}
		for _, row := range a.Bins {
			all = append(all, binCount{bin: int(row[0].F), count: row[1].I})
		}
		res.Stats.TuplesScanned += a.Scanned
		if a.Cost > res.Stats.ModelCost {
			res.Stats.ModelCost = a.Cost
		}
	}
	res.Stats.UsedFastPath = true
	scale := 1.0
	if frac := g.Fraction(); frac > 0 && frac < 1 {
		scale = 1 / frac
	}
	sort.Slice(all, func(i, j int) bool { return all[i].bin < all[j].bin })
	res.Rows = make([][]storage.Value, 0, len(all))
	for i := 0; i < len(all); {
		bin, cnt := all[i].bin, int64(0)
		for ; i < len(all) && all[i].bin == bin; i++ {
			cnt += all[i].count
		}
		if scale != 1 {
			cnt = int64(float64(cnt)*scale + 0.5)
		}
		res.Rows = append(res.Rows, []storage.Value{storage.NewFloat(float64(bin)), storage.NewInt(cnt)})
	}
	return res
}
