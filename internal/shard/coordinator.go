package shard

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/colstore"
	"repro/internal/datacube"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/storage"
)

// Coordinator owns the shard replicas and scatter-gathers requests across
// them. It holds no goroutines of its own: each scatter runs its legs on
// the caller's goroutine and one new goroutine per further shard, so it is
// safe for concurrent use and Close has nothing to wait for.
type Coordinator struct {
	reps    []*Replica
	dims    []datacube.Dim
	faults  []*fault.Injector // per shard; nil entries inject nothing
	records int               // total records across all partitions
	closed  atomic.Bool
}

// New partitions t across opts.Shards replicas and starts a coordinator
// over them. dims are both the partitioning dimensions and the served cube
// dimensions: every replica's prefix cube bins against these global
// domains, never its partition's own min/max — bin edges must agree across
// shards or histogram addition is meaningless.
func New(t *storage.Table, dims []datacube.Dim, opts Options) (*Coordinator, error) {
	opts.normalize()
	parts, err := Partition(t, dims, opts.Shards)
	if err != nil {
		return nil, err
	}
	// Partitioning materializes raw rows, so a frozen source would otherwise
	// silently fan out uncompressed: its partitions are re-encoded.
	opts.Encode = opts.Encode || colstore.IsFrozen(t)
	reps := make([]*Replica, len(parts))
	for id, part := range parts {
		if reps[id], err = NewReplica(id, part, dims, nil, opts); err != nil {
			return nil, err
		}
		parts[id] = nil // an encoded replica no longer needs its raw rows
	}
	return Start(reps, dims, opts), nil
}

// Start starts a coordinator over replicas the caller built, reps[i] with
// ID i, each leg gated by opts.Faults[i]. The replicas must partition the
// served records, every one binning against the same global dims.
func Start(reps []*Replica, dims []datacube.Dim, opts Options) *Coordinator {
	c := &Coordinator{reps: reps, dims: dims, faults: make([]*fault.Injector, len(reps))}
	for id, rep := range reps {
		c.records += rep.Table.NumRows()
		c.faults[id] = opts.injector(id)
	}
	return c
}

// NumShards returns the shard count.
func (c *Coordinator) NumShards() int { return len(c.reps) }

// Records returns the total record count across all partitions.
func (c *Coordinator) Records() int { return c.records }

// Replica returns shard i's replica — the differential tests reach through
// this to compare per-shard structures against the oracle.
func (c *Coordinator) Replica(i int) *Replica { return c.reps[i] }

// Close marks the coordinator closed; it is idempotent. Scatters issued
// after Close fail; scatters in flight complete.
func (c *Coordinator) Close() { c.closed.Store(true) }

// scatter runs one leg of t per shard — shard 0's on the calling goroutine,
// every other on a goroutine of its own — and gathers the answers under
// t.ctx: a shard that has not answered when it expires is marked with its
// error. The result channel is buffered to the spawned legs, so a
// straggler answering an abandoned gather never blocks.
func (c *Coordinator) scatter(t *task) (*Gather, error) {
	if c.closed.Load() {
		return nil, fmt.Errorf("shard: coordinator closed")
	}
	shards := len(c.reps)
	out := make(chan result, shards-1)
	for i := 1; i < shards; i++ {
		go func() { out <- leg(c.reps[i], c.dims, c.faults[i], t) }()
	}
	answers, errs := make([]*Answer, shards), make([]error, shards)
	r := leg(c.reps[0], c.dims, c.faults[0], t)
	answers[r.shard], errs[r.shard] = r.ans, r.err
	for n := 1; n < shards; n++ {
		// An answer already buffered is taken before the deadline is looked
		// at: leg 0 can return at the deadline with the other legs' answers
		// waiting, and a select with both cases ready picks one at random.
		select {
		case r = <-out:
		default:
			select {
			case r = <-out:
			case <-t.ctx.Done():
				for i := range errs {
					if answers[i] == nil && errs[i] == nil {
						errs[i] = t.ctx.Err()
					}
				}
				return NewGather(answers, errs, c.records), nil
			}
		}
		answers[r.shard], errs[r.shard] = r.ans, r.err
	}
	return NewGather(answers, errs, c.records), nil
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

// NewGather assembles a Gather from per-shard answers, however they were
// carried — the coordinator's result channel or the process router's reply
// frames. totalRecords is the record count across ALL shards (answered or
// not); coverage follows from which answer slots are non-nil, so Fraction
// and the merges behave identically across the process boundary.
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

// ScatterBrush fans a prefix-cube brush request (all-dimension histograms
// plus the filtered count) out to every shard and gathers under ctx.
// filters follows datacube conventions: nil or empty means unfiltered,
// otherwise one entry per dimension with nil entries unfiltered. The
// session is ignored: in-process shards share one address space, so there
// is no affinity to route — every scatter calls every shard's replica
// directly, shard 0's on the caller's goroutine.
func (c *Coordinator) ScatterBrush(ctx context.Context, _ string, filters []*datacube.Range) (*Gather, error) {
	return c.scatter(&task{ctx: ctx, filters: filters})
}

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
	Histograms [][]int64
	Total      int64
	Covered    int     // shards included in the merge
	fraction   float64 // of all records, owned by the covered shards
}

// Fraction returns the covered record fraction (1 for an empty dataset).
func (b *Brush) Fraction() float64 { return b.fraction }

// MergeBrush sums the covered shards' histograms element-wise and their
// totals — the merge law the differential suite proves equal to the
// unsharded computation whenever coverage is complete.
func (g *Gather) MergeBrush(dims []datacube.Dim) *Brush {
	b := &Brush{Histograms: datacube.NewHistograms(dims), Covered: g.covered, fraction: g.Fraction()}
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

// QueryHistogram scatters a histogram-shaped SQL query across the shard
// engines and merges the per-shard (bin, count) rows by addition. The bool
// reports whether the statement matched the fast-path shape — anything
// else cannot be merged by addition and must run on an unsharded replica.
// The rows are the covered shards' raw sum beside the record fraction they
// own: complete gathers are byte-identical to the unsharded fast path, and
// estimating the whole from a partial one is the serving layer's job. A
// gather with zero coverage returns the first shard error.
func (c *Coordinator) QueryHistogram(ctx context.Context, query string) (*engine.Result, float64, bool, error) {
	stmt, shaped, err := c.reps[0].Shaped(query)
	if !shaped {
		return nil, 0, false, err
	}
	g, err := c.scatter(&task{ctx: ctx, stmt: stmt})
	if err != nil {
		return nil, 0, true, err
	}
	if g.covered == 0 {
		return nil, 0, true, g.FirstErr()
	}
	return g.MergeHistogram(), g.Fraction(), true, nil
}

// MergeHistogram sums the covered shards' (bin, count) rows — raw, like
// MergeBrush — in the fast path's exact shape: ascending bins, only
// non-empty bins, float bin / int count values. The shards' rows are
// concatenated, sorted by bin and folded — a few dozen entries, no map per
// shard. Cost stats sum tuples (work done) and take the max model cost
// (the shards ran in parallel).
func (g *Gather) MergeHistogram() *engine.Result {
	res := &engine.Result{Columns: []string{"bin", "count"}}
	res.Stats.UsedFastPath = true
	var all [][]storage.Value // every covered shard's rows
	for _, a := range g.Answers {
		if a == nil {
			continue
		}
		all = append(all, a.Bins...)
		res.Stats.TuplesScanned += a.Scanned
		res.Stats.ModelCost = max(res.Stats.ModelCost, a.Cost)
	}
	sort.Slice(all, func(i, j int) bool { return all[i][0].F < all[j][0].F })
	res.Rows = make([][]storage.Value, 0, len(all))
	for i := 0; i < len(all); {
		bin, cnt := all[i][0].F, int64(0)
		for ; i < len(all) && all[i][0].F == bin; i++ {
			cnt += all[i][1].I
		}
		res.Rows = append(res.Rows, []storage.Value{storage.NewFloat(bin), storage.NewInt(cnt)})
	}
	return res
}
