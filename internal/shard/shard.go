// Package shard implements sharded scatter-gather serving: a dataset
// partitioned across N shard workers (hashed on the spatial dimensions),
// each owning its own engine and prefix-cube replica over its
// partition, behind a coordinator that fans each brush or histogram query
// out to every shard and merges the per-shard answers.
//
// The architecture works because the answer structures merge trivially:
// a 20-bin histogram over a disjoint union of record sets is the
// element-wise sum of the per-set histograms, and a prefix-cube corner
// count is the sum of the per-set corner counts. The differential suite
// (differential_test.go) pins that law — for randomized brushes, filters,
// and S ∈ {1,2,4,8}, the sharded merge is byte-identical to the unsharded
// oracle on both backends.
//
// Shards run as goroutine pools: each shard owns a task channel drained by
// a fixed set of workers, so a stalled shard (injected via internal/fault)
// delays only its own answers. A gather under a context deadline returns
// what arrived in time; the coordinator reports coverage (which shards and
// how many records answered) so the serving layer can degrade to a partial
// answer with a correct sample fraction instead of blocking on the
// straggler — the PR-4 ladder's semantics extended across shards.
package shard

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/datacube"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/sql"
)

// Options configures a Coordinator build.
type Options struct {
	// Shards is the partition count; values below 1 mean 1 (a single
	// replica — the degenerate case the differential tests use as a
	// self-check, since S=1 sharding must also equal the oracle).
	Shards int
	// Workers is the goroutine-pool size per shard; 0 means 2.
	Workers int
	// Parallelism is each replica's morsel parallelism for builds and
	// scans; 0 means runtime.GOMAXPROCS(0) capped by the shard count (the
	// shards already provide the fan-out).
	Parallelism int

	// WithEngine builds a SQL engine per shard (Profile applies); the
	// coordinator can then scatter histogram-shaped queries.
	WithEngine bool
	// Profile is the per-shard engine cost profile; the zero value means
	// engine.ProfileMemory.
	Profile engine.Profile

	// Encode freezes each partition into colstore's compressed columnar
	// form before the replica backends build over it — per-shard memory
	// drops by the table's compression ratio and scans run the vectorized
	// kernels. New also turns this on automatically when the source table
	// is itself frozen, so encoding propagates through partitioning.
	Encode bool

	// Faults optionally gates each shard's task execution with a fault
	// injector (len Shards; nil entries inject nothing) — the chaos hook
	// that stalls or fails a single shard.
	Faults []*fault.Injector
}

// worker is one shard's task pool: a channel of scatter units drained by a
// fixed set of goroutines, optionally fault-gated.
type worker struct {
	rep   *Replica
	dims  []datacube.Dim
	fault *fault.Injector
	tasks chan *task
}

// task is one scatter unit bound for a shard: a histogram statement when
// stmt is set, else a brush under filters.
type task struct {
	ctx     context.Context
	filters []*datacube.Range
	stmt    *sql.SelectStmt
	out     chan<- result
}

// result is one shard's gather contribution.
type result struct {
	shard int
	ans   *Answer
	err   error
}

// taskQueueDepth bounds each shard's pending task backlog. The serving
// layer's own admission queue bounds in-flight work well below this; the
// buffer only smooths bursts across sessions.
const taskQueueDepth = 256

func (o *Options) normalize() {
	if o.Shards < 1 {
		o.Shards = 1
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Parallelism <= 0 {
		o.Parallelism = max(1, runtime.GOMAXPROCS(0)/o.Shards)
	}
	if o.Profile.Name == "" {
		o.Profile = engine.ProfileMemory
	}
}

func (o *Options) injector(shard int) *fault.Injector {
	if shard < len(o.Faults) {
		return o.Faults[shard]
	}
	return nil
}

// answer is the in-process carrier of the scatter contract: one of the
// replica's two answers, as an Answer the gather can merge.
func (w *worker) answer(t *task) (*Answer, error) {
	if t.stmt != nil {
		return w.rep.Histogram(t.ctx, t.stmt)
	}
	a := &Answer{Records: w.rep.Table.NumRows(), Histograms: datacube.NewHistograms(w.dims)}
	var err error
	if a.Total, err = w.rep.Brush(t.filters, a.Histograms); err != nil {
		return nil, err
	}
	return a, nil
}

// loop drains the shard's task channel until Close. A task whose context
// already expired is answered with the context error without touching the
// backends; otherwise the fault gate runs first (an injected stall is cut
// short by the task's deadline), then the real work.
func (w *worker) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	for t := range w.tasks {
		res := result{shard: w.rep.ID, err: t.ctx.Err()}
		if res.err == nil && w.fault != nil {
			res.err = w.fault.Do(t.ctx)
		}
		if res.err == nil {
			res.ans, res.err = w.answer(t)
		}
		// out is buffered to the dispatch count, so a late answer to an
		// abandoned gather parks in the buffer and is garbage collected
		// with it — the worker never blocks on a departed coordinator.
		t.out <- res
	}
}
