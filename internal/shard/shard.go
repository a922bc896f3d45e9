// Package shard implements sharded scatter-gather serving: a dataset
// partitioned across N shard workers (hash or range on the spatial
// dimensions), each owning its own engine and prefix-cube replica over its
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
	"time"

	"repro/internal/datacube"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/storage"
)

// Options configures a Coordinator build.
type Options struct {
	// Shards is the partition count; values below 1 mean 1 (a single
	// replica — the degenerate case the differential tests use as a
	// self-check, since S=1 sharding must also equal the oracle).
	Shards int
	// Mode selects hash (default) or range partitioning.
	Mode Mode
	// RangeDim names the Range mode's sort dimension ("" means dims[0]).
	RangeDim string
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

// Replica is one shard's private copy of the backends, built over its
// partition only. Prefix is always present; Engine follows the
// Options.
type Replica struct {
	ID     int
	Table  *storage.Table
	Engine *engine.Engine
	Prefix *datacube.PrefixCube
}

// worker is one shard's task pool: a channel of scatter units drained by a
// fixed set of goroutines, optionally fault-gated.
type worker struct {
	rep   *Replica
	fault *fault.Injector
	tasks chan *task
}

// task is one scatter unit bound for a shard.
type task struct {
	ctx context.Context
	run func(ctx context.Context, r *Replica) (*Answer, error)
	out chan<- result
}

// result is one shard's gather contribution.
type result struct {
	shard int
	ans   *Answer
	err   error
}

// Answer is one shard's contribution to a scatter-gathered request.
// Exactly one of the payload shapes is populated: Histograms+Total for
// brush answers, Bins for the engine's ascending (bin, count) histogram rows.
type Answer struct {
	Records    int // records in the answering shard's partition
	Histograms [][]int64
	Total      int64
	Bins       [][]storage.Value
	Scanned    int           // tuples the shard's engine scanned (query path)
	Cost       time.Duration // the shard engine's modeled latency (query path)
}

// taskQueueDepth bounds each shard's pending task backlog. The serving
// layer's own admission queue bounds in-flight work well below this; the
// buffer only smooths bursts across sessions.
const taskQueueDepth = 256

func (o *Options) normalize(dimCount int) {
	if o.Shards < 1 {
		o.Shards = 1
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Parallelism <= 0 {
		p := runtime.GOMAXPROCS(0) / o.Shards
		if p < 1 {
			p = 1
		}
		o.Parallelism = p
	}
	if o.Profile.Name == "" {
		o.Profile = engine.ProfileMemory
	}
	_ = dimCount
}

func (o *Options) injector(shard int) *fault.Injector {
	if shard < len(o.Faults) {
		return o.Faults[shard]
	}
	return nil
}

// loop drains the shard's task channel until Close. A task whose context
// already expired is answered with the context error without touching the
// backends; otherwise the fault gate runs first (an injected stall is cut
// short by the task's deadline), then the real work.
func (w *worker) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	for t := range w.tasks {
		res := result{shard: w.rep.ID}
		switch {
		case t.ctx.Err() != nil:
			res.err = t.ctx.Err()
		default:
			if w.fault != nil {
				res.err = w.fault.Do(t.ctx)
			}
			if res.err == nil {
				res.ans, res.err = t.run(t.ctx, w.rep)
			}
		}
		// out is buffered to the dispatch count, so a late answer to an
		// abandoned gather parks in the buffer and is garbage collected
		// with it — the worker never blocks on a departed coordinator.
		t.out <- res
	}
}
