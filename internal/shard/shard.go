// Package shard implements sharded scatter-gather serving: a dataset
// partitioned across N shards (hashed on the spatial dimensions), each
// owning its own engine and prefix-cube replica over its partition, behind
// a coordinator that fans each brush or histogram query out to every shard
// and merges the per-shard answers.
//
// The architecture works because the answer structures merge trivially:
// a 20-bin histogram over a disjoint union of record sets is the
// element-wise sum of the per-set histograms, and a prefix-cube corner
// count is the sum of the per-set corner counts. The differential suite
// (differential_test.go) pins that law — for randomized brushes, filters,
// and S ∈ {1,2,4,8}, the sharded merge is byte-identical to the unsharded
// oracle on both backends.
//
// A scatter runs its shard legs on its own goroutines: shard 0's leg on the
// caller's, one new goroutine for each other shard, so a stalled shard
// (injected via internal/fault) delays only its own leg. A gather under a
// context deadline returns what arrived in time — answers already waiting
// are taken before the deadline is looked at — and the coordinator reports
// coverage (which shards and how many records answered) so the serving
// layer can degrade to a partial answer with a correct sample fraction
// instead of blocking on the straggler — the PR-4 ladder's semantics
// extended across shards.
package shard

import (
	"context"
	"runtime"

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

// task is one scatter unit bound for a shard: a histogram statement when
// stmt is set, else a brush under filters.
type task struct {
	ctx     context.Context
	filters []*datacube.Range
	stmt    *sql.SelectStmt
}

// result is one shard's gather contribution.
type result struct {
	shard int
	ans   *Answer
	err   error
}

func (o *Options) normalize() {
	if o.Shards < 1 {
		o.Shards = 1
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

// leg answers one scatter unit on one shard's replica. A task whose
// context already expired is answered with the context error without
// touching the backends; otherwise the fault gate runs first (an injected
// stall is cut short by the task's deadline), then one of the replica's two
// answers, as an Answer the gather can merge.
func leg(rep *Replica, dims []datacube.Dim, inj *fault.Injector, t *task) result {
	res := result{shard: rep.ID, err: t.ctx.Err()}
	if res.err == nil && inj != nil {
		res.err = inj.Do(t.ctx)
	}
	if res.err != nil {
		return res
	}
	if t.stmt != nil {
		res.ans, res.err = rep.Histogram(t.ctx, t.stmt)
		return res
	}
	a := &Answer{Records: rep.Table.NumRows(), Histograms: datacube.NewHistograms(dims)}
	if a.Total, res.err = rep.Brush(t.filters, a.Histograms); res.err == nil {
		res.ans = a
	}
	return res
}
