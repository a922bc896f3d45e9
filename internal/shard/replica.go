package shard

import (
	"context"
	"fmt"
	"time"

	"repro/internal/colstore"
	"repro/internal/datacube"
	"repro/internal/engine"
	"repro/internal/sql"
	"repro/internal/storage"
)

// Replica is one partition's serving state and the far end of the scatter
// contract: what a partition answers to a brush and to a histogram
// statement. A Coordinator holds one per shard in process, a router child
// holds one behind a socket; both call the same two methods, and both get
// raw, unscaled counts that merge by addition (Gather). Prefix is always
// present; Engine follows Options.WithEngine.
type Replica struct {
	ID     int
	Table  *storage.Table
	Engine *engine.Engine
	Prefix *datacube.PrefixCube
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

// NewReplica builds shard id's serving state over its partition, in the one
// order every transport uses: freeze when encoding, the cell-run directory
// over dims' layout cells (kept only where part's rows cluster by cell, as
// a laid-out partition's do) with its runs placed on the cell grid, the
// prefix cube over dims — the GLOBAL domains, never the partition's own
// min/max, or bin edges would not agree across shards — then the engine. A non-nil prefix is a grid already
// integrated over part (a warm start's mapped snapshot) and is adopted
// instead of counted again.
func NewReplica(id int, part *storage.Table, dims []datacube.Dim, prefix *datacube.PrefixCube, opts Options) (*Replica, error) {
	opts.normalize()
	var err error
	if opts.Encode {
		if part, err = colstore.Freeze(part, &colstore.Options{Parallelism: opts.Parallelism}); err != nil {
			return nil, fmt.Errorf("shard %d: freeze: %w", id, err)
		}
	}
	if runs := colstore.AttachRuns(part, cellStarts(part, dims)); runs != nil {
		placeRuns(part, dims, runs)
	}
	if prefix == nil {
		if prefix, err = datacube.BuildPrefix(part, dims, opts.Parallelism); err != nil {
			return nil, fmt.Errorf("shard %d: %w", id, err)
		}
	}
	r := &Replica{ID: id, Table: part, Prefix: prefix}
	if opts.WithEngine {
		r.Engine = engine.New(opts.Profile)
		r.Engine.SetParallelism(opts.Parallelism)
		r.Engine.Register(part)
	}
	return r, nil
}

// Brush answers the partition's share of a brush: every dimension's
// histogram under filters into the caller's hists (NewHistograms-shaped,
// overwritten) and the filtered record count.
func (r *Replica) Brush(filters []*datacube.Range, hists [][]int64) (int64, error) {
	return r.Prefix.BrushInto(filters, hists)
}

// Shaped parses query and reports whether partitions can answer it
// mergeably: only the engine's histogram fast-path shape has a merge law
// ((bin, count) rows over disjoint partitions add), so anything else must
// run on an unsharded table. A parse error comes back with false.
func (r *Replica) Shaped(query string) (*sql.SelectStmt, bool, error) {
	if r.Engine == nil {
		return nil, false, nil
	}
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, false, err
	}
	return stmt, r.Engine.IsHistogramShaped(stmt), nil
}

// Histogram answers the partition's share of a Shaped statement: its
// engine's ascending (bin, count) rows, the tuples it scanned and its
// modeled cost.
func (r *Replica) Histogram(ctx context.Context, stmt *sql.SelectStmt) (*Answer, error) {
	res, err := r.Engine.ExecuteCtx(ctx, stmt)
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
