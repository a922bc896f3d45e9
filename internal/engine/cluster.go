package engine

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/sql"
	"repro/internal/storage"
)

// This file models the two distribution strategies the survey's backend
// metrics discuss (§3.1.1):
//
//   - ReplicaSet: full copies of the data behind a load balancer — the
//     Atlas design, whose evaluation measures throughput speedup as servers
//     are added.
//   - Partitioned: the data range-split across nodes with a merging
//     coordinator — the DICE design, whose evaluation measures per-query
//     latency against node count and observes diminishing returns once
//     coordination and merge costs dominate.

// ReplicaSet is a set of identical engines behind a least-loaded balancer
// on the virtual clock.
type ReplicaSet struct {
	nodes []*Engine
	// Dispatch is the serial coordinator cost paid per query before it can
	// start on a node; it bounds throughput regardless of node count.
	Dispatch time.Duration

	busy     []time.Duration
	dispatch time.Duration // when the dispatcher frees up
}

// NewReplicaSet builds n engines with the given profile, each registering
// the same tables.
func NewReplicaSet(profile Profile, n int, tables ...*storage.Table) (*ReplicaSet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("engine: replica set needs at least one node")
	}
	rs := &ReplicaSet{Dispatch: 500 * time.Microsecond, busy: make([]time.Duration, n)}
	for i := 0; i < n; i++ {
		e := New(profile)
		for _, t := range tables {
			e.Register(t)
		}
		rs.nodes = append(rs.nodes, e)
	}
	return rs, nil
}

// Nodes returns the replica count.
func (r *ReplicaSet) Nodes() int { return len(r.nodes) }

// RunBatch executes a batch of queries arriving back-to-back at virtual
// time 0 and returns the makespan: the virtual time at which the last
// result is ready. Throughput is len(stmts)/makespan — the Atlas
// experiment's measure.
func (r *ReplicaSet) RunBatch(stmts []*sql.SelectStmt) (time.Duration, error) {
	for i := range r.busy {
		r.busy[i] = 0
	}
	r.dispatch = 0
	var makespan time.Duration
	for _, stmt := range stmts {
		// Serial dispatch.
		start := r.dispatch + r.Dispatch
		r.dispatch = start
		// Least-loaded node.
		best := 0
		for i := 1; i < len(r.busy); i++ {
			if r.busy[i] < r.busy[best] {
				best = i
			}
		}
		res, err := r.nodes[best].Execute(stmt)
		if err != nil {
			return 0, err
		}
		begin := start
		if r.busy[best] > begin {
			begin = r.busy[best]
		}
		done := begin + res.Stats.ModelCost
		r.busy[best] = done
		if done > makespan {
			makespan = done
		}
	}
	return makespan, nil
}

// Partitioned is a range-partitioned cluster with a merging coordinator.
type Partitioned struct {
	nodes []*Engine
	// MergePerNodeBin is the coordinator's cost per node per result bin
	// when combining partial histograms — the summarization cost that
	// eventually eats the benefit of adding nodes.
	MergePerNodeBin time.Duration
	// Coordination is a fixed per-query coordination cost per node
	// (fan-out/fan-in messaging).
	Coordination time.Duration
}

// NewPartitioned splits the table round-robin across n nodes.
func NewPartitioned(profile Profile, n int, table *storage.Table) (*Partitioned, error) {
	if n <= 0 {
		return nil, fmt.Errorf("engine: partitioned cluster needs at least one node")
	}
	p := &Partitioned{
		MergePerNodeBin: 2 * time.Microsecond,
		Coordination:    300 * time.Microsecond,
	}
	for i := 0; i < n; i++ {
		var rows []int
		for row := i; row < table.NumRows(); row += n {
			rows = append(rows, row)
		}
		e := New(profile)
		e.Register(table.Take(rows))
		p.nodes = append(p.nodes, e)
	}
	return p, nil
}

// Nodes returns the partition count.
func (p *Partitioned) Nodes() int { return len(p.nodes) }

// Execute runs the statement on every partition in parallel and merges the
// partial results. Only histogram-shaped results (bin, count) merge; other
// shapes return an error, matching the restriction real scatter-gather
// engines place on distributable aggregates.
//
// The returned stats carry the cluster's model cost: the slowest
// partition's execution plus coordination and merge.
func (p *Partitioned) Execute(stmt *sql.SelectStmt) (*Result, error) {
	var slowest time.Duration
	merged := map[int]int64{}
	var totalStats ExecStats
	for _, node := range p.nodes {
		res, err := node.Execute(stmt)
		if err != nil {
			return nil, err
		}
		h, ok := res.Histogram()
		if !ok {
			return nil, fmt.Errorf("engine: result shape %v is not distributable", res.Columns)
		}
		for b, c := range h {
			merged[b] += c
		}
		if res.Stats.ModelCost > slowest {
			slowest = res.Stats.ModelCost
		}
		totalStats.TuplesScanned += res.Stats.TuplesScanned
		totalStats.PagesTouched += res.Stats.PagesTouched
		totalStats.PageHits += res.Stats.PageHits
		totalStats.PageMisses += res.Stats.PageMisses
	}
	bins := make([]int, 0, len(merged))
	for b := range merged {
		bins = append(bins, b)
	}
	sort.Ints(bins)
	rows := make([][]storage.Value, len(bins))
	for i, b := range bins {
		rows[i] = []storage.Value{storage.NewFloat(float64(b)), storage.NewInt(merged[b])}
	}
	mergeCost := time.Duration(len(p.nodes)*len(bins)) * p.MergePerNodeBin
	coord := time.Duration(len(p.nodes)) * p.Coordination
	totalStats.ModelCost = slowest + mergeCost + coord
	totalStats.TuplesOutput = len(rows)
	return &Result{Columns: []string{"bin", "count"}, Rows: rows, Stats: totalStats}, nil
}
