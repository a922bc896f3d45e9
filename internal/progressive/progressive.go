// Package progressive implements progressive (online-aggregation-style)
// query execution: approximate histogram results over growing samples,
// refined until the exact answer is reached. This is the technique the
// survey's latency section points to for keeping interfaces responsive —
// online aggregation and Incvisage both trade bounded error for bounded
// time — and it is the substrate for the accuracy metric (§3.2.2): the
// deviation of approximate answers from the truth over time.
//
// The executor shuffles row order once (seeded), then emits snapshots at a
// geometric schedule of sample sizes. Each snapshot scales its counts by
// the inverse sampling fraction, so a snapshot is an unbiased estimate of
// the full histogram.
package progressive

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/metrics"
	"repro/internal/storage"
)

// Snapshot is one progressive refinement step.
type Snapshot struct {
	// SampleRows is the number of rows consumed so far.
	SampleRows int
	// Fraction is SampleRows over the table size.
	Fraction float64
	// Estimate is the scaled histogram estimate (bin → estimated count).
	Estimate []float64
	// Cost is the model execution time to reach this snapshot (cumulative),
	// charged at the given per-tuple cost.
	Cost time.Duration
	// MSE is the mean squared error of the normalized estimate against the
	// normalized exact result.
	MSE float64
}

// Query is a progressive histogram query over one numeric column with
// conjunctive range predicates, mirroring the crossfilter query shape.
type Query struct {
	Column string
	Lo, Hi float64 // histogram domain
	Bins   int
	// Filters are conjunctive [lo,hi] ranges on named columns.
	Filters map[string][2]float64
}

// Executor runs progressive queries over one table.
type Executor struct {
	table *storage.Table
	order []int32 // shuffled row visit order
	// PerTuple is the model cost per row (defaults to the in-memory
	// profile's 25ns).
	PerTuple time.Duration
}

// NewExecutor prepares a progressive executor with a seeded row shuffle.
func NewExecutor(t *storage.Table, seed int64) *Executor {
	order := make([]int32, t.NumRows())
	for i := range order {
		order[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return &Executor{table: t, order: order, PerTuple: 25 * time.Nanosecond}
}

// Run executes the query progressively, emitting snapshots at a geometric
// schedule: start rows, then ×2 each step, ending with the exact result.
// start must be positive.
func (e *Executor) Run(q Query, start int) ([]Snapshot, error) {
	if start <= 0 {
		return nil, fmt.Errorf("progressive: start sample %d must be positive", start)
	}
	if q.Bins <= 0 {
		return nil, fmt.Errorf("progressive: bins must be positive")
	}
	col := e.table.Column(q.Column)
	if col == nil || col.Type == storage.String {
		return nil, fmt.Errorf("progressive: no numeric column %q", q.Column)
	}
	type filterCol struct {
		col    *storage.Column
		lo, hi float64
	}
	var filters []filterCol
	for name, rng := range q.Filters {
		fc := e.table.Column(name)
		if fc == nil || fc.Type == storage.String {
			return nil, fmt.Errorf("progressive: no numeric filter column %q", name)
		}
		filters = append(filters, filterCol{fc, rng[0], rng[1]})
	}

	n := e.table.NumRows()
	width := (q.Hi - q.Lo) / float64(q.Bins)
	if width <= 0 {
		return nil, fmt.Errorf("progressive: empty domain [%g, %g]", q.Lo, q.Hi)
	}

	// Exact result for MSE scoring, over the same visit order.
	exact := make([]float64, q.Bins)
	counts := make([]float64, q.Bins)
	binOf := func(row int32) (int, bool) {
		for _, f := range filters {
			v := f.col.Float(int(row))
			if v < f.lo || v > f.hi {
				return 0, false
			}
		}
		v := col.Float(int(row))
		b := int((v - q.Lo) / width)
		if b < 0 {
			b = 0
		}
		if b >= q.Bins {
			b = q.Bins - 1
		}
		return b, true
	}
	for _, row := range e.order {
		if b, ok := binOf(row); ok {
			exact[b]++
		}
	}
	exactNorm := normalize(exact)

	var snaps []Snapshot
	next := start
	consumed := 0
	for consumed < n {
		target := next
		if target > n {
			target = n
		}
		for ; consumed < target; consumed++ {
			if b, ok := binOf(e.order[consumed]); ok {
				counts[b]++
			}
		}
		scale := float64(n) / float64(consumed)
		est := make([]float64, q.Bins)
		for i, c := range counts {
			est[i] = c * scale
		}
		snaps = append(snaps, Snapshot{
			SampleRows: consumed,
			Fraction:   float64(consumed) / float64(n),
			Estimate:   est,
			Cost:       time.Duration(consumed) * e.PerTuple,
			MSE:        metrics.MSE(normalize(est), exactNorm),
		})
		next *= 2
	}
	return snaps, nil
}

func normalize(h []float64) []float64 {
	var sum float64
	for _, v := range h {
		sum += v
	}
	out := make([]float64, len(h))
	if sum == 0 {
		return out
	}
	for i, v := range h {
		out[i] = v / sum
	}
	return out
}

// FirstWithin returns the first snapshot whose MSE is at or below the
// tolerance, or the final snapshot if none qualifies earlier. It answers
// the accuracy/latency trade-off question: how early can the interface
// stop?
func FirstWithin(snaps []Snapshot, tolerance float64) (Snapshot, bool) {
	for _, s := range snaps {
		if s.MSE <= tolerance {
			return s, true
		}
	}
	if len(snaps) == 0 {
		return Snapshot{}, false
	}
	return snaps[len(snaps)-1], false
}
