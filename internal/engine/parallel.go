package engine

import (
	"context"
	"math"
	"math/bits"

	"repro/internal/colstore"
	"repro/internal/morsel"
	"repro/internal/storage"
)

// This file implements the engine's morsel-driven parallel operators: the
// filtered scan feeding runGeneric, the hash aggregate, and the histogram
// fast path. Parallel execution must be observationally identical to the
// serial oracle (Parallelism = 1) — same rows, same bytes, same cost-model
// charges — so each operator follows two rules:
//
//  1. Cost accounting (pages through the buffer pool, tuples scanned) is
//     charged by the coordinating goroutine over the same ranges in the
//     same order as the serial path. Workers never touch the pool.
//  2. Partial results merge deterministically: integer counts merge
//     per-worker (commutative), while order-sensitive state — output row
//     order, first-seen group order, floating-point sums — merges in
//     morsel-index order, whose boundaries depend only on the input size.
//
// Early-terminating scans (LIMIT without ORDER BY/GROUP BY) stay serial:
// their tuple charges depend on where the scan stops, which a parallel
// scan cannot reproduce without serializing anyway.

// parallelWorkers returns the worker count for an n-row operator input: the
// engine's parallelism capped by morsel count, forced serial below two
// morsels where scheduling overhead cannot pay off.
func (e *Engine) parallelWorkers(n int) int {
	if e.parallelism <= 1 || n < 2*morsel.Size {
		return 1
	}
	return morsel.Workers(e.parallelism, n)
}

// scanFilter applies filter over all rows of rel, preserving row order.
// Workers filter disjoint morsels into per-morsel buffers that concatenate
// in morsel order, so the output is byte-identical to a serial scan. A
// cancelled ctx aborts between morsels and discards all partial output.
func scanFilter(ctx context.Context, rel *relation, filter evalFunc, workers int) ([][]storage.Value, error) {
	n := rel.numRows()
	parts := make([][][]storage.Value, morsel.Count(n))
	err := morsel.RunCtx(ctx, n, workers, func(_, m, lo, hi int) {
		var out [][]storage.Value
		for i := lo; i < hi; i++ {
			row := rel.row(i)
			if filter != nil && !truthy(filter(row)) {
				continue
			}
			out = append(out, row)
		}
		parts[m] = out
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([][]storage.Value, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// aggGroup accumulates all aggregate states of one group; rep is the
// group's first input row, against which non-aggregate projections
// evaluate.
type aggGroup struct {
	rep    []storage.Value
	states []aggState
}

// aggPartial is one morsel's worth of hash aggregation.
type aggPartial struct {
	groups map[string]*aggGroup
	order  []string // first-seen order within the morsel
}

// merge folds o into s. count/min/max merges are exact; sum addition is
// floating point, which is why partials merge in morsel order: the fold
// sequence depends only on morsel boundaries, never on the worker count.
func (s *aggState) merge(o *aggState) {
	s.count += o.count
	s.sum += o.sum
	if !o.seen {
		return
	}
	if !s.seen {
		s.min, s.max, s.seen = o.min, o.max, true
		return
	}
	if o.min.Compare(s.min) < 0 {
		s.min = o.min
	}
	if o.max.Compare(s.max) > 0 {
		s.max = o.max
	}
}

// groupAggregate hash-aggregates the filtered rows. Every parallelism level
// — including the serial oracle — computes per-morsel partials and merges
// them in morsel order, so group order (first occurrence in row order) and
// every accumulated value are identical for any worker count. For inputs of
// a single morsel this degenerates to exactly the pre-parallel serial loop.
// A cancelled ctx aborts between morsels and discards all partials.
func groupAggregate(ctx context.Context, rows [][]storage.Value, groupFns []evalFunc, specs []*aggSpec, workers int) (map[string]*aggGroup, []string, error) {
	n := len(rows)
	partials := make([]aggPartial, morsel.Count(n))
	err := morsel.RunCtx(ctx, n, workers, func(_, m, lo, hi int) {
		p := aggPartial{groups: map[string]*aggGroup{}}
		keyVals := make([]storage.Value, len(groupFns))
		for i := lo; i < hi; i++ {
			row := rows[i]
			for j, f := range groupFns {
				keyVals[j] = f(row)
			}
			k := encodeRowKey(keyVals)
			g := p.groups[k]
			if g == nil {
				g = &aggGroup{rep: row, states: make([]aggState, len(specs))}
				p.groups[k] = g
				p.order = append(p.order, k)
			}
			for j, spec := range specs {
				g.states[j].add(spec, row)
			}
		}
		partials[m] = p
	})
	if err != nil {
		return nil, nil, err
	}

	groups := map[string]*aggGroup{}
	var order []string
	for _, p := range partials {
		for _, k := range p.order {
			pg := p.groups[k]
			g := groups[k]
			if g == nil {
				groups[k] = pg
				order = append(order, k)
				continue
			}
			for j := range g.states {
				g.states[j].merge(&pg.states[j])
			}
		}
	}
	return groups, order, nil
}

// histAcc is one worker's histogram accumulator: a dense window around bin
// zero plus a sparse spill map, and the scratch selection bitmap the filter
// kernels write; workers only ever touch their own morsels' 64-bit words
// (morsel.Size is a multiple of 64), so sharing one bitmap per worker is
// race-free.
type histAcc struct {
	dense  []int64
	sparse map[int]int64
	bm     *colstore.Bitmap
}

// bump counts one row in bin.
func (acc *histAcc) bump(bin int) {
	if idx := bin + fastBinOffset; idx >= 0 && idx < len(acc.dense) {
		acc.dense[idx]++
	} else {
		if acc.sparse == nil {
			acc.sparse = make(map[int]int64)
		}
		acc.sparse[bin]++
	}
}

// getHistAccs takes one zeroed accumulator per worker from the engine's
// pool — the 64 KB dense window and the n-row selection bitmap would
// otherwise be allocated per worker per statement.
func (e *Engine) getHistAccs(n, workers int) []*histAcc {
	accs := make([]*histAcc, workers)
	for w := range accs {
		acc, _ := e.histScratch.Get().(*histAcc)
		if acc == nil {
			acc = &histAcc{dense: make([]int64, 2*fastBinOffset), bm: colstore.NewBitmap(0)}
		}
		acc.bm.Reset(n)
		accs[w] = acc
	}
	return accs
}

// putHistAccs returns accumulators to the pool, zeroed for the next
// statement. Nothing may read them afterwards.
func (e *Engine) putHistAccs(accs []*histAcc) {
	for _, acc := range accs {
		clear(acc.dense)
		acc.sparse = nil
		e.histScratch.Put(acc)
	}
}

// countHistogram runs the fast path's filter+bin counting loop over all
// rows with one worker per accumulator and merges the counts into accs[0],
// which it returns. Counts are int64, so per-worker accumulators merge
// exactly regardless of order; the result is identical at every
// parallelism level. A cancelled ctx aborts between morsels and discards
// all partial counts.
func countHistogram(ctx context.Context, q *histQuery, n int, accs []*histAcc) (*histAcc, error) {
	err := morsel.RunCtx(ctx, n, len(accs), func(w, _, lo, hi int) {
		countHistogramRange(q, accs[w], lo, hi)
	})
	if err != nil {
		return nil, err
	}
	out := accs[0]
	for _, acc := range accs[1:] {
		for i, c := range acc.dense {
			out.dense[i] += c
		}
		for bin, c := range acc.sparse {
			if out.sparse == nil {
				out.sparse = make(map[int]int64)
			}
			out.sparse[bin] += c
		}
	}
	return out, nil
}

// countHistogramRange applies the range predicates and bins rows [lo, hi)
// into acc: each predicate runs as one zone-mapped kernel pass over its
// column into the worker's selection bitmap (first predicate stores, the
// rest AND; no predicate selects every row), then the bin column is
// counted a selection word at a time. round(a·v + b) is monotone in v, so
// when the bin column's zone minimum and maximum land in the same bin
// every row of the word does, and the word costs one popcount; a zone that
// spans a bin edge, holds a NaN (NaN != NaN) or bins outside the dense
// window walks its surviving rows one by one. When the bin column has a
// sketch the same rule has been applied per bucket (compile): a row whose
// bucket falls in one bin costs a byte read and a counter bump, and only
// rows of buckets that straddle a bin edge are decoded and rounded.
// Kernels leave bits past hi zero in the final partial word, so the word
// walk needs no tail guard.
// [lo, hi) is a morsel range, so lo is 64-aligned as the kernels require.
func countHistogramRange(q *histQuery, acc *histAcc, lo, hi int) {
	a, b := q.bin.a, q.bin.b
	if len(q.preds) == 0 {
		acc.bm.FillRange(lo, hi)
	}
	for k := range q.preds {
		p := &q.preds[k]
		p.enc.FilterRange(p.lo, p.hi, lo, hi, acc.bm, k > 0)
	}
	words := acc.bm.Words()
	for w := lo >> 6; w<<6 < hi; w++ {
		x := words[w]
		if x == 0 {
			continue
		}
		if slot, ok := q.denseSlot(q.binZones.Bounds(w)); ok {
			acc.dense[slot] += int64(bits.OnesCount64(x))
			continue
		}
		base := w << 6
		for x != 0 {
			i := base + bits.TrailingZeros64(x)
			x &= x - 1
			if q.binCodes != nil {
				if slot := q.binSlot[q.binCodes[i]]; slot >= 0 {
					acc.dense[slot]++
					continue
				}
			}
			acc.bump(int(math.Round(a*q.binValue(i) + b)))
		}
	}
}
