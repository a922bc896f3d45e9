package engine

import (
	"context"
	"math"
	"math/bits"
	"sort"

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
	dense []int64
	// Every non-zero dense slot lies in [lo, hi], so reading and clearing
	// the counts walks that window rather than all of dense. Pooled
	// accumulators start empty (hi < lo); a zero histAcc's [0, 0] is a
	// wider window, which is just as true.
	lo, hi int
	sparse map[int]int64
	bm     *colstore.Bitmap
}

// add counts c rows in dense slot slot.
func (acc *histAcc) add(slot int, c int64) {
	acc.dense[slot] += c
	acc.lo, acc.hi = min(acc.lo, slot), max(acc.hi, slot)
}

// bump counts one row in bin.
func (acc *histAcc) bump(bin int) {
	if idx := bin + fastBinOffset; idx >= 0 && idx < len(acc.dense) {
		acc.add(idx, 1)
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
			acc = &histAcc{dense: make([]int64, 2*fastBinOffset), lo: 2 * fastBinOffset, hi: -1, bm: colstore.NewBitmap(0)}
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
		if acc.lo <= acc.hi {
			clear(acc.dense[acc.lo : acc.hi+1])
		}
		acc.lo, acc.hi = len(acc.dense), -1
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
		for i := acc.lo; i <= acc.hi; i++ {
			if c := acc.dense[i]; c != 0 {
				out.add(i, c)
			}
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

// countHistogramRange bins the rows of [lo, hi) that pass the range
// predicates into acc, run by run through the table's cell-run directory:
// every run, or only the shell when the grid has counted the rest
// (planCells). Each run, clipped to [lo, hi), is decided from its exact
// per-column bounds against the statement's own ranges and affine bin:
//
//   - skipped when some predicate's range is disjoint from the run's bounds;
//   - summed whole — its length added to one slot — when every predicate
//     contains the bounds and the bin column's minimum and maximum round to
//     the same bin inside the dense window (round(a·v + b) is monotone in
//     v, so every row between does too);
//   - otherwise counted by countRows, which applies only the predicates
//     that cut the run and, when the run's bin bounds share one slot,
//     counts its survivors there without binning them. Consecutive such
//     runs go as one span, keeping what all of them share.
//
// NaN bounds fail every test and leave their run to countRows, whose
// kernels own NaN semantics; a grid misaligned to the layout, a strict
// bound or a predicate off the layout's dims only turns more runs into
// countRows spans. A table without a directory is one run that every
// predicate cuts: countRows over the whole morsel.
// [lo, hi) is a morsel range, so lo is 64-aligned as the kernels require.
func countHistogramRange(q *histQuery, acc *histAcc, lo, hi int) {
	if q.runs == nil {
		countRows(q, acc, lo, hi, 0, -1)
		return
	}
	starts := q.runs.Starts()
	walk := len(starts) - 1
	if q.onShell {
		walk = len(q.shell)
	}
	i := sort.Search(walk, func(i int) bool { return starts[q.run(i)+1] > lo })
	var skipped, summed, scanned int64
	spanLo, spanHi := 0, 0 // the pending countRows span
	var spanInside uint64
	spanSlot := -1
	for ; i < walk && starts[q.run(i)] < hi; i++ {
		k := q.run(i)
		s, e := max(starts[k], lo), min(starts[k+1], hi)
		var inside uint64 // bit j: predicate j contains the run
		cut, skip := false, false
		for j := range q.preds {
			p := &q.preds[j]
			vmin, vmax := p.runs.Bounds(k)
			if vmax < p.lo || vmin > p.hi {
				skip = true
				break
			}
			if vmin >= p.lo && vmax <= p.hi {
				inside |= 1 << j
			} else {
				cut = true
			}
		}
		if skip {
			skipped++
			continue
		}
		slot, one := q.denseSlot(q.runCols[0].Bounds(k))
		if !one {
			slot = -1
		} else if !cut {
			acc.add(slot, int64(e-s))
			summed++
			continue
		}
		scanned++
		if spanLo < spanHi && spanHi == s {
			spanHi, spanInside = e, spanInside&inside
			if slot != spanSlot {
				spanSlot = -1
			}
			continue
		}
		if spanLo < spanHi {
			countRows(q, acc, spanLo, spanHi, spanInside, spanSlot)
		}
		spanLo, spanHi, spanInside, spanSlot = s, e, inside, slot
	}
	if spanLo < spanHi {
		countRows(q, acc, spanLo, spanHi, spanInside, spanSlot)
	}
	for _, c := range q.runCols {
		c.Record(skipped, summed, scanned)
	}
	q.runs.Record(skipped + summed + scanned)
}

// countRows applies the predicates not flagged in inside (bit j set:
// predicate j holds for every row, and a predicate past the 64th is never
// flagged) and bins rows [s, e) into acc. Each predicate runs as one
// zone-mapped kernel pass over its column into the worker's selection
// bitmap (first predicate stores, the rest AND; none selects every row)
// over the whole 64-row words [s, e) touches — which stay inside the
// worker's morsel — and the words are then masked to [s, e). With slot
// >= 0 every row of [s, e) bins to that dense slot, and the survivors are
// one popcount per word; otherwise the bin column is counted a selection
// word at a time. round(a·v + b) is monotone in v, so when the bin
// column's zone minimum and maximum land in the same bin every row of the
// word does, and the word costs one popcount; a zone that spans a bin
// edge, holds a NaN (NaN != NaN) or bins outside the dense window walks
// its surviving rows one by one. When the bin column has a sketch the same
// rule has been applied per bucket (compile): a row whose bucket falls in
// one bin costs a byte read and a counter bump, and only rows of buckets
// that straddle a bin edge are decoded and rounded. Kernels leave bits
// past the row count zero in the final partial word, so the word walk
// needs no tail guard.
func countRows(q *histQuery, acc *histAcc, s, e int, inside uint64, slot int) {
	a, b := q.bin.a, q.bin.b
	r0, r1 := s&^63, min((e+63)&^63, acc.bm.Len())
	filtered := false
	for k := range q.preds {
		if inside>>k&1 != 0 {
			continue
		}
		p := &q.preds[k]
		p.enc.FilterRange(p.lo, p.hi, r0, r1, acc.bm, filtered)
		filtered = true
	}
	if !filtered {
		acc.bm.FillRange(r0, r1)
	}
	words := acc.bm.Words()
	words[r0>>6] &= ^uint64(0) << (s & 63)
	if e&63 != 0 {
		words[(e-1)>>6] &= ^uint64(0) >> (64 - e&63)
	}
	if slot >= 0 {
		var c int
		for w := r0 >> 6; w<<6 < r1; w++ {
			c += bits.OnesCount64(words[w])
		}
		acc.add(slot, int64(c))
		return
	}
	for w := r0 >> 6; w<<6 < r1; w++ {
		x := words[w]
		if x == 0 {
			continue
		}
		if slot, ok := q.denseSlot(q.binZones.Bounds(w)); ok {
			acc.add(slot, int64(bits.OnesCount64(x)))
			continue
		}
		base := w << 6
		for x != 0 {
			i := base + bits.TrailingZeros64(x)
			x &= x - 1
			if q.binCodes != nil {
				if slot := q.binSlot[q.binCodes[i]]; slot >= 0 {
					acc.add(int(slot), 1)
					continue
				}
			}
			acc.bump(int(math.Round(a*q.binValue(i) + b)))
		}
	}
}
