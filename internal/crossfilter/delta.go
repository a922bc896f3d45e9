// Sorted-index delta scans: the crossfilter.js technique for making a
// brush drag cost O(Δ log n) instead of O(n).
//
// Each dimension keeps a one-time permutation of record indexes sorted by
// value. A range filter then corresponds to a contiguous window of sorted
// positions, found by binary search; when the filter moves, the records
// whose membership changed are exactly the symmetric difference of the old
// and new windows — at most two contiguous position segments. A drag step
// moves one brush edge a few pixels, so the delta is tiny relative to the
// record count and the update never looks at the rest of the data.
//
// Past a crossover fraction of the record count the full morsel-parallel
// scan (applyFilter) is cheaper than chasing the permutation's scattered
// record indexes through memory, so large jumps — page-wide brushes,
// filter clears — fall back to it. Both paths reconcile records through
// the same flipRecord body, and the differential tests in delta_test.go
// prove them byte-identical over randomized brush sequences.

package crossfilter

import (
	"context"
	"math"
	"sort"

	"repro/internal/morsel"
)

// DefaultCrossover is the delta fraction of the record count above which
// SetFilter abandons the delta scan for the full scan. Sequential scans
// run ~4× faster per record than permuted access, so the break-even sits
// near 1/4.
const DefaultCrossover = 0.25

// SetIncremental enables or disables the sorted-index delta path. false
// pins the full-scan implementation — the differential-test oracle and the
// ablation baseline. Not safe to call concurrently with filter updates.
func (c *Crossfilter) SetIncremental(on bool) { c.incremental = on }

// SetCrossover sets the delta fraction above which filter updates fall
// back to the full scan. Values outside (0, 1] keep the current setting.
func (c *Crossfilter) SetCrossover(frac float64) {
	if frac > 0 && frac <= 1 {
		c.crossover = frac
	}
}

// ScanStats reports how many filter updates took the delta path versus the
// full scan, for tests and the ablation benchmark.
func (c *Crossfilter) ScanStats() (delta, full int64) { return c.deltaScans, c.fullScans }

// buildIndex constructs the dimension's sorted permutation. Dimensions
// containing NaN values get no index (NaN has no sorted position) and pin
// the full-scan path.
func (d *Dimension) buildIndex(n int) {
	for _, v := range d.values {
		if math.IsNaN(v) {
			d.hasNaN = true
			return
		}
	}
	d.order = make([]int32, n)
	for i := range d.order {
		d.order[i] = int32(i)
	}
	sort.Slice(d.order, func(a, b int) bool { return d.values[d.order[a]] < d.values[d.order[b]] })
	d.sorted = make([]float64, n)
	for p, i := range d.order {
		d.sorted[p] = d.values[i]
	}
	d.winLo, d.winHi = 0, n
}

// buildCodeIndex constructs the sorted permutation of a code-space
// dimension by counting sort over the packed codes: codes are
// order-preserving, so grouping records by ascending code orders them by
// ascending value, and the per-code prefix positions replace the
// sorted-values array — window lookups become two offset reads instead of
// two binary searches over 8 bytes/record. (Records tied on value may land
// at different positions than sort.Slice would put them, which is
// immaterial: every window boundary is a value threshold, so the *set* of
// records in any window is identical.)
func (d *Dimension) buildCodeIndex(n int) {
	card := len(d.binLUT)
	offsets := make([]int32, card+1)
	for i := 0; i < n; i++ {
		offsets[d.codes.Get(i)+1]++
	}
	for c := 1; c <= card; c++ {
		offsets[c] += offsets[c-1]
	}
	d.offsets = offsets
	next := make([]int32, card)
	copy(next, offsets[:card])
	d.order = make([]int32, n)
	for i := 0; i < n; i++ {
		c := d.codes.Get(i)
		d.order[next[c]] = int32(i)
		next[c]++
	}
	d.winLo, d.winHi = 0, n
}

// window returns the sorted position range passing the dimension's current
// filter. Ties at the boundaries fall on the correct side because the
// window is defined purely by value thresholds.
func (d *Dimension) window(n int) (lo, hi int) {
	if !d.active {
		return 0, n
	}
	if d.empty || (d.coded != nil && d.codeEmpty) {
		// Any empty interval is correct for a match-nothing filter;
		// anchoring it at the old window's lower edge minimizes the delta.
		return d.winLo, d.winLo
	}
	if d.coded != nil {
		// Codes ascend with values and offsets[c] is the first sorted
		// position of code c, so the passing window is two offset reads.
		return int(d.offsets[d.cLo]), int(d.offsets[d.cHi+1])
	}
	lo = sort.SearchFloat64s(d.sorted, d.filterLo)
	hi = sort.Search(n, func(p int) bool { return d.sorted[p] > d.filterHi })
	return lo, hi
}

// updateFilter reconciles every record's fail bit for dimension d with the
// dimension's just-updated filter state, choosing between the sorted-index
// delta scan and the full scan. A cancelled ctx aborts the scan at morsel
// granularity, marks the crossfilter dirty (the delta window has already
// moved, so a partial scan cannot be resumed), and returns the ctx error;
// the next update repairs with a full rebuild before applying itself.
func (c *Crossfilter) updateFilter(ctx context.Context, d int, bit uint32) error {
	dim := c.dims[d]
	hasIndex := !dim.hasNaN && dim.order != nil
	var oldLo, oldHi int
	if hasIndex {
		oldLo, oldHi = dim.winLo, dim.winHi
		dim.winLo, dim.winHi = dim.window(c.n)
	}
	if c.dirty {
		// A previous cancelled scan left masks and counts inconsistent; a
		// full rebuild from the dimensions' current filter state (which
		// already includes this update) repairs everything at once.
		c.fullScans++
		if err := c.recomputeAllCtx(ctx); err != nil {
			return err
		}
		c.dirty = false
		return nil
	}
	if !hasIndex || !c.incremental {
		return c.runFull(ctx, d, bit)
	}
	newLo, newHi := dim.winLo, dim.winHi

	// The records whose membership changed are the symmetric difference of
	// the old and new passing windows: the span between the two lower edges
	// plus the span between the two upper edges, merged when they meet.
	// (Overlap would double-visit records, and concurrent workers may not
	// share a record even for an idempotent reconcile.)
	a1, b1 := min(oldLo, newLo), max(oldLo, newLo)
	a2, b2 := min(oldHi, newHi), max(oldHi, newHi)
	var segs [2][2]int
	nseg := 0
	if b1 >= a2 {
		if lo, hi := a1, max(b1, b2); hi > lo {
			segs[0] = [2]int{lo, hi}
			nseg = 1
		}
	} else {
		if b1 > a1 {
			segs[nseg] = [2]int{a1, b1}
			nseg++
		}
		if b2 > a2 {
			segs[nseg] = [2]int{a2, b2}
			nseg++
		}
	}
	total := 0
	for s := 0; s < nseg; s++ {
		total += segs[s][1] - segs[s][0]
	}
	if float64(total) > c.crossover*float64(c.n) {
		return c.runFull(ctx, d, bit)
	}
	c.deltaScans++
	if total == 0 {
		return ctxDone(ctx)
	}
	if err := c.applyDelta(ctx, d, bit, segs[:nseg], total); err != nil {
		c.dirty = true
		return err
	}
	return nil
}

// runFull routes an update through the full scan, marking the crossfilter
// dirty on cancellation.
func (c *Crossfilter) runFull(ctx context.Context, d int, bit uint32) error {
	c.fullScans++
	if err := c.applyFilter(ctx, d, bit); err != nil {
		c.dirty = true
		return err
	}
	return nil
}

// ctxDone returns ctx.Err() for non-nil contexts; nil contexts never cancel.
func ctxDone(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// applyDelta reconciles only the records at the given sorted positions.
// Workers own disjoint position ranges of the disjoint segments, hence
// disjoint records — the same ownership discipline as the full scan — and
// accumulate int64 deltas that merge exactly, so the result is identical
// at every worker count. Small deltas (the drag case) run inline with zero
// scheduling overhead. A cancelled ctx aborts between morsels; the caller
// marks the crossfilter dirty.
func (c *Crossfilter) applyDelta(ctx context.Context, d int, bit uint32, segs [][2]int, total int) error {
	dim := c.dims[d]
	workers := 1
	if c.parallelism > 1 && total >= 2*morsel.Size {
		workers = morsel.Workers(c.parallelism, total)
	}
	offs := c.histOffsets()
	totals := make([]int64, workers)
	deltas := make([][]int64, workers)
	for w := range deltas {
		deltas[w] = make([]int64, offs[len(c.dims)])
	}

	seg0lo := segs[0][0]
	seg0len := segs[0][1] - seg0lo
	err := morsel.RunCtx(ctx, total, workers, func(w, _, flo, fhi int) {
		c.scanRecords.Add(int64(fhi - flo))
		delta := deltas[w]
		for f := flo; f < fhi; f++ {
			p := seg0lo + f
			if f >= seg0len {
				p = segs[1][0] + (f - seg0len)
			}
			c.flipRecord(int(dim.order[p]), d, bit, &totals[w], delta, offs)
		}
	})
	if err != nil {
		return err
	}

	c.mergeDeltas(offs, totals, deltas)
	return nil
}
