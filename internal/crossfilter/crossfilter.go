// Package crossfilter implements a coordinated-view filtering engine over
// numeric dimensions — the stand-in for the crossfilter.js library the
// paper's second case study builds its brushing-and-linking interface on.
//
// Semantics follow crossfilter.js: each dimension owns one range filter,
// and each dimension's histogram reflects the filters of every *other*
// dimension (so the user sees, while brushing dimension k, how the brush
// reshapes the remaining views). Filter updates are incremental: only
// records whose filter membership changed are reprocessed, which is what
// lets the real library sustain sub-30 ms updates over ~10⁶ records.
package crossfilter

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/colstore"
	"repro/internal/morsel"
	"repro/internal/storage"
)

// DefaultBins matches the paper's 20-bin histograms.
const DefaultBins = 20

// Dimension is one filterable numeric attribute.
type Dimension struct {
	Name string
	Lo   float64 // domain minimum
	Hi   float64 // domain maximum
	Bins int

	values   []float64
	bins     []int32 // precomputed bin per record
	filterLo float64
	filterHi float64
	active   bool
	empty    bool // filter normalized to match-nothing (NaN or inverted bounds)

	// Code-space state: when the backing column is colstore-encoded with
	// order-preserving codes of manageable span, the dimension runs on the
	// column's packed codes directly — values and bins stay nil (saving
	// 12 bytes/record), the filter translates once per update into the code
	// interval [cLo, cHi], per-record work becomes a packed read plus a LUT
	// lookup, and the sorted permutation comes from a counting sort whose
	// per-code prefix positions (offsets) replace the sorted-values array
	// (another 8 bytes/record) for window binary searches.
	coded     colstore.Coded
	codes     *colstore.PackedInts
	binLUT    []int32 // histogram bin per code
	offsets   []int32 // len card+1: sorted positions of code c are [offsets[c], offsets[c+1])
	cLo, cHi  uint64
	codeEmpty bool // active filter's range contains no code's value

	// Sorted-index delta state (delta.go): order is the permutation of
	// record indexes sorted by value, sorted holds the values in that order
	// (for cache-friendly binary search), and [winLo, winHi) is the sorted
	// position range currently passing this dimension's filter. hasNaN
	// disables the delta path — NaN has no position in a sorted order.
	order  []int32
	sorted []float64
	winLo  int
	winHi  int
	hasNaN bool
}

// codeLUTCap bounds the code span a dimension will build per-code tables
// for (bin LUT, prefix offsets): 1<<22 codes ≈ 16 MB of int32 LUT, far past
// any dictionary Freeze builds and most frame-of-reference spans.
const codeLUTCap = 1 << 22

// Coded reports whether the dimension runs in code space.
func (d *Dimension) Coded() bool { return d.coded != nil }

// Filtered reports whether the dimension has an active range filter.
func (d *Dimension) Filtered() bool { return d.active }

// fails reports whether a value fails the dimension's current filter. An
// empty filter (inverted or NaN bounds) fails every record; NaN *values*
// keep their historical pass-always behavior — they have no place in a
// sorted order, so dimensions containing them pin the full-scan path.
func (d *Dimension) fails(v float64) bool {
	if !d.active {
		return false
	}
	if d.empty {
		return true
	}
	return v < d.filterLo || v > d.filterHi
}

// failRecord reports whether record i fails the dimension's current filter
// — the per-record form of fails, reading the packed code in code-space
// mode (where the filter is a code interval, compared branchlessly) and the
// materialized value otherwise. Code-space dimensions never contain NaN
// (Freeze keeps NaN-containing columns Plain), so the two forms agree
// exactly.
func (d *Dimension) failRecord(i int) bool {
	if !d.active {
		return false
	}
	if d.empty {
		return true
	}
	if d.coded != nil {
		if d.codeEmpty {
			return true
		}
		c := d.codes.Get(i)
		return c-d.cLo > d.cHi-d.cLo // unsigned wrap: true for c < cLo too
	}
	v := d.values[i]
	return v < d.filterLo || v > d.filterHi
}

// binRecord returns record i's histogram bin: a code LUT lookup in
// code-space mode, the precomputed per-record bin otherwise.
func (d *Dimension) binRecord(i int) int32 {
	if d.binLUT != nil {
		return d.binLUT[d.codes.Get(i)]
	}
	return d.bins[i]
}

// BinOf returns the histogram bin of a value in this dimension's domain.
func (d *Dimension) BinOf(v float64) int {
	if d.Hi <= d.Lo {
		return 0
	}
	b := int(math.Floor((v - d.Lo) / (d.Hi - d.Lo) * float64(d.Bins)))
	if b < 0 {
		b = 0
	}
	if b >= d.Bins {
		b = d.Bins - 1
	}
	return b
}

// Crossfilter coordinates filters and histograms across dimensions.
type Crossfilter struct {
	dims  []*Dimension
	n     int
	masks []uint32  // bit d set ⇒ record fails dimension d's filter
	hists [][]int64 // hists[d][bin]: records passing all filters except d's
	total int64     // records passing all filters

	// parallelism is the worker count for morsel-parallel filter updates
	// and rebuilds; 1 pins the serial path. Updates are deterministic at
	// every level: each record's mask is owned by exactly one worker, and
	// the histogram/total deltas are int64 counts whose merge is exact in
	// any order.
	parallelism int

	// incremental enables the sorted-index delta path (delta.go); false
	// pins the full-scan implementation, the differential-test oracle.
	// crossover is the delta fraction above which the full scan wins.
	incremental bool
	crossover   float64
	deltaScans  int64
	fullScans   int64

	// dirty is set when a cancelled context aborted a scan mid-update:
	// masks, histograms, and total are then mutually inconsistent (a delta
	// window cannot be resumed — it was advanced before the scan ran). The
	// next filter update repairs by full rebuild before doing anything else.
	dirty bool

	// scanRecords counts records visited by filter-update scans, bumped once
	// per morsel (atomic: workers run concurrently). Tests use it to assert
	// that cancellation stops scan work within one morsel per worker.
	scanRecords atomic.Int64
}

// SetParallelism sets the worker count for filter updates and rebuilds.
// 1 selects the serial path (the differential-test oracle); values below 1
// are clamped to runtime.GOMAXPROCS(0). Not safe to call concurrently with
// SetFilter/ClearFilter.
func (c *Crossfilter) SetParallelism(p int) {
	if p < 1 {
		p = runtime.GOMAXPROCS(0)
	}
	c.parallelism = p
}

// Parallelism returns the configured worker count.
func (c *Crossfilter) Parallelism() int { return c.parallelism }

// workers returns the effective worker count for the record count, forcing
// the serial path below two morsels.
func (c *Crossfilter) workers() int {
	if c.parallelism <= 1 || c.n < 2*morsel.Size {
		return 1
	}
	return morsel.Workers(c.parallelism, c.n)
}

// DimSpec pins one dimension's domain explicitly. Shard replicas use it:
// every shard must bin against the *global* [Lo, Hi], not its partition's
// local min/max, or per-shard histograms stop being addable.
type DimSpec struct {
	Name   string
	Lo, Hi float64
}

// New builds a crossfilter over the named numeric columns of the table,
// with the given histogram bin count (0 means DefaultBins). Domains are
// taken from each column's min/max.
func New(table *storage.Table, dimNames []string, bins int) (*Crossfilter, error) {
	specs := make([]DimSpec, len(dimNames))
	for i, name := range dimNames {
		lo, hi, _ := table.MinMax(name)
		specs[i] = DimSpec{Name: name, Lo: lo, Hi: hi}
	}
	return NewWithBounds(table, specs, bins)
}

// NewWithBounds builds a crossfilter with explicit per-dimension domains.
// Identical to New except the bin edges come from the specs, which is what
// keeps histograms of disjoint partitions of one table merge-compatible.
func NewWithBounds(table *storage.Table, specs []DimSpec, bins int) (*Crossfilter, error) {
	if bins <= 0 {
		bins = DefaultBins
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("crossfilter: no dimensions")
	}
	if len(specs) > 32 {
		return nil, fmt.Errorf("crossfilter: at most 32 dimensions (got %d)", len(specs))
	}
	n := table.NumRows()
	c := &Crossfilter{
		n: n, masks: make([]uint32, n),
		parallelism: runtime.GOMAXPROCS(0),
		incremental: true, crossover: DefaultCrossover,
	}
	for _, spec := range specs {
		name := spec.Name
		col := table.Column(name)
		if col == nil {
			return nil, fmt.Errorf("crossfilter: no column %q in table %q", name, table.Name)
		}
		if col.Type == storage.String {
			return nil, fmt.Errorf("crossfilter: column %q is not numeric", name)
		}
		d := &Dimension{Name: name, Lo: spec.Lo, Hi: spec.Hi, Bins: bins}
		if enc, ok := colstore.Of(col); ok && n > 0 {
			if coded, isCoded := enc.(colstore.Coded); isCoded && coded.CodeSpan() < codeLUTCap {
				// Code-space mode: share the column's packed codes, bin once
				// per code, and counting-sort the delta permutation.
				d.coded = coded
				d.codes = coded.Codes()
				card := int(coded.CodeSpan()) + 1
				d.binLUT = make([]int32, card)
				for code := 0; code < card; code++ {
					d.binLUT[code] = int32(d.BinOf(coded.DecodeFloat(uint64(code))))
				}
				d.buildCodeIndex(n)
				c.dims = append(c.dims, d)
				continue
			}
		}
		d.bins = make([]int32, n)
		if fs, ok := colstore.FloatSliceOf(col); ok {
			// Plain-float passthrough: borrow the slice instead of copying
			// 8 bytes/record.
			d.values = fs
			morsel.Run(n, c.workers(), func(_, _, lo, hi int) {
				for i := lo; i < hi; i++ {
					d.bins[i] = int32(d.BinOf(d.values[i]))
				}
			})
		} else {
			d.values = make([]float64, n)
			// Each slot is computed independently from the column, so workers
			// writing disjoint ranges produce the exact serial result.
			morsel.Run(n, c.workers(), func(_, _, lo, hi int) {
				for i := lo; i < hi; i++ {
					v := col.Float(i)
					d.values[i] = v
					d.bins[i] = int32(d.BinOf(v))
				}
			})
		}
		d.buildIndex(n)
		c.dims = append(c.dims, d)
	}
	c.hists = make([][]int64, len(c.dims))
	for i := range c.hists {
		c.hists[i] = make([]int64, bins)
	}
	c.recomputeAll()
	return c, nil
}

// NumRecords returns the record count.
func (c *Crossfilter) NumRecords() int { return c.n }

// NumDims returns the dimension count.
func (c *Crossfilter) NumDims() int { return len(c.dims) }

// Dim returns dimension d.
func (c *Crossfilter) Dim(d int) *Dimension { return c.dims[d] }

// DimIndex returns the index of the named dimension, or -1.
func (c *Crossfilter) DimIndex(name string) int {
	for i, d := range c.dims {
		if d.Name == name {
			return i
		}
	}
	return -1
}

// Total returns the number of records passing every active filter (the
// paper's count aggregation).
func (c *Crossfilter) Total() int64 { return c.total }

// Histogram returns dimension d's histogram: counts of records passing all
// *other* dimensions' filters, binned by d's value. The returned slice is
// a copy.
func (c *Crossfilter) Histogram(d int) []int64 {
	out := make([]int64, len(c.hists[d]))
	copy(out, c.hists[d])
	return out
}

// Histograms returns all histograms (copies), indexed by dimension.
func (c *Crossfilter) Histograms() [][]int64 {
	out := make([][]int64, len(c.dims))
	for d := range c.dims {
		out[d] = c.Histogram(d)
	}
	return out
}

// SetFilter sets dimension d's range filter to [lo, hi] and updates every
// histogram incrementally. With the delta path enabled only the records
// between the old and new filter boundaries (found by binary search into
// the dimension's sorted order) are touched — O(Δ log n) per drag step —
// falling back to the full scan past the crossover fraction.
//
// Inverted (lo > hi) or NaN bounds cannot match any record: they are
// normalized to an empty filter rather than the pass-all state a NaN
// comparison would silently yield.
func (c *Crossfilter) SetFilter(d int, lo, hi float64) {
	_ = c.SetFilterCtx(nil, d, lo, hi)
}

// SetFilterCtx is SetFilter under a context: an expired or cancelled ctx
// aborts the update's scan at morsel granularity and returns the context's
// error. After a cancelled update the crossfilter's counts are inconsistent
// (Dirty reports true) until the next successful filter update, which
// repairs them with a full rebuild before applying itself. A nil ctx is
// never cancelled and behaves exactly like SetFilter.
func (c *Crossfilter) SetFilterCtx(ctx context.Context, d int, lo, hi float64) error {
	dim := c.dims[d]
	bit := uint32(1) << uint(d)
	dim.filterLo, dim.filterHi, dim.active = lo, hi, true
	dim.empty = math.IsNaN(lo) || math.IsNaN(hi) || lo > hi
	if dim.coded != nil && !dim.empty {
		// Translate the value range into code space once; every record then
		// compares its packed code against [cLo, cHi].
		var ok bool
		dim.cLo, dim.cHi, ok = dim.coded.CodeRange(lo, hi)
		dim.codeEmpty = !ok
	}
	return c.updateFilter(ctx, d, bit)
}

// ClearFilter removes dimension d's filter.
func (c *Crossfilter) ClearFilter(d int) {
	_ = c.ClearFilterCtx(nil, d)
}

// ClearFilterCtx is ClearFilter under a context, with the same cancellation
// contract as SetFilterCtx.
func (c *Crossfilter) ClearFilterCtx(ctx context.Context, d int) error {
	dim := c.dims[d]
	bit := uint32(1) << uint(d)
	dim.active, dim.empty, dim.codeEmpty = false, false, false
	return c.updateFilter(ctx, d, bit)
}

// Dirty reports whether a cancelled update left the counts inconsistent.
// The next successful filter update (or RepairCtx) clears it.
func (c *Crossfilter) Dirty() bool { return c.dirty }

// RepairCtx rebuilds every count from scratch if a cancelled update left
// them inconsistent. A no-op when clean.
func (c *Crossfilter) RepairCtx(ctx context.Context) error {
	if !c.dirty {
		return nil
	}
	c.fullScans++
	if err := c.recomputeAllCtx(ctx); err != nil {
		return err
	}
	c.dirty = false
	return nil
}

// ScanRecords returns the cumulative number of records visited by filter
// updates and rebuilds, maintained at morsel granularity.
func (c *Crossfilter) ScanRecords() int64 { return c.scanRecords.Load() }

// applyFilter recomputes dimension d's fail bit for every record, applying
// histogram deltas for records that changed — the full-scan path, and the
// oracle the delta scan is differentially tested against.
//
// The scan is morsel-parallel: each worker owns disjoint records (masks
// write in place) and accumulates its histogram and total changes into
// private int64 delta buffers, merged exactly after the scan. Results are
// identical to the serial path at every worker count. A cancelled ctx
// aborts between morsels; masks already flipped stay flipped, so the caller
// must mark the crossfilter dirty.
func (c *Crossfilter) applyFilter(ctx context.Context, d int, bit uint32) error {
	workers := c.workers()
	offs := c.histOffsets()
	totals := make([]int64, workers)
	deltas := make([][]int64, workers)
	for w := range deltas {
		deltas[w] = make([]int64, offs[len(c.dims)])
	}

	err := morsel.RunCtx(ctx, c.n, workers, func(w, _, lo, hi int) {
		c.scanRecords.Add(int64(hi - lo))
		delta := deltas[w]
		for i := lo; i < hi; i++ {
			c.flipRecord(i, d, bit, &totals[w], delta, offs)
		}
	})
	if err != nil {
		return err
	}

	c.mergeDeltas(offs, totals, deltas)
	return nil
}

// flipRecord reconciles record i's fail bit for dimension d against the
// dimension's current filter, accumulating total and histogram deltas.
// Shared by the full scan and the sorted-index delta scan so the two paths
// cannot drift.
func (c *Crossfilter) flipRecord(i, d int, bit uint32, total *int64, delta []int64, offs []int) {
	dim := c.dims[d]
	oldFail := c.masks[i]&bit != 0
	newFail := dim.failRecord(i)
	if oldFail == newFail {
		return
	}
	oldMask := c.masks[i]
	var newMask uint32
	if newFail {
		newMask = oldMask | bit
	} else {
		newMask = oldMask &^ bit
	}
	c.masks[i] = newMask

	// Total: passes all filters.
	if oldMask == 0 {
		*total--
	}
	if newMask == 0 {
		*total++
	}
	// Histograms: record contributes to hist[k] iff it passes all filters
	// except k's. Flipping bit d changes contribution for every k whose
	// remaining mask is affected.
	for k, kd := range c.dims {
		kbit := uint32(1) << uint(k)
		oldIn := oldMask&^kbit == 0
		newIn := newMask&^kbit == 0
		if oldIn == newIn {
			continue
		}
		b := kd.binRecord(i)
		if newIn {
			delta[offs[k]+int(b)]++
		} else {
			delta[offs[k]+int(b)]--
		}
	}
}

// histOffsets flattens the per-dimension histograms into one delta buffer
// layout: dimension k's bins occupy [offs[k], offs[k+1]).
func (c *Crossfilter) histOffsets() []int {
	offs := make([]int, len(c.dims)+1)
	for k := range c.dims {
		offs[k+1] = offs[k] + len(c.hists[k])
	}
	return offs
}

// mergeDeltas folds per-worker totals and histogram deltas into the live
// counters. Integer addition commutes, so the merge is exact regardless of
// worker scheduling.
func (c *Crossfilter) mergeDeltas(offs []int, totals []int64, deltas [][]int64) {
	for _, t := range totals {
		c.total += t
	}
	for _, delta := range deltas {
		for k := range c.dims {
			h := c.hists[k]
			for b := range h {
				h[b] += delta[offs[k]+b]
			}
		}
	}
}

// recomputeAll rebuilds every histogram and the total from scratch. Used at
// construction and exposed (via RecomputeAll) as the non-incremental
// baseline for the ablation benchmark. Morsel-parallel like applyFilter:
// per-worker count deltas merge exactly, so the rebuild matches the serial
// path at every worker count.
func (c *Crossfilter) recomputeAll() { _ = c.recomputeAllCtx(nil) }

// recomputeAllCtx is recomputeAll under a context. It recomputes every mask
// from the dimensions' current filter state, so it both rebuilds and repairs
// — a partially applied cancelled update does not confuse it. On
// cancellation it returns the ctx error and the structure stays (or
// becomes) inconsistent; the caller keeps it marked dirty.
func (c *Crossfilter) recomputeAllCtx(ctx context.Context) error {
	workers := c.workers()
	offs := c.histOffsets()
	totals := make([]int64, workers)
	deltas := make([][]int64, workers)
	for w := range deltas {
		deltas[w] = make([]int64, offs[len(c.dims)])
	}

	err := morsel.RunCtx(ctx, c.n, workers, func(w, _, lo, hi int) {
		c.scanRecords.Add(int64(hi - lo))
		delta := deltas[w]
		for i := lo; i < hi; i++ {
			var mask uint32
			for d, dim := range c.dims {
				if dim.failRecord(i) {
					mask |= 1 << uint(d)
				}
			}
			c.masks[i] = mask
			if mask == 0 {
				totals[w]++
			}
			for d, dim := range c.dims {
				if mask&^(1<<uint(d)) == 0 {
					delta[offs[d]+int(dim.binRecord(i))]++
				}
			}
		}
	})
	if err != nil {
		c.dirty = true
		return err
	}

	c.total = 0
	for d := range c.hists {
		for b := range c.hists[d] {
			c.hists[d][b] = 0
		}
	}
	c.mergeDeltas(offs, totals, deltas)
	return nil
}

// RecomputeAll performs a full non-incremental rebuild with the current
// filters. Results are identical to the incremental path; it exists to
// quantify the cost of not being incremental.
func (c *Crossfilter) RecomputeAll() { c.recomputeAll() }
