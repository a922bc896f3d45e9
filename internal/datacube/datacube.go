// Package datacube implements a dense precomputed bin cube over numeric
// dimensions — the imMens/Nanocubes family of structures the survey's
// related work credits with real-time (50 fps) brushing over billions of
// records. All dimensions are binned up front and counts are stored per
// cell, so any filtered histogram query costs O(cells), independent of the
// record count.
//
// The trade-off against crossfilter-style incremental maintenance and
// against SQL scans is the point: the cube pays a one-time build over the
// data and loses range precision to bin granularity, but answers every
// subsequent query in microseconds. The ablation benchmark quantifies all
// three.
package datacube

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/colstore"
	"repro/internal/morsel"
	"repro/internal/storage"
)

// Dim describes one cube dimension.
type Dim struct {
	Name string
	Lo   float64
	Hi   float64
	Bins int
}

// BinOf maps a value into the dimension's bins, clamping the domain edges.
func (d Dim) BinOf(v float64) int {
	if d.Hi <= d.Lo {
		return 0
	}
	b := int((v - d.Lo) / (d.Hi - d.Lo) * float64(d.Bins))
	if b < 0 {
		b = 0
	}
	if b >= d.Bins {
		b = d.Bins - 1
	}
	return b
}

// binLo returns the lower edge of bin b.
func (d Dim) binLo(b int) float64 {
	return d.Lo + (d.Hi-d.Lo)*float64(b)/float64(d.Bins)
}

// binHi returns the upper edge of bin b.
func (d Dim) binHi(b int) float64 {
	return d.Lo + (d.Hi-d.Lo)*float64(b+1)/float64(d.Bins)
}

// Cube is a dense count cube over up to a handful of dimensions. The cell
// count is the product of the dimensions' bins; keep it modest (20³ for the
// crossfilter case study).
type Cube struct {
	dims    []Dim
	strides []int
	cells   []int64
	records int
}

// maxCells bounds cube memory (8 bytes per cell).
const maxCells = 1 << 26

// maxHistDims bounds the stack-allocated index buffers of the query paths;
// a 2-bin cube hits maxCells at 26 dimensions, so 32 loses nothing.
const maxHistDims = 32

// maxParallelCells caps per-worker scratch cubes during a parallel build;
// above it (32 MB of partials per worker) the build falls back to the
// serial loop rather than multiplying memory by the worker count.
const maxParallelCells = 1 << 22

// Build constructs the cube from a table in one pass, using up to
// runtime.GOMAXPROCS(0) workers. Use BuildWith to pin the worker count
// (1 is the serial oracle the differential tests compare against).
func Build(t *storage.Table, dims []Dim) (*Cube, error) {
	return BuildWith(t, dims, runtime.GOMAXPROCS(0))
}

// BuildWith constructs the cube with an explicit parallelism level. Workers
// scan disjoint morsels of the table into private cell arrays that merge by
// int64 addition, so the cube is identical to a serial build at every
// worker count. Values below 1 mean runtime.GOMAXPROCS(0).
func BuildWith(t *storage.Table, dims []Dim, parallelism int) (*Cube, error) {
	return BuildWithCtx(nil, t, dims, parallelism)
}

// BuildWithCtx is BuildWith under a context: an expired or cancelled ctx
// aborts the build at morsel granularity, discards all partial counts, and
// returns the context's error — no partially counted cube ever escapes. A
// nil ctx is never cancelled.
func BuildWithCtx(ctx context.Context, t *storage.Table, dims []Dim, parallelism int) (*Cube, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("datacube: no dimensions")
	}
	if len(dims) > maxHistDims {
		return nil, fmt.Errorf("datacube: at most %d dimensions (got %d)", maxHistDims, len(dims))
	}
	total := 1
	for _, d := range dims {
		if d.Bins <= 0 {
			return nil, fmt.Errorf("datacube: dimension %q has %d bins", d.Name, d.Bins)
		}
		if total > maxCells/d.Bins {
			return nil, fmt.Errorf("datacube: cube exceeds %d cells", maxCells)
		}
		total *= d.Bins
	}
	binFns, err := Binners(t, dims)
	if err != nil {
		return nil, err
	}
	c := &Cube{dims: dims, cells: make([]int64, total), records: t.NumRows()}
	c.strides = make([]int, len(dims))
	stride := 1
	for i := len(dims) - 1; i >= 0; i-- {
		c.strides[i] = stride
		stride *= dims[i].Bins
	}

	n := t.NumRows()
	workers := 1
	if parallelism != 1 && n >= 2*morsel.Size && total <= maxParallelCells {
		workers = morsel.Workers(parallelism, n)
	}
	if workers <= 1 {
		err := morsel.RunCtx(ctx, n, 1, func(_, _, lo, hi int) {
			c.countRows(binFns, c.cells, lo, hi)
		})
		if err != nil {
			return nil, fmt.Errorf("datacube: build aborted: %w", err)
		}
		return c, nil
	}
	partials := make([][]int64, workers)
	for w := range partials {
		partials[w] = make([]int64, total)
	}
	err = morsel.RunCtx(ctx, n, workers, func(w, _, lo, hi int) {
		c.countRows(binFns, partials[w], lo, hi)
	})
	if err != nil {
		return nil, fmt.Errorf("datacube: build aborted: %w", err)
	}
	for _, p := range partials {
		for i, v := range p {
			c.cells[i] += v
		}
	}
	return c, nil
}

// cubeLUTCap bounds the code span a build will precompute a bin-per-code
// LUT for, mirroring crossfilter's cap.
const cubeLUTCap = 1 << 22

// Binners compiles one bin-of-row function per dimension over the table's
// numeric column of that name — the one binning definition every structure
// built from the table shares, which is what makes them interchangeable bit
// for bit. Colstore-coded columns bin through a code LUT (one decode per
// *distinct* value instead of one per row), raw float columns and frozen
// plain-float ones bin straight from their slice, and everything else
// reads through the column's Float surface.
func Binners(t *storage.Table, dims []Dim) ([]func(row int) int, error) {
	binFns := make([]func(row int) int, len(dims))
	for i, d := range dims {
		col := t.Column(d.Name)
		if col == nil || col.Type == storage.String {
			return nil, fmt.Errorf("datacube: no numeric column %q", d.Name)
		}
		if col.Enc == nil && col.Type == storage.Float64 {
			fs := col.Floats
			binFns[i] = func(row int) int { return d.BinOf(fs[row]) }
			continue
		}
		if enc, ok := colstore.Of(col); ok && t.NumRows() > 0 {
			if coded, isCoded := enc.(colstore.Coded); isCoded && coded.CodeSpan() < cubeLUTCap {
				codes := coded.Codes()
				lut := make([]int32, coded.CodeSpan()+1)
				for code := range lut {
					lut[code] = int32(d.BinOf(coded.DecodeFloat(uint64(code))))
				}
				binFns[i] = func(row int) int { return int(lut[codes.Get(row)]) }
				continue
			}
			if fs, ok := colstore.FloatSliceOf(col); ok {
				binFns[i] = func(row int) int { return d.BinOf(fs[row]) }
				continue
			}
		}
		binFns[i] = func(row int) int { return d.BinOf(col.Float(row)) }
	}
	return binFns, nil
}

// countRows bins rows [lo, hi) into cells.
func (c *Cube) countRows(binFns []func(row int) int, cells []int64, lo, hi int) {
	for row := lo; row < hi; row++ {
		idx := 0
		for i := range c.dims {
			idx += binFns[i](row) * c.strides[i]
		}
		cells[idx]++
	}
}

// NumRecords returns the number of records aggregated into the cube.
func (c *Cube) NumRecords() int { return c.records }

// NumCells returns the cube's cell count.
func (c *Cube) NumCells() int { return len(c.cells) }

// NumDims returns the cube's dimension count.
func (c *Cube) NumDims() int { return len(c.dims) }

// Dims returns a copy of every dimension's descriptor, in order.
func (c *Cube) Dims() []Dim { return append([]Dim(nil), c.dims...) }

// DimIndex finds a dimension by name, or -1.
func (c *Cube) DimIndex(name string) int {
	for i, d := range c.dims {
		if d.Name == name {
			return i
		}
	}
	return -1
}

// Range is a filter over one dimension in domain units.
type Range struct {
	Lo, Hi float64
}

// BinRange converts a domain range to an inclusive bin interval. Bins are
// included when they overlap the half-open range [Lo, Hi) at all — the
// cube's precision is bin-granular, exactly the approximation imMens
// accepts. The half-open convention pins the boundary case: a Hi landing
// exactly on bin k's lower edge stops short of bin k rather than pulling
// the whole next bin in. A degenerate range (Lo == Hi) is the width-zero
// brush and keeps the single bin under it.
func (d Dim) BinRange(r Range) (lo, hi int) {
	lo = d.BinOf(r.Lo)
	hi = d.BinOf(r.Hi)
	if hi > lo && d.binLo(hi) == r.Hi {
		hi--
	}
	return lo, hi
}

// Histogram returns dimension target's histogram under the given filters
// (nil entries mean unfiltered), aggregating over all other dimensions.
// Cost is O(cells), independent of NumRecords.
func (c *Cube) Histogram(target int, filters []*Range) ([]int64, error) {
	if target < 0 || target >= len(c.dims) {
		return nil, fmt.Errorf("datacube: no dimension %d", target)
	}
	out := make([]int64, c.dims[target].Bins)
	if err := c.HistogramInto(target, filters, out); err != nil {
		return nil, err
	}
	return out, nil
}

// HistogramInto computes dimension target's histogram into out (length
// Dim(target).Bins), zeroing it first — the allocation-free form the
// serving hot path uses.
// Length mismatches (out vs the target dimension's bins, or a non-empty
// filter slice vs the dimension count) are errors, never silent
// truncation; a zero-length filter slice is the explicit "no filters"
// state and behaves like nil.
func (c *Cube) HistogramInto(target int, filters []*Range, out []int64) error {
	if target < 0 || target >= len(c.dims) {
		return fmt.Errorf("datacube: no dimension %d", target)
	}
	if len(filters) != 0 && len(filters) != len(c.dims) {
		return fmt.Errorf("datacube: %d filters for %d dimensions", len(filters), len(c.dims))
	}
	if len(out) != c.dims[target].Bins {
		return fmt.Errorf("datacube: out has %d bins, dimension %d has %d", len(out), target, c.dims[target].Bins)
	}
	for b := range out {
		out[b] = 0
	}
	var lo, hi [maxHistDims]int
	for i, d := range c.dims {
		lo[i], hi[i] = 0, d.Bins-1
		if len(filters) != 0 && filters[i] != nil {
			lo[i], hi[i] = d.BinRange(*filters[i])
			if lo[i] > hi[i] {
				return nil
			}
		}
	}
	var idxBuf [maxHistDims]int
	idx := idxBuf[:len(c.dims)]
	for i := range idx {
		idx[i] = lo[i]
	}
	for {
		cell := 0
		for i := range idx {
			cell += idx[i] * c.strides[i]
		}
		out[idx[target]] += c.cells[cell]
		// Odometer increment over the filtered box.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] <= hi[i] {
				break
			}
			idx[i] = lo[i]
		}
		if i < 0 {
			break
		}
	}
	return nil
}

// Count returns the number of records inside the filtered box (bin
// precision).
func (c *Cube) Count(filters []*Range) (int64, error) {
	h, err := c.Histogram(0, filters)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, v := range h {
		sum += v
	}
	return sum, nil
}
