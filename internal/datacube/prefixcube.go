// Prefix-sum (summed-area) cube: the dense cube's counts integrated along
// every axis, so a filtered count needs only the box's 2^d corners and a
// filtered histogram one corner difference per target bin — O(bins·2^(d-1))
// instead of walking the whole filtered cell box. This is the standard
// summed-area-table decomposition imMens applies to its data tiles; for
// the 20³ crossfilter cube it turns an up-to-8000-cell walk into at most
// 8 (Count) or ~160 (Histogram) array reads per query, independent of both
// the record count and the brush size.

package datacube

import (
	"context"
	"fmt"

	"repro/internal/storage"
)

// PrefixCube is the summed-area form of a Cube. Cell (i₁..i_d) of sums
// holds the record count over bins [0, i₁) × … × [0, i_d) — an exclusive
// prefix on a (Bins+1)-per-dimension grid, so the zero boundary planes
// make every inclusion-exclusion corner a plain lookup.
type PrefixCube struct {
	dims    []Dim
	strides []int // strides over the (Bins+1)-sized prefix grid
	sums    []int64
	records int
}

// NewPrefix integrates a dense cube into its summed-area form in
// O(d · cells). The cube is not retained.
func NewPrefix(c *Cube) *PrefixCube {
	p := &PrefixCube{dims: c.dims, records: c.records}
	p.strides = make([]int, len(c.dims))
	total := 1
	for i := len(c.dims) - 1; i >= 0; i-- {
		p.strides[i] = total
		total *= c.dims[i].Bins + 1
	}
	p.sums = make([]int64, total)

	// Scatter the cube's cells to prefix coordinates shifted by one along
	// every axis, leaving the zero planes empty.
	for cell, v := range c.cells {
		if v == 0 {
			continue
		}
		idx, rest := 0, cell
		for i := range c.dims {
			b := rest / c.strides[i]
			rest %= c.strides[i]
			idx += (b + 1) * p.strides[i]
		}
		p.sums[idx] = v
	}
	// Integrate along one axis at a time. Ascending flat order guarantees
	// idx-stride is already integrated when idx needs it.
	for a := range p.dims {
		stride, size := p.strides[a], p.dims[a].Bins+1
		for idx := range p.sums {
			if (idx/stride)%size != 0 {
				p.sums[idx] += p.sums[idx-stride]
			}
		}
	}
	return p
}

// BuildPrefix builds the cube with the given parallelism and integrates it
// — the one-call construction path for serving.
func BuildPrefix(t *storage.Table, dims []Dim, parallelism int) (*PrefixCube, error) {
	return BuildPrefixCtx(nil, t, dims, parallelism)
}

// BuildPrefixCtx is BuildPrefix under a context, with BuildWithCtx's
// cancellation contract for the counting pass. (The integration pass is
// O(cells), far below one morsel of row work, and runs to completion.)
func BuildPrefixCtx(ctx context.Context, t *storage.Table, dims []Dim, parallelism int) (*PrefixCube, error) {
	c, err := BuildWithCtx(ctx, t, dims, parallelism)
	if err != nil {
		return nil, err
	}
	return NewPrefix(c), nil
}

// Sums exposes the integrated prefix grid in ascending flat order — the
// cube's entire query state. Together with the dims it fully determines
// every Count/Histogram answer, which is what makes prefix cubes snapshot
// cleanly: persist dims + records + sums, reconstruct with
// NewPrefixFromSums. The returned slice is the live grid; callers must
// treat it as read-only.
func (p *PrefixCube) Sums() []int64 { return p.sums }

// NewPrefixFromSums reconstructs a PrefixCube from a previously integrated
// prefix grid (a Sums() result, possibly mapped read-only from a snapshot
// file — queries only ever read the grid). The grid length must match the
// dims' (Bins+1)-per-dimension geometry exactly.
func NewPrefixFromSums(dims []Dim, records int, sums []int64) (*PrefixCube, error) {
	if len(dims) == 0 || len(dims) > maxHistDims {
		return nil, fmt.Errorf("datacube: %d dimensions out of range", len(dims))
	}
	p := &PrefixCube{dims: dims, records: records}
	p.strides = make([]int, len(dims))
	total := 1
	for i := len(dims) - 1; i >= 0; i-- {
		if dims[i].Bins < 1 {
			return nil, fmt.Errorf("datacube: dimension %q has %d bins", dims[i].Name, dims[i].Bins)
		}
		p.strides[i] = total
		total *= dims[i].Bins + 1
	}
	if len(sums) != total {
		return nil, fmt.Errorf("datacube: prefix grid has %d cells, dims need %d", len(sums), total)
	}
	p.sums = sums
	return p, nil
}

// NumRecords returns the number of records aggregated into the cube.
func (p *PrefixCube) NumRecords() int { return p.records }

// NumDims returns the cube's dimension count.
func (p *PrefixCube) NumDims() int { return len(p.dims) }

// Dim returns dimension i's descriptor.
func (p *PrefixCube) Dim(i int) Dim { return p.dims[i] }

// DimIndex finds a dimension by name, or -1.
func (p *PrefixCube) DimIndex(name string) int {
	for i, d := range p.dims {
		if d.Name == name {
			return i
		}
	}
	return -1
}

// binBox resolves filters to an inclusive bin box, reporting empty boxes.
// A zero-length filter slice means unfiltered, like nil; any other length
// mismatch against the dimension count is an error.
func (p *PrefixCube) binBox(filters []*Range, lo, hi []int) (empty bool, err error) {
	if len(filters) != 0 && len(filters) != len(p.dims) {
		return false, fmt.Errorf("datacube: %d filters for %d dimensions", len(filters), len(p.dims))
	}
	for i, d := range p.dims {
		lo[i], hi[i] = 0, d.Bins-1
		if len(filters) != 0 && filters[i] != nil {
			lo[i], hi[i] = d.BinRange(*filters[i])
			if lo[i] > hi[i] {
				return true, nil
			}
		}
	}
	return false, nil
}

// Count returns the number of records inside the filtered box (bin
// precision) in O(2^d) corner lookups: the box sum is the alternating sum
// of the prefix values at the box's corners.
func (p *PrefixCube) Count(filters []*Range) (int64, error) {
	var loBuf, hiBuf [maxHistDims]int
	lo, hi := loBuf[:len(p.dims)], hiBuf[:len(p.dims)]
	empty, err := p.binBox(filters, lo, hi)
	if err != nil {
		return 0, err
	}
	if empty {
		return 0, nil
	}
	var sum int64
	for mask := 0; mask < 1<<len(p.dims); mask++ {
		idx, sign := 0, int64(1)
		for i := range p.dims {
			if mask&(1<<i) != 0 {
				idx += lo[i] * p.strides[i]
				sign = -sign
			} else {
				idx += (hi[i] + 1) * p.strides[i]
			}
		}
		sum += sign * p.sums[idx]
	}
	return sum, nil
}

// NewHistograms returns one zeroed histogram per dimension, all cut from a
// single flat backing array (capacity-capped, so appending to one never
// runs into the next): the shape of every brush answer, for two allocations.
func NewHistograms(dims []Dim) [][]int64 {
	bins := 0
	for _, d := range dims {
		bins += d.Bins
	}
	backing := make([]int64, bins)
	hists := make([][]int64, len(dims))
	for i, d := range dims {
		hists[i] = backing[:d.Bins:d.Bins]
		backing = backing[d.Bins:]
	}
	return hists
}

// BrushInto is one replica's answer to a brush: every dimension's histogram
// under filters into hists (NewHistograms-shaped) plus the filtered count —
// O(bins·2^(d-1)) lookups per histogram. Answers over disjoint partitions
// merge by element-wise addition, which is what lets the local server, the
// coordinator's shard legs and the router children all answer with this one call.
func (p *PrefixCube) BrushInto(filters []*Range, hists [][]int64) (int64, error) {
	if len(hists) != len(p.dims) {
		return 0, fmt.Errorf("datacube: %d histograms for %d dimensions", len(hists), len(p.dims))
	}
	for d := range hists {
		if err := p.HistogramInto(d, filters, hists[d]); err != nil {
			return 0, err
		}
	}
	return p.Count(filters)
}

// Histogram returns dimension target's histogram under the given filters,
// allocating the result. See HistogramInto.
func (p *PrefixCube) Histogram(target int, filters []*Range) ([]int64, error) {
	if target < 0 || target >= len(p.dims) {
		return nil, fmt.Errorf("datacube: no dimension %d", target)
	}
	out := make([]int64, p.dims[target].Bins)
	if err := p.HistogramInto(target, filters, out); err != nil {
		return nil, err
	}
	return out, nil
}

// HistogramInto computes dimension target's histogram into out, zeroing it
// first. For each of the 2^(d-1) corner combinations of the non-target
// dimensions, the target axis is differenced bin by bin — adjacent prefix
// values bracket exactly one bin — so the cost is O(bins · 2^(d-1))
// regardless of the filter box's size. Results are identical to
// Cube.HistogramInto for every filter set.
func (p *PrefixCube) HistogramInto(target int, filters []*Range, out []int64) error {
	if target < 0 || target >= len(p.dims) {
		return fmt.Errorf("datacube: no dimension %d", target)
	}
	if len(out) != p.dims[target].Bins {
		return fmt.Errorf("datacube: out has %d bins, dimension %d has %d", len(out), target, p.dims[target].Bins)
	}
	for b := range out {
		out[b] = 0
	}
	var loBuf, hiBuf, othersBuf [maxHistDims]int
	lo, hi := loBuf[:len(p.dims)], hiBuf[:len(p.dims)]
	empty, err := p.binBox(filters, lo, hi)
	if err != nil {
		return err
	}
	if empty {
		return nil
	}
	others := othersBuf[:0]
	for i := range p.dims {
		if i != target {
			others = append(others, i)
		}
	}
	st := p.strides[target]
	for mask := 0; mask < 1<<len(others); mask++ {
		base, sign := 0, int64(1)
		for j, i := range others {
			if mask&(1<<j) != 0 {
				base += lo[i] * p.strides[i]
				sign = -sign
			} else {
				base += (hi[i] + 1) * p.strides[i]
			}
		}
		prev := p.sums[base+lo[target]*st]
		for b := lo[target]; b <= hi[target]; b++ {
			next := p.sums[base+(b+1)*st]
			out[b] += sign * (next - prev)
			prev = next
		}
	}
	return nil
}
