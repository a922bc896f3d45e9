// Materialized per-selection indexes: the structure the planner builds for
// hot drag templates. A template fixes which dimension is moving and the
// bin boxes of every other (fixed) filter; within it, only the moved
// dimension's predicate window changes. The index pre-aggregates the
// backing table along the moved axis so that every query matching the
// template — any position of the moving window — is answered in
// O(Σ bins) array reads, with results bit-identical to the prefix cube's.
//
// Layout, for moved dimension m with B_m bins over d dimensions:
//
//   - passAll[b]: records in moved-bin b passing every fixed filter. The
//     moved dimension's own histogram is this vector masked to its box.
//   - prefAll[i]: exclusive prefix sums of passAll, so the filtered total
//     is prefAll[hi+1] - prefAll[lo].
//   - per view dimension v ≠ m, view[v] is a (B_m+1) × B_v matrix,
//     prefix-summed along the moved axis, of records passing every fixed
//     filter *except v's own* (crossfilter-style exclusion is not wanted
//     here — v's own filter is applied afterwards by masking the result to
//     v's box, exactly how the cube family treats the target dimension).
//     hist[v][b] = view[v][hi+1][b] - view[v][lo][b] inside v's box.
//
// One 3-dim 20-bin template costs ~7 KB; the planner's byte-budgeted store
// bounds how many coexist.

package planner

import (
	"context"
	"fmt"

	"repro/internal/datacube"
	"repro/internal/morsel"
	"repro/internal/storage"
)

// TemplateIndex is one materialized template. Immutable once built; safe for
// concurrent readers.
type TemplateIndex struct {
	dims  []datacube.Dim
	moved int
	// fixedLo/fixedHi are the template's fixed-filter bin boxes; the moved
	// dimension's entry is the full bin range (its box is per-query).
	fixedLo, fixedHi []int

	passAll []int64   // len Bins(moved)
	prefAll []int64   // len Bins(moved)+1
	views   [][]int64 // per dim: nil for moved, else (B_m+1)*B_v prefix matrix
}

// TemplateOf derives the template identity of a brush snapshot: the moved
// dimension plus the bin boxes of every fixed filter. ok is false when
// moved is out of range — a malformed request has no template. The moved
// dimension's own range is excluded from identity (it is the part that
// moves), so every step of a drag maps to one template.
func TemplateOf(dims []datacube.Dim, moved int, filters []*datacube.Range) (lo, hi []int, ok bool) {
	if moved < 0 || moved >= len(dims) || len(filters) != len(dims) {
		return nil, nil, false
	}
	lo = make([]int, len(dims))
	hi = make([]int, len(dims))
	for i, d := range dims {
		lo[i], hi[i] = 0, d.Bins-1
		if i != moved && filters[i] != nil {
			lo[i], hi[i] = d.BinRange(*filters[i])
		}
	}
	lo[moved], hi[moved] = 0, dims[moved].Bins-1
	return lo, hi, true
}

// BuildTemplateIndex scans the backing table once, morsel-parallel, and
// assembles the template's index. binFns is one bin-of-row function per
// dimension (datacube.Binners). Workers accumulate into
// private partials merged by addition, so the index is identical at every
// parallelism level. A cancelled ctx aborts at morsel granularity.
func BuildTemplateIndex(ctx context.Context, tbl *storage.Table, dims []datacube.Dim, moved int,
	fixedLo, fixedHi []int, binFns []func(row int) int, parallelism int) (*TemplateIndex, error) {
	if moved < 0 || moved >= len(dims) {
		return nil, fmt.Errorf("planner: moved dimension %d of %d", moved, len(dims))
	}
	nd := len(dims)
	bm := dims[moved].Bins
	idx := &TemplateIndex{
		dims:    dims,
		moved:   moved,
		fixedLo: append([]int(nil), fixedLo...),
		fixedHi: append([]int(nil), fixedHi...),
		passAll: make([]int64, bm),
		views:   make([][]int64, nd),
	}
	viewLen := make([]int, nd)
	for v := 0; v < nd; v++ {
		if v != moved {
			viewLen[v] = (bm + 1) * dims[v].Bins
			idx.views[v] = make([]int64, viewLen[v])
		}
	}

	n := tbl.NumRows()
	workers := 1
	if parallelism != 1 && n >= 2*morsel.Size {
		workers = morsel.Workers(parallelism, n)
	}
	passParts := make([][]int64, workers)
	viewParts := make([][][]int64, workers)
	for w := 0; w < workers; w++ {
		if w == 0 {
			passParts[0] = idx.passAll
			viewParts[0] = idx.views
			continue
		}
		passParts[w] = make([]int64, bm)
		vp := make([][]int64, nd)
		for v := 0; v < nd; v++ {
			if v != moved {
				vp[v] = make([]int64, viewLen[v])
			}
		}
		viewParts[w] = vp
	}

	err := morsel.RunCtx(ctx, n, workers, func(w, _, lo, hi int) {
		idx.countRows(binFns, passParts[w], viewParts[w], lo, hi)
	})
	if err != nil {
		return nil, fmt.Errorf("planner: index build aborted: %w", err)
	}
	for w := 1; w < workers; w++ {
		for b, v := range passParts[w] {
			idx.passAll[b] += v
		}
		for vd := 0; vd < nd; vd++ {
			if vd == moved {
				continue
			}
			dst := idx.views[vd]
			for i, v := range viewParts[w][vd] {
				dst[i] += v
			}
		}
	}

	// Prefix-sum along the moved axis: row i of each view becomes the
	// count over moved bins [0, i), so a moved box [lo, hi] is one row
	// difference.
	idx.prefAll = make([]int64, bm+1)
	for b := 0; b < bm; b++ {
		idx.prefAll[b+1] = idx.prefAll[b] + idx.passAll[b]
	}
	for vd := 0; vd < nd; vd++ {
		if vd == moved {
			continue
		}
		bv := dims[vd].Bins
		m := idx.views[vd]
		// Rows were scattered at moved-bin+1; integrate downward.
		for row := 1; row <= bm; row++ {
			base, prev := row*bv, (row-1)*bv
			for b := 0; b < bv; b++ {
				m[base+b] += m[prev+b]
			}
		}
	}
	return idx, nil
}

// countRows bins rows [lo, hi) into the worker's partials. A row enters
// passAll (and every view) when all fixed filters pass, and enters view v
// alone when v's fixed filter is the only failure — the
// all-filters-but-v's-own count the view needs.
func (x *TemplateIndex) countRows(binFns []func(row int) int, passAll []int64, views [][]int64, lo, hi int) {
	nd := len(x.dims)
	var bins [32]int
	bv := make([]int, nd)
	for v := 0; v < nd; v++ {
		bv[v] = x.dims[v].Bins
	}
	for row := lo; row < hi; row++ {
		fails, failDim := 0, -1
		for i := 0; i < nd; i++ {
			b := binFns[i](row)
			bins[i] = b
			if i != x.moved && (b < x.fixedLo[i] || b > x.fixedHi[i]) {
				fails++
				if fails > 1 {
					break
				}
				failDim = i
			}
		}
		if fails > 1 {
			continue
		}
		bm := bins[x.moved]
		if fails == 1 {
			// Only failDim's own filter rejects the row: it still counts
			// toward failDim's view (which excludes that filter).
			views[failDim][(bm+1)*bv[failDim]+bins[failDim]]++
			continue
		}
		passAll[bm]++
		for v := 0; v < nd; v++ {
			if v != x.moved {
				views[v][(bm+1)*bv[v]+bins[v]]++
			}
		}
	}
}

// AnswerInto computes every dimension's histogram and the filtered total
// for a snapshot matching the template, into hists (one pre-sized slice
// per dimension). Results are bit-identical to the prefix cube's: each
// histogram applies all filters including the target's own box mask, and
// an empty box anywhere zeroes everything.
func (x *TemplateIndex) AnswerInto(filters []*datacube.Range, hists [][]int64) (int64, error) {
	nd := len(x.dims)
	if len(filters) != nd || len(hists) != nd {
		return 0, fmt.Errorf("planner: %d filters / %d hists for %d dimensions", len(filters), len(hists), nd)
	}
	var loBuf, hiBuf [32]int
	lo, hi := loBuf[:nd], hiBuf[:nd]
	empty := false
	for i, d := range x.dims {
		if len(hists[i]) != d.Bins {
			return 0, fmt.Errorf("planner: hist %d has %d bins, want %d", i, len(hists[i]), d.Bins)
		}
		for b := range hists[i] {
			hists[i][b] = 0
		}
		lo[i], hi[i] = 0, d.Bins-1
		if filters[i] != nil {
			lo[i], hi[i] = d.BinRange(*filters[i])
			if lo[i] > hi[i] {
				empty = true
			}
		}
	}
	if empty {
		return 0, nil
	}
	m := x.moved
	loM, hiM := lo[m], hi[m]
	// Moved dimension: passAll already applies every fixed filter; its own
	// filter is the box mask.
	hm := hists[m]
	for b := loM; b <= hiM; b++ {
		hm[b] = x.passAll[b]
	}
	total := x.prefAll[hiM+1] - x.prefAll[loM]
	// Views: one row difference per dimension, masked to its own box.
	for v := 0; v < nd; v++ {
		if v == m {
			continue
		}
		bv := x.dims[v].Bins
		top := x.views[v][(hiM+1)*bv : (hiM+2)*bv]
		bot := x.views[v][loM*bv : (loM+1)*bv]
		hv := hists[v]
		for b := lo[v]; b <= hi[v]; b++ {
			hv[b] = top[b] - bot[b]
		}
	}
	return total, nil
}

// ApproxBytes reports the index's resident size for the byte-budgeted
// store (opt.Sized).
func (x *TemplateIndex) ApproxBytes() int64 {
	n := int64(len(x.passAll) + len(x.prefAll))
	for _, v := range x.views {
		n += int64(len(v))
	}
	return 8*n + 256 // slices + struct and box overhead
}

// Moved returns the template's moving dimension.
func (x *TemplateIndex) Moved() int { return x.moved }
