package colstore

import (
	"math"
	"math/bits"
	"slices"
)

// Grid places a directory's runs on the cell grid of the layout that cut
// them: each run is one cell, named by one cell index per grid dimension.
// A dimension's slab c is every run with cell index c on it. Per slab the
// grid keeps its runs and its bounds on the dimension's column — the
// minimum and maximum of those runs' exact bounds, NaN when any run's are
// — and over the whole grid an inclusive prefix sum of run lengths and of
// run counts, so the rows and runs of any box of cells are 2^d lookups.
//
// A histogram statement decides slabs instead of runs (see SlabState):
// the runs whose every slab is inside the statement are counted from the
// prefix, the runs in some excluded slab are never visited, and only the
// rest — the shell — are decided one by one. Exactness rests on the slab
// bounds, which hold every row of every run in the slab, never on the
// arithmetic that cut the cells.
type Grid struct {
	dims  []gridDim
	cells []int32 // cells[k·d + j]: run k's cell on dimension j
	rows  []int64 // inclusive prefix of run lengths over the padded cells
	runs  []int32 // inclusive prefix of run counts, indexed as rows
}

// gridDim is one grid dimension: its table column, its stride in the
// padded prefix, and per slab its bounds and its runs, ascending.
type gridDim struct {
	col    int
	stride int
	bounds []float64 // bounds[2c], bounds[2c+1] = min, max over slab c
	first  []int32   // slab c's runs are order[first[c]:first[c+1]]
	order  []int32
}

// SlabState is what one predicate, or the bin, makes of a slab.
type SlabState uint8

const (
	// SlabShell: the slab's runs must be decided one by one.
	SlabShell SlabState = iota
	// SlabInside: every row of the slab passes.
	SlabInside
	// SlabExcluded: no row of the slab passes.
	SlabExcluded
)

// AttachGrid places r's runs on a grid over the table columns cols, with
// sizes[j] cells on dimension j and run k in cell cells[k·len(cols) + j]
// of it (cells is kept, not copied), and reports whether r keeps it. A grid whose prefix sums would
// take more bytes than the columns the directory bounds is not kept: such
// a grid is sparser than the rows it counts. A cell index outside its
// dimension, or a column without bounds, keeps none either. It builds in
// O(runs·d + cells) and reads no row.
func (r *Runs) AttachGrid(cols, sizes []int, cells []int32) bool {
	r.grid = nil
	d, nr := len(cols), r.Len()
	if d == 0 || len(sizes) != d || len(cells) != nr*d {
		return false
	}
	numeric := 0
	for _, c := range r.cols {
		if c != nil {
			numeric++
		}
	}
	colBytes := int64(r.starts[nr]) * 8 * int64(numeric)
	padded := int64(1)
	for j, n := range sizes {
		if n < 1 || cols[j] < 0 || cols[j] >= len(r.cols) || r.cols[cols[j]] == nil {
			return false
		}
		if padded *= int64(n) + 1; padded*12 > colBytes {
			return false
		}
	}
	g := &Grid{dims: make([]gridDim, d), cells: cells, rows: make([]int64, padded), runs: make([]int32, padded)}
	stride := 1
	for j := range g.dims {
		g.dims[j] = gridDim{col: cols[j], stride: stride, bounds: make([]float64, 2*sizes[j]), first: make([]int32, sizes[j]+1), order: make([]int32, nr)}
		stride *= sizes[j] + 1
	}
	for k := 0; k < nr; k++ {
		idx := 0
		for j := range g.dims {
			c := int(cells[k*d+j])
			if c < 0 || c >= sizes[j] {
				return false
			}
			g.dims[j].first[c+1]++
			idx += (c + 1) * g.dims[j].stride
		}
		g.rows[idx] += int64(r.starts[k+1] - r.starts[k])
		g.runs[idx]++
	}
	for j := range g.dims {
		gd := &g.dims[j]
		for c := range sizes[j] {
			gd.first[c+1] += gd.first[c]
			gd.bounds[2*c], gd.bounds[2*c+1] = math.Inf(1), math.Inf(-1)
		}
		next := append([]int32(nil), gd.first[:sizes[j]]...)
		mm := r.cols[gd.col].mm
		for k := 0; k < nr; k++ {
			c := cells[k*d+j]
			gd.order[next[c]] = int32(k)
			next[c]++
			gd.bounds[2*c] = math.Min(gd.bounds[2*c], mm[2*k])
			gd.bounds[2*c+1] = math.Max(gd.bounds[2*c+1], mm[2*k+1])
		}
		for idx := range g.rows {
			if idx/gd.stride%(sizes[j]+1) > 0 {
				g.rows[idx] += g.rows[idx-gd.stride]
				g.runs[idx] += g.runs[idx-gd.stride]
			}
		}
	}
	r.grid = g
	return true
}

// Grid returns r's cell grid, or nil when it keeps none.
func (r *Runs) Grid() *Grid { return r.grid }

// Dims returns the number of grid dimensions.
func (g *Grid) Dims() int { return len(g.dims) }

// DimOf returns the grid dimension over table column col, or -1.
func (g *Grid) DimOf(col int) int {
	for j := range g.dims {
		if g.dims[j].col == col {
			return j
		}
	}
	return -1
}

// Slabs returns the number of slabs (cells) on dimension j.
func (g *Grid) Slabs(j int) int { return len(g.dims[j].first) - 1 }

// Slab returns slab c of dimension j: its bounds, NaN when a run of it
// holds a NaN, and whether it holds any run (an empty slab's bounds are
// +Inf, −Inf).
func (g *Grid) Slab(j, c int) (min, max float64, ok bool) {
	gd := &g.dims[j]
	return gd.bounds[2*c], gd.bounds[2*c+1], gd.first[c] < gd.first[c+1]
}

// Count returns the rows and the runs of the box of cells lo[j]…hi[j]
// (inclusive) on every dimension j, from 2^d prefix lookups. An empty
// interval on any dimension counts nothing.
func (g *Grid) Count(lo, hi []int) (rows, runs int64) {
	for j := range g.dims {
		if lo[j] > hi[j] {
			return 0, 0
		}
	}
	for corner := 0; corner < 1<<len(g.dims); corner++ {
		idx, neg := 0, false
		for j := range g.dims {
			c := hi[j] + 1 // the padded index of the interval's last cell
			if corner>>j&1 != 0 {
				c, neg = lo[j], !neg
			}
			idx += c * g.dims[j].stride
		}
		if neg {
			rows, runs = rows-g.rows[idx], runs-int64(g.runs[idx])
		} else {
			rows, runs = rows+g.rows[idx], runs+int64(g.runs[idx])
		}
	}
	return rows, runs
}

// Shell appends to dst, ascending, every run that lies in no excluded slab
// and in at least one shell slab, given each dimension's slab states
// (state[j][c]). It visits only the runs of shell slabs: a run counts
// under the first dimension that has it in a shell slab.
func (g *Grid) Shell(state [][]SlabState, dst []int32) []int32 {
	d, nr := len(g.dims), len(g.dims[0].order)
	mark := make([]uint64, (nr+63)/64)
	for j := range g.dims {
		gd := &g.dims[j]
		for c, s := range state[j] {
			if s != SlabShell {
				continue
			}
		runs:
			for _, k := range gd.order[gd.first[c]:gd.first[c+1]] {
				for i := range d {
					switch state[i][g.cells[int(k)*d+i]] {
					case SlabExcluded:
						continue runs
					case SlabShell:
						if i < j {
							continue runs
						}
					}
				}
				mark[k>>6] |= 1 << (k & 63)
			}
		}
	}
	n := 0
	for _, x := range mark {
		n += bits.OnesCount64(x)
	}
	dst = slices.Grow(dst, n)
	for w, x := range mark {
		for x != 0 {
			dst = append(dst, int32(w<<6+bits.TrailingZeros64(x)))
			x &= x - 1
		}
	}
	return dst
}

func (g *Grid) bytes() int64 {
	b := int64(len(g.cells))*4 + int64(len(g.rows))*8 + int64(len(g.runs))*4
	for _, gd := range g.dims {
		b += int64(len(gd.bounds))*8 + int64(len(gd.first)+len(gd.order))*4
	}
	return b
}
