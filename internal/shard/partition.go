package shard

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/colstore"
	"repro/internal/datacube"
	"repro/internal/storage"
)

// splitmix64 is the SplitMix64 finalizer — the same mix internal/fault
// uses for its deterministic schedules; here it spreads spatial
// coordinates across shards.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Partition splits t into shards disjoint sub-tables covering every record
// exactly once — the property that makes per-shard histograms merge back
// to the unsharded answer by plain addition. dims are the spatial
// dimensions whose values assignRows hashes. Within a shard, rows are laid
// out by layout: along a Z-order curve over dims' histogram-bin cells, so
// the scan kernels' 64-row zones mostly fall inside one bin. A partition
// only answers order-free requests — prefix-cube brushes and (bin, count)
// rows merged by addition — so the order is unobservable, and it is a pure
// function of the table, which keeps every per-shard structure
// deterministic.
func Partition(t *storage.Table, dims []datacube.Dim, shards int) ([]*storage.Table, error) {
	assign, err := assignRows(t, dims, shards)
	if err != nil {
		return nil, err
	}
	sizes := make([]int, shards)
	for _, s := range assign {
		sizes[s]++
	}
	owned := make([][]int, shards)
	for s, n := range sizes {
		owned[s] = make([]int, 0, n)
	}
	for row, s := range assign {
		owned[s] = append(owned[s], row)
	}
	parts := make([]*storage.Table, shards)
	for s, rows := range owned {
		parts[s] = t.Take(layout(t, dims, rows))
	}
	return parts, nil
}

// PartitionOne builds only shard index's sub-table — identical row content
// and order to Partition(...)[index], without materializing the other
// shards. Restarting shard children use it to cold-rebuild just their own
// partition, which bounds a rebuild's extra memory at one shard instead of
// the whole dataset.
func PartitionOne(t *storage.Table, dims []datacube.Dim, shards, index int) (*storage.Table, error) {
	if index < 0 || index >= shards {
		return nil, fmt.Errorf("shard: index %d out of range for %d shards", index, shards)
	}
	assign, err := assignRows(t, dims, shards)
	if err != nil {
		return nil, err
	}
	var rows []int
	for row, s := range assign {
		if s == index {
			rows = append(rows, row)
		}
	}
	return t.Take(layout(t, dims, rows)), nil
}

// Layout names the row order layout produces. Anything persisted from a
// partition (a router child's snapshot) records it, so a partition laid out
// by another version is rebuilt rather than served in a stale order. Change
// it whenever layout's order changes.
const Layout = "zorder-cells-v2"

// layout orders one shard's rows (ascending table rows, as assignRows
// hands them out) by a Morton key over dims' layout cells, ties broken by
// table row. Dimension d's cell is
//
//	clamp(⌊(v − Lo)/(Hi − Lo)·Bins + ½⌋, 0, Bins)
//
// — the bin index of the histogram fast path's ROUND((v − Lo)/step) — so
// every cell is one contiguous run of the curve, and inside a cell the
// rows keep table order. (When the bin index needs more bits than the
// dimension's share of the 64-bit key, its low bits are dropped and a cell
// is a run of bins.) NaN sorts as the domain's low edge, ±Inf and
// out-of-domain values clamp to its edges, and a dimension with Hi ≤ Lo
// contributes nothing. The keys hold only cell bits — 15 of them for three
// 20-bin dimensions — so the radix sort runs two byte passes, not eight.
func layout(t *storage.Table, dims []datacube.Dim, rows []int) []int {
	k := len(dims)
	spread := spreadTable(k)
	keys := make([]uint64, len(rows))
	for i, d := range dims {
		if d.Hi <= d.Lo {
			continue
		}
		vals, q := floatsOf(t.Column(d.Name)), newQuantizer(d, 64/k)
		for j, row := range rows {
			keys[j] |= spreadBits(spread, q.key(vals[row]), k) << i
		}
	}
	return radixSortByKey(keys, rows)
}

// quantizer computes one dimension's layout cell.
type quantizer struct {
	lo, scale, half float64
	top             uint64 // the last cell
}

// newQuantizer returns d's quantizer for a key share of share bits: the
// ROUND bin, shifted right by the bits it needs past share.
func newQuantizer(d datacube.Dim, share int) quantizer {
	drop := max(bits.Len(uint(d.Bins))-share, 0)
	return quantizer{
		lo:    d.Lo,
		scale: math.Ldexp(float64(d.Bins)/(d.Hi-d.Lo), -drop),
		half:  math.Ldexp(0.5, -drop),
		top:   uint64(d.Bins) >> drop,
	}
}

// key is v's cell: NaN and values below the domain are 0, values at or
// past the last cell clamp to it.
func (q quantizer) key(v float64) uint64 {
	f := (v-q.lo)*q.scale + q.half
	switch {
	case !(f >= 0): // NaN, or below the domain
		return 0
	case f >= float64(q.top):
		return q.top
	}
	return uint64(int64(f)) // exact: 0 <= f < top < 2^63, and cheaper than uint64(f)
}

// floatsOf returns col's float64 image as a slice: the column's own raw
// slice when it has one (an unfrozen FLOAT column, or a frozen plain
// passthrough), otherwise a copy decoded through Column.Float.
func floatsOf(col *storage.Column) []float64 {
	if vals, ok := colstore.FloatSliceOf(col); ok {
		return vals
	}
	if col.Enc == nil && col.Type == storage.Float64 {
		return col.Floats
	}
	vals := make([]float64, col.Len())
	for row := range vals {
		vals[row] = col.Float(row)
	}
	return vals
}

// cellStarts returns the first row of every maximal run of t's rows that
// share one layout cell — the same cell, by layout's own arithmetic, on
// every dim — in t's order. Over a partition layout ordered, the runs are
// exactly its non-empty cells; over a table in any other order they are
// as short as its rows are unclustered.
func cellStarts(t *storage.Table, dims []datacube.Dim) []int {
	n := t.NumRows()
	edge := make([]bool, n) // edge[row]: row's cell differs from row-1's
	for _, d := range dims {
		if d.Hi <= d.Lo {
			continue
		}
		q, prev := newQuantizer(d, 64/len(dims)), uint64(0)
		for row, v := range floatsOf(t.Column(d.Name)) {
			c := q.key(v)
			edge[row] = edge[row] || c != prev
			prev = c
		}
	}
	var starts []int
	for row, e := range edge {
		if row == 0 || e {
			starts = append(starts, row)
		}
	}
	return starts
}

// placeRuns puts each run of t's directory on the grid of dims' layout
// cells, reading its cell from its first row (cellStarts made every run
// one cell), and attaches the grid. A dimension with Hi ≤ Lo is one cell.
func placeRuns(t *storage.Table, dims []datacube.Dim, runs *colstore.Runs) {
	starts := runs.Starts()
	cols, sizes := make([]int, len(dims)), make([]int, len(dims))
	cells := make([]int32, runs.Len()*len(dims))
	for j, d := range dims {
		col := t.Column(d.Name)
		cols[j], sizes[j] = slices.Index(t.Columns, col), 1
		if d.Hi <= d.Lo {
			continue
		}
		q := newQuantizer(d, 64/len(dims))
		sizes[j] = int(q.top) + 1
		for k := range runs.Len() {
			cells[k*len(dims)+j] = int32(q.key(col.Float(starts[k])))
		}
	}
	runs.AttachGrid(cols, sizes, cells)
}

// spreadTable returns, for each byte value, its 8 bits moved to every
// stride-th bit position (bit b to b·stride) — the lookup form of
// magic-bit spreading, for any dimension count. Positions past bit 63
// fall off; the key's share never reaches them.
func spreadTable(stride int) *[256]uint64 {
	var tab [256]uint64
	for v := range tab {
		for b := 0; b < 8 && b*stride < 64; b++ {
			if v&(1<<b) != 0 {
				tab[v] |= 1 << (b * stride)
			}
		}
	}
	return &tab
}

// spreadBits moves bit b of q to bit b·stride, a byte at a time.
func spreadBits(tab *[256]uint64, q uint64, stride int) uint64 {
	var out uint64
	for shift := 0; q != 0 && shift*stride < 64; shift += 8 {
		out |= tab[q&0xff] << (shift * stride)
		q >>= 8
	}
	return out
}

// radixSortByKey returns rows reordered by ascending keys (rows[i] carries
// keys[i]) with a stable LSD radix sort, one byte per pass — so equal keys
// keep rows' order. Only the bytes some key sets are counted, and a pass
// whose byte is the same for every key is skipped. Both slices are used as
// scratch.
func radixSortByKey(keys []uint64, rows []int) []int {
	n := len(keys)
	if n == 0 {
		return rows
	}
	var set uint64
	for _, key := range keys {
		set |= key
	}
	counts := make([][256]int, (bits.Len64(set)+7)/8)
	for _, key := range keys {
		for p := range counts {
			counts[p][byte(key>>(8*p))]++
		}
	}
	order := rows
	tmpKeys, tmpOrder := make([]uint64, n), make([]int, n)
	for p := range counts {
		c := &counts[p]
		if c[byte(keys[0]>>(8*p))] == n {
			continue
		}
		pos := 0
		for b, cnt := range c {
			c[b] = pos
			pos += cnt
		}
		for i, key := range keys {
			dst := c[byte(key>>(8*p))]
			c[byte(key>>(8*p))]++
			tmpKeys[dst], tmpOrder[dst] = key, order[i]
		}
		keys, tmpKeys = tmpKeys, keys
		order, tmpOrder = tmpOrder, order
	}
	return order
}

// assignRows computes each row's shard index — the single source of truth
// for both Partition and PartitionOne, so the full and single-shard builds
// cannot diverge. A row goes to the shard a splitmix64 hash of its values in
// dims picks: uniform shard sizes regardless of data skew, and records with
// identical spatial coordinates colocated.
func assignRows(t *storage.Table, dims []datacube.Dim, shards int) ([]int, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard (got %d)", shards)
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("shard: no partitioning dimensions")
	}
	cols := make([][]float64, len(dims))
	for i, d := range dims {
		col := t.Column(d.Name)
		if col == nil || col.Type == storage.String {
			return nil, fmt.Errorf("shard: no numeric column %q in table %q", d.Name, t.Name)
		}
		cols[i] = floatsOf(col)
	}
	assign := make([]int, t.NumRows())
	for row := range assign {
		h := uint64(0x9e3779b97f4a7c15)
		for _, vals := range cols {
			h = splitmix64(h ^ math.Float64bits(vals[row]))
		}
		assign[row] = int(h % uint64(shards))
	}
	return assign, nil
}
