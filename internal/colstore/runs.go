package colstore

import (
	"sync/atomic"

	"repro/internal/storage"
)

// Runs is a table's cell-run directory: the table cut into runs of
// consecutive rows and, per run, the exact minimum and maximum of every
// numeric column's float64 image — the zone map's summary at the grain of
// the rows' own clustering rather than of 64-row words. Where a table is
// laid out by histogram-bin cell (a shard partition), a run is one cell,
// and a histogram statement decides most runs from their bounds alone:
// skipped when a predicate excludes them, summed whole when every
// predicate contains them and they fall in one bin. A run holding a NaN
// carries NaN bounds, which fail every comparison and leave the run to
// the row kernels.
//
// Like zones, a directory is derived data: never serialised, built from
// the table by AttachRuns, dropped when the table is appended to.
type Runs struct {
	starts []int        // len R+1: run k is rows [starts[k], starts[k+1])
	cols   []*RunBounds // per table column; nil for TEXT
	grid   *Grid        // the runs on their layout's cell grid, if attached

	decided, gridded atomic.Int64
}

// RunBounds is one column's bounds in a directory, and what histogram
// statements reading the column have done with its runs.
type RunBounds struct {
	mm []float64 // mm[2k], mm[2k+1] = min, max over run k

	skipped, summed, scanned atomic.Int64
}

// AttachRuns builds the directory of t's runs, which begin at the rows
// starts lists (ascending, starts[0] == 0 unless t is empty), and attaches
// it to t. A table whose runs average under 64 rows — more runs than
// 64-row words — keeps none: its runs are no coarser than the zone map,
// and walking them would cost more than the words they decide. It returns
// the attached directory, or nil when t keeps none.
func AttachRuns(t *storage.Table, starts []int) *Runs {
	n := t.NumRows()
	if len(starts) > zoneCount(n) {
		t.SetRuns(nil)
		return nil
	}
	r := &Runs{starts: append(starts[:len(starts):len(starts)], n), cols: make([]*RunBounds, len(t.Columns))}
	seg := func(k int) (int, int) { return r.starts[k], r.starts[k+1] }
	for i, col := range t.Columns {
		enc, ok := Of(col)
		if !ok {
			switch col.Type {
			case storage.Float64:
				enc = NewPlainFloats(col.Floats)
			case storage.Int64:
				enc = NewPlainInts(col.Ints)
			default:
				continue
			}
		}
		if mm := boundsOf(enc, len(starts), seg); mm != nil {
			r.cols[i] = &RunBounds{mm: mm}
		}
	}
	t.SetRuns(r)
	return r
}

// RunsOf returns t's directory, or nil when it has none.
func RunsOf(t *storage.Table) *Runs {
	r, _ := t.Runs().(*Runs)
	return r
}

// Len returns the number of runs.
func (r *Runs) Len() int { return len(r.starts) - 1 }

// Starts returns the run boundaries: run k is rows [starts[k],
// starts[k+1]), and the last entry is the row count (shared, do not
// modify).
func (r *Runs) Starts() []int { return r.starts }

// Column returns the bounds of table column c, nil for a TEXT column.
func (r *Runs) Column(c int) *RunBounds { return r.cols[c] }

// Record counts runs a histogram statement decided one by one.
func (r *Runs) Record(decided int64) { r.decided.Add(decided) }

// RecordGrid counts a statement whose interior the grid counted.
func (r *Runs) RecordGrid() { r.gridded.Add(1) }

// bytes is the directory's resident footprint: the run starts, every
// column's bounds and the grid.
func (r *Runs) bytes() int64 {
	b := int64(len(r.starts)) * 8
	if r.grid != nil {
		b += r.grid.bytes()
	}
	for _, c := range r.cols {
		if c != nil {
			b += c.bytes()
		}
	}
	return b
}

// Bounds returns the minimum and maximum float64 image over run k; both
// are NaN when any of its rows is NaN.
func (b *RunBounds) Bounds(k int) (min, max float64) { return b.mm[2*k], b.mm[2*k+1] }

// Record adds to the column's run counters: runs a statement reading the
// column skipped, summed whole, and sent to the row kernels.
func (b *RunBounds) Record(skipped, summed, scanned int64) {
	b.skipped.Add(skipped)
	b.summed.Add(summed)
	b.scanned.Add(scanned)
}

// Counts returns the column's run counters since the directory was built.
func (b *RunBounds) Counts() (skipped, summed, scanned int64) {
	return b.skipped.Load(), b.summed.Load(), b.scanned.Load()
}

func (b *RunBounds) bytes() int64 { return int64(len(b.mm)) * 8 }
