// Package oracle holds reference answers that share no code with what they
// check: plain row-at-a-time loops over storage.Column values, with the
// binning rules written out here (DESIGN.md, "Binning rules") rather than
// called from datacube or the engine. Serving,
// shard and planner tests compare their answers with these, so a bug in a
// production structure cannot cancel against itself.
//
// The package imports storage, and datacube only for the Dim and Range
// types that name a brush; it calls no function in datacube, engine,
// colstore, morsel, shard or sql (oracle_test.go checks the imports).
package oracle

import (
	"math"
	"sort"

	"repro/internal/datacube"
	"repro/internal/storage"
)

// bin maps v into d's bins: bin b covers [Lo + b·w, Lo + (b+1)·w) with
// w = (Hi−Lo)/Bins, values below the domain fall in bin 0 and values at or
// past Hi in the last bin. A degenerate domain has one bin.
func bin(d datacube.Dim, v float64) int {
	if d.Hi <= d.Lo {
		return 0
	}
	b := int((v - d.Lo) / (d.Hi - d.Lo) * float64(d.Bins))
	if b < 0 {
		return 0
	}
	if b >= d.Bins {
		return d.Bins - 1
	}
	return b
}

// binRange is the inclusive bin interval a filter keeps: every bin the
// half-open range [Lo, Hi) touches, except that a Hi landing exactly on a
// bin's lower edge stops short of that bin. Lo > Hi keeps nothing.
func binRange(d datacube.Dim, r datacube.Range) (int, int) {
	lo, hi := bin(d, r.Lo), bin(d, r.Hi)
	if hi > lo && d.Lo+(d.Hi-d.Lo)*float64(hi)/float64(d.Bins) == r.Hi {
		hi--
	}
	return lo, hi
}

// Brush is the crossfilter answer to a brush over tbl, one row at a time:
// the number of rows whose every dimension's bin lies in its filter's bin
// interval (nil filters keep every bin), and per dimension the histogram of
// those rows. Filters is empty or one entry per dimension.
func Brush(tbl *storage.Table, dims []datacube.Dim, filters []*datacube.Range) (int64, [][]int64) {
	nd := len(dims)
	hists := make([][]int64, nd)
	lo, hi := make([]int, nd), make([]int, nd)
	cols := make([]*storage.Column, nd)
	empty := false
	for i, d := range dims {
		hists[i] = make([]int64, d.Bins)
		lo[i], hi[i] = 0, d.Bins-1
		if i < len(filters) && filters[i] != nil {
			lo[i], hi[i] = binRange(d, *filters[i])
			empty = empty || lo[i] > hi[i]
		}
		cols[i] = tbl.Column(d.Name)
	}
	if empty {
		return 0, hists
	}
	var total int64
	bins := make([]int, nd)
	for row := 0; row < tbl.NumRows(); row++ {
		pass := true
		for i, d := range dims {
			b := bin(d, cols[i].Float(row))
			if b < lo[i] || b > hi[i] {
				pass = false
				break
			}
			bins[i] = b
		}
		if !pass {
			continue
		}
		total++
		for i := range dims {
			hists[i][bins[i]]++
		}
	}
	return total, hists
}

// BoxCount counts the rows inside the half-open box [latLo, latHi) ×
// [lngLo, lngHi): two Column.Float reads and the comparison per row.
func BoxCount(lat, lng *storage.Column, latLo, latHi, lngLo, lngHi float64) int64 {
	var count int64
	for i, n := 0, lat.Len(); i < n; i++ {
		la, ln := lat.Float(i), lng.Float(i)
		if la >= latLo && la < latHi && ln >= lngLo && ln < lngHi {
			count++
		}
	}
	return count
}

// Histogram is the answer to the histogram statement opt.HistogramQuery
// writes for (dims, ranges, target, bins), one row at a time:
//
//	SELECT ROUND((t - Lo) / step), COUNT(*) FROM tbl
//	WHERE d₀ >= ranges[0][0] AND d₀ <= ranges[0][1] AND …
//	GROUP BY … ORDER BY …
//
// with t = dims[target].Name, Lo = dims[target].Lo and step =
// (dims[target].Hi − Lo)/bins; the dims' own Bins are not read. A row
// passes when every dim's value v has lo ≤ v ≤ hi (NaN never does). Its
// bin is the statement's ROUND rule: the expression reduces to a·v + b
// with a = 1/step and b = −Lo/step, and the bin is that value rounded to
// the nearest integer, halves away from zero, converted to int as Go
// converts a float. The rows come back as (bin, count) pairs in ascending
// bin order, empty bins omitted.
func Histogram(tbl *storage.Table, dims []datacube.Dim, ranges [][2]float64, target, bins int) [][2]int64 {
	cols := make([]*storage.Column, len(dims))
	for i, d := range dims {
		cols[i] = tbl.Column(d.Name)
	}
	step := (dims[target].Hi - dims[target].Lo) / float64(bins)
	a, b := 1/step, -dims[target].Lo/step
	counts := map[int64]int64{}
	for row := 0; row < tbl.NumRows(); row++ {
		pass := true
		for i, col := range cols {
			if v := col.Float(row); !(v >= ranges[i][0] && v <= ranges[i][1]) {
				pass = false
				break
			}
		}
		if pass {
			counts[int64(roundHalfAway(a*cols[target].Float(row)+b))]++
		}
	}
	out := make([][2]int64, 0, len(counts))
	for bin, c := range counts {
		out = append(out, [2]int64{bin, c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// roundHalfAway rounds f to the nearest integer, halves away from zero:
// the integer part, plus one step away from zero when the fraction left
// (exact in float64) is a half or more. NaN and ±Inf come back as they are.
func roundHalfAway(f float64) float64 {
	t := math.Trunc(f)
	if math.Abs(f-t) >= 0.5 {
		t += math.Copysign(1, f)
	}
	return t
}
