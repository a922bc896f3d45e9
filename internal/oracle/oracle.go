// Package oracle holds reference answers that share no code with what they
// check: plain row-at-a-time loops over storage.Column values, with the
// binning rule written out here rather than called from datacube. Serving,
// shard and planner tests compare their answers with these, so a bug in a
// production structure cannot cancel against itself.
//
// The package imports storage, and datacube only for the Dim and Range
// types that name a brush; it calls no function in datacube, engine,
// colstore, morsel, shard or sql (oracle_test.go checks the imports).
package oracle

import (
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
