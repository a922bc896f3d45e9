package colstore

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// zoneRows is the zone granularity: one selection-bitmap word, so zone
// index == bitmap word index and a decided zone is one word store. Road
// segments run 20–420 consecutive rows, so wider zones (256, 512 rows)
// straddle segment boundaries and decide progressively fewer words.
const zoneRows = 64

// ZoneMap holds the minimum and maximum of a numeric column's float64
// image over every 64 consecutive rows — the block-range (BRIN / small
// materialised aggregate) summary that lets a range scan decide a whole
// selection word without reading its rows. Bounds live in value space,
// not code space, so one zone step serves every encoding and compares
// against exactly what the kernels compare. A word holding a NaN carries
// NaN bounds, which fail every comparison and leave the word to the
// kernel. Zones are derived data: never serialised, rebuilt from the
// column on first use.
type ZoneMap struct {
	once sync.Once
	mm   []float64 // mm[2w], mm[2w+1] = min, max over rows [64w, 64w+64)

	skipped, filled, evaluated atomic.Int64
}

// Bounds returns the minimum and maximum float64 image over rows
// [64w, 64w+64); both are NaN when any of those rows is NaN.
func (z *ZoneMap) Bounds(w int) (min, max float64) { return z.mm[2*w], z.mm[2*w+1] }

// Words returns how many 64-row words FilterRange has decided empty,
// decided full, and handed to the row kernel since the column was built.
func (z *ZoneMap) Words() (skipped, filled, evaluated int64) {
	return z.skipped.Load(), z.filled.Load(), z.evaluated.Load()
}

// zoneCount is the number of zones (bitmap words) covering n rows.
func zoneCount(n int) int { return (n + zoneRows - 1) / zoneRows }

// zoneBytes is the resident footprint of the zone map of an n-row column:
// two float64 per 64 rows, 0.25 B/row whatever the encoding.
func zoneBytes(n int) int64 { return int64(zoneCount(n)) * 16 }

// ZonesOf returns col's zone map, building it on first use; nil for
// string columns, which have no numeric image.
func ZonesOf(col Column) *ZoneMap {
	if z, ok := col.(interface{ zones() *ZoneMap }); ok {
		return z.zones()
	}
	return nil
}

func (c *PlainFloats) zones() *ZoneMap {
	c.zm.once.Do(func() { c.zm.mm = zoneBounds(c) })
	return &c.zm
}

func (c *PlainInts) zones() *ZoneMap {
	c.zm.once.Do(func() { c.zm.mm = zoneBounds(c) })
	return &c.zm
}

func (c *ForColumn) zones() *ZoneMap {
	c.zm.once.Do(func() { c.zm.mm = zoneBounds(c) })
	return &c.zm
}

func (c *DictColumn) zones() *ZoneMap {
	if c.typ == storage.String {
		return nil
	}
	c.zm.once.Do(func() { c.zm.mm = zoneBounds(c) })
	return &c.zm
}

// zoneBounds is boundsOf over col's 64-row words.
func zoneBounds(col Column) []float64 {
	n := col.Len()
	return boundsOf(col, zoneCount(n), func(w int) (int, int) {
		return w * zoneRows, min((w+1)*zoneRows, n)
	})
}

// boundsOf returns the minimum and maximum float64 image of col over each
// of segs row segments, seg(k) giving segment k's [start, end): out[2k],
// out[2k+1]. A segment holding a NaN gets NaN bounds. Nil for TEXT.
func boundsOf(col Column, segs int, seg func(k int) (int, int)) []float64 {
	switch c := col.(type) {
	case *PlainFloats:
		return boundsOfValues(c.vals, segs, seg)
	case *PlainInts:
		return boundsOfValues(c.vals, segs, seg)
	case *ForColumn:
		return boundsOfCodes(c.codes, c.DecodeFloat, segs, seg)
	case *DictColumn:
		if c.typ != storage.String {
			return boundsOfCodes(c.codes, c.DecodeFloat, segs, seg)
		}
	}
	return nil
}

// boundsOfValues is boundsOf over a raw numeric slice.
func boundsOfValues[T float64 | int64](vals []T, segs int, seg func(k int) (int, int)) []float64 {
	mm := make([]float64, 2*segs)
	for k := 0; k < segs; k++ {
		s, e := seg(k)
		lo, hi := math.Inf(1), math.Inf(-1)
		nan := false
		for _, x := range vals[s:e] {
			v := float64(x)
			nan = nan || v != v
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if nan {
			lo, hi = math.NaN(), math.NaN()
		}
		mm[2*k], mm[2*k+1] = lo, hi
	}
	return mm
}

// boundsOfCodes is boundsOf over an order-preserving coded column: the
// extreme codes of a segment decode to its extreme values, and codes never
// represent NaN.
func boundsOfCodes(p *PackedInts, decode func(code uint64) float64, segs int, seg func(k int) (int, int)) []float64 {
	mm := make([]float64, 2*segs)
	for k := 0; k < segs; k++ {
		s, e := seg(k)
		lo, hi := ^uint64(0), uint64(0)
		for i := s; i < e; i++ {
			c := p.Get(i)
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		mm[2*k], mm[2*k+1] = decode(lo), decode(hi)
	}
	return mm
}

// filter is the one zone step in front of the range kernels. Per word of
// [r0, r1) it stores zero when the zone is disjoint from [lo, hi] (and, in
// an AND pass, leaves words that are already zero), stores all-ones when
// the zone lies inside the range (an AND pass leaves the word as it is),
// and hands each maximal run of undecided words to kernel — the unchanged
// row kernel of the column's encoding — so every row is still compared by
// the same code, just fewer of them. NaN bounds and NaN zones fail every
// test here and fall through to the kernel, which owns those semantics.
func (z *ZoneMap) filter(lo, hi float64, r0, r1 int, dst *Bitmap, and bool, kernel func(r0, r1 int)) {
	var skipped, filled int64
	run := -1 // first row of the open undecided run
	mm, words := z.mm, dst.words
	for base := r0; base < r1; base += zoneRows {
		w := base >> 6
		zmin, zmax := mm[2*w], mm[2*w+1]
		switch {
		case and && words[w] == 0:
			skipped++
		case zmax < lo || zmin > hi:
			words[w] = 0
			skipped++
		case zmin >= lo && zmax <= hi:
			if !and {
				dst.FillRange(base, min(base+zoneRows, r1))
			}
			filled++
		default:
			if run < 0 {
				run = base
			}
			continue
		}
		if run >= 0 {
			kernel(run, base)
			run = -1
		}
	}
	if run >= 0 {
		kernel(run, r1)
	}
	z.skipped.Add(skipped)
	z.filled.Add(filled)
	z.evaluated.Add(int64(zoneCount(r1-r0)) - skipped - filled)
}
