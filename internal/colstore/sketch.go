package colstore

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// sketchBuckets is the number of bucket codes. 128, not 256: a code then
// leaves the top bit of its byte clear, which is what lets eight codes be
// range-tested by one 64-bit subtract with no borrow crossing bytes.
const sketchBuckets = 128

// Sketch is a column sketch (Hentschel, Kester, Idreos, SIGMOD 2018) of a
// plain numeric column: one byte per row holding a monotone non-decreasing
// bucket code of the row's float64 image, and per bucket the minimum and
// maximum actually observed among its rows. A range filter decides almost
// every row from the byte — 64 B per selection word where the values are
// 512 B — and reads the value only of rows whose bucket a bound cuts.
//
// Exactness is the zone map's argument one level down. The code is
// monotone, so buckets hold disjoint ascending value intervals, and the
// bounds are true minima and maxima, so a bucket tested out (max < lo or
// min > hi) or in (min >= lo and max <= hi) holds only rows the row kernel
// would decide the same way; every other row still goes to that kernel.
//
// A column with a NaN (no monotone code has a place for it) or without a
// usable spread (constant, ±Inf-bearing, or so narrow or wide that
// 128/(max−min) is not a finite positive number) has no sketch and keeps
// the bare kernel. Sketches are derived data like zones: built on the
// first range filter, never serialised, dropped with the view on append.
type Sketch struct {
	codes []uint8 // one per row, zero-padded to whole 64-row words

	// bmin[k], bmax[k] bound bucket k's rows. An empty bucket inherits
	// bmax from the bucket below and bmin from the one above (so bmin >
	// bmax marks it): both arrays ascend, and a bound is placed by binary
	// search. cum[k] counts the rows coded below k.
	bmin, bmax [sketchBuckets]float64
	cum        [sketchBuckets + 1]int64

	decided, refined atomic.Int64
}

// lazySketch is a column's sketch slot: built once by the first range
// filter, readable without building by a metrics scrape. The pointer stays
// nil for a column that admits no sketch.
type lazySketch struct {
	once sync.Once
	p    atomic.Pointer[Sketch]
}

func (l *lazySketch) get(build func() *Sketch) *Sketch {
	l.once.Do(func() { l.p.Store(build()) })
	return l.p.Load()
}

// SketchOf returns col's sketch, building it on first use; nil when the
// column is not plain numeric or its values admit no sketch.
func SketchOf(col Column) *Sketch {
	if s, ok := col.(interface{ sketch() *Sketch }); ok {
		return s.sketch()
	}
	return nil
}

func (c *PlainFloats) sketch() *Sketch {
	return c.sk.get(func() *Sketch { return buildSketch(c.vals, c.zones()) })
}

func (c *PlainInts) sketch() *Sketch {
	return c.sk.get(func() *Sketch { return buildSketch(c.vals, c.zones()) })
}

// Codes returns the per-row bucket codes, padded with zeros to a whole
// number of 64-row words (shared, do not modify).
func (s *Sketch) Codes() []uint8 { return s.codes }

// Buckets is the number of bucket codes; every code is below it.
func (s *Sketch) Buckets() int { return sketchBuckets }

// Bounds returns the observed minimum and maximum of bucket k's rows. An
// empty bucket has min > max; no row carries its code.
func (s *Sketch) Bounds(k int) (min, max float64) { return s.bmin[k], s.bmax[k] }

// Rows returns how many rows FilterRange has decided from their code alone
// and how many it went on to compare by value, since the sketch was built.
func (s *Sketch) Rows() (decided, refined int64) { return s.decided.Load(), s.refined.Load() }

// bytes is the sketch's resident footprint: the codes and the bucket
// tables.
func (s *Sketch) bytes() int64 {
	return int64(len(s.codes)) + sketchBuckets*16 + (sketchBuckets+1)*8
}

// EstimateRange returns the fraction of rows whose bucket [lo, hi]
// touches: an upper bound on the range's selectivity, at most one bucket
// over at each end.
func (s *Sketch) EstimateRange(lo, hi float64) float64 {
	first, last := s.span(lo, hi)
	if first > last {
		return 0
	}
	return float64(s.cum[last+1]-s.cum[first]) / float64(s.cum[sketchBuckets])
}

// span returns the first and last bucket that can hold a row in [lo, hi]:
// the first whose maximum reaches lo and the last whose minimum stays
// within hi. Buckets strictly between the two lie wholly inside the range;
// first > last means no row qualifies, and a NaN bound, failing every
// comparison as written, puts first past the end or last before the
// start. Neither end is ever an empty bucket, which ties with its
// non-empty neighbour on the array searched and sits on the far side of
// it.
func (s *Sketch) span(lo, hi float64) (first, last int) {
	first = sort.Search(sketchBuckets, func(k int) bool { return s.bmax[k] >= lo })
	last = sort.Search(sketchBuckets, func(k int) bool { return !(s.bmin[k] <= hi) }) - 1
	return first, last
}

// buildSketch codes vals into equi-width buckets over the column's
// extremes, which the zone map already holds. Subtract, scale and truncate
// are each monotone non-decreasing in v, so the code is too, whatever
// rounding does to the bucket edges — which is why the tables record
// observed bounds and nothing is ever compared against a computed edge.
func buildSketch[T float64 | int64](vals []T, z *ZoneMap) *Sketch {
	lo, hi := math.Inf(1), math.Inf(-1)
	for w := 0; 2*w < len(z.mm); w++ {
		zmin, zmax := z.Bounds(w)
		if zmin != zmin {
			return nil // the word holds a NaN
		}
		lo, hi = min(lo, zmin), max(hi, zmax)
	}
	scale := sketchBuckets / (hi - lo)
	if !(scale > 0) || math.IsInf(scale, 1) {
		return nil
	}
	s := &Sketch{codes: make([]uint8, zoneCount(len(vals))*zoneRows)}
	for k := range s.bmin {
		s.bmin[k], s.bmax[k] = math.Inf(1), math.Inf(-1)
	}
	for i, x := range vals {
		v := float64(x)
		k := min(int((v-lo)*scale), sketchBuckets-1)
		s.codes[i] = uint8(k)
		s.cum[k+1]++
		if v < s.bmin[k] {
			s.bmin[k] = v
		}
		if v > s.bmax[k] {
			s.bmax[k] = v
		}
	}
	// The column's minimum codes to 0 and its maximum to 127, so the
	// outermost buckets are never empty and every empty one has a
	// neighbour on both sides to inherit from.
	for k := 1; k < sketchBuckets; k++ {
		if s.cum[k+1] == 0 {
			s.bmax[k] = s.bmax[k-1]
		}
	}
	for k := sketchBuckets - 2; k >= 0; k-- {
		if s.cum[k+1] == 0 {
			s.bmin[k] = s.bmin[k+1]
		}
	}
	for k := 0; k < sketchBuckets; k++ {
		s.cum[k+1] += s.cum[k]
	}
	return s
}

// Eight codes are tested per 64-bit operation. With every code below 128,
// (code|0x80) − lo never borrows from the byte above and keeps its top bit
// exactly when code >= lo; (hi|0x80) − code likewise when code <= hi.
const (
	swarLow    = 0x0101010101010101
	swarHigh   = 0x8080808080808080
	swarGather = 0x0102040810204080 // moves the eight top bits into the top byte
)

// codeRange is the closed code interval [lo, hi] spread over the eight
// byte lanes of its two constants.
type codeRange struct{ lo, hi uint64 }

// newCodeRange accepts lo ∈ [0, 128] and hi ∈ [-1, 127]; lo > hi is the
// empty interval.
func newCodeRange(lo, hi int) codeRange {
	if lo > hi {
		lo, hi = 1, 0
	}
	return codeRange{swarLow * uint64(lo), swarLow*uint64(hi) | swarHigh}
}

// test returns one bit per byte of x, set when that code lies in r.
func (r codeRange) test(x uint64) uint64 {
	t := ((x | swarHigh) - r.lo) & (r.hi - x) & swarHigh
	return (t >> 7) * swarGather >> 56
}

// filterSketched is FilterRange for the plain numeric encodings: the zone
// step, then — for the runs of words zones leave undecided — the sketch in
// front of rows, the column's own row kernel (filterFloats / filterInts
// bound to its values and this range). Per word, codes classify the 64
// rows as in, out or cut; a word with cut rows becomes their mask and
// takes one AND pass of the row kernel, which compares exactly those rows,
// before the in rows are ORed back. A column without a sketch hands its
// runs to the row kernel whole, as before.
func filterSketched(s *Sketch, z *ZoneMap, lo, hi float64, r0, r1 int, dst *Bitmap, and bool, rows func(u0, u1 int, and bool)) {
	if s == nil {
		z.filter(lo, hi, r0, r1, dst, and, func(u0, u1 int) { rows(u0, u1, and) })
		return
	}
	// Buckets strictly inside (first, last) are in; each end is in too
	// when its observed bounds fit the range, else it is a cut bucket.
	first, last := s.span(lo, hi)
	inFirst, inLast := first, last
	if first <= last {
		if !(s.bmin[first] >= lo && s.bmax[first] <= hi) {
			inFirst++
		}
		if !(s.bmin[last] >= lo && s.bmax[last] <= hi) {
			inLast--
		}
	}
	maybeRange, inRange := newCodeRange(first, last), newCodeRange(inFirst, inLast)

	var live, refined int64
	codes, words := s.codes, dst.words
	z.filter(lo, hi, r0, r1, dst, and, func(u0, u1 int) {
		for base := u0; base < u1; base += zoneRows {
			var in, maybe uint64
			for j, c := 0, codes[base:base+zoneRows]; j < zoneRows; j += 8 {
				x := binary.LittleEndian.Uint64(c[j:])
				in |= inRange.test(x) << j
				maybe |= maybeRange.test(x) << j
			}
			w := base >> 6
			mask := ^uint64(0) // the rows this pass may select
			if and {
				mask = words[w]
			} else if u1-base < zoneRows {
				mask >>= zoneRows - (u1 - base)
			}
			cut := maybe &^ in & mask
			in &= mask
			if cut != 0 {
				words[w] = cut
				rows(base, min(base+zoneRows, u1), true)
				in |= words[w]
			}
			words[w] = in
			live += int64(bits.OnesCount64(mask))
			refined += int64(bits.OnesCount64(cut))
		}
	})
	s.decided.Add(live - refined)
	s.refined.Add(refined)
}
