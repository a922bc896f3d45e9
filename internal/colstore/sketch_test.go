package colstore

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/morsel"
)

// The sketch, like the zone step, may only change which rows reach the row
// kernel, never the bitmap that comes out. These suites hold FilterRange
// on plain columns to the bare kernel and to a scalar loop over every
// column shape the zone suites use plus the shapes and ranges only a
// sketch can trip on.

// sketchOwnCases builds the columns only a sketch can trip on, n rows each.
func sketchOwnCases(rng *rand.Rand, n int) []zonedCase {
	oneNaN := segmentWalk(rng, n)
	subnormal := make([]float64, n)  // spread too narrow to scale: no sketch
	tinyToHuge := make([]float64, n) // subnormals beside ordinary values
	skewed := make([]float64, n)     // most rows in the lowest bucket
	twoValues := make([]float64, n)  // only the outermost buckets occupied
	smallInts := make([]int64, n)    // a plain-int column with a sketch
	for i := 0; i < n; i++ {
		subnormal[i] = float64(rng.Intn(9)-4) * math.SmallestNonzeroFloat64
		tinyToHuge[i] = []float64{0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-300, 1, -1, 1e300}[rng.Intn(7)]
		skewed[i] = math.Exp(rng.NormFloat64() * 3)
		twoValues[i] = float64(rng.Intn(2))
		smallInts[i] = int64(rng.Intn(1000)) - 500
	}
	if n > 0 {
		oneNaN[rng.Intn(n)] = math.NaN()
	}
	return []zonedCase{
		floatCase("onenan", oneNaN),
		floatCase("subnormal", subnormal),
		floatCase("tinytohuge", tinyToHuge),
		floatCase("skewed", skewed),
		floatCase("twovalues", twoValues),
		intCase("smallints", smallInts),
	}
}

// sketchCases is every column shape of the zone suites plus the sketch's
// own.
func sketchCases(t *testing.T, rng *rand.Rand, n int) []zonedCase {
	return append(zonedCases(t, rng, n), sketchOwnCases(rng, n)...)
}

// wantSketch states the rule independently of the builder: a plain numeric
// column has a sketch exactly when it holds no NaN and 128 over its spread
// is a finite positive number.
func wantSketch(col Column) bool {
	if col.Encoding() != Plain || col.Len() == 0 {
		return false
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < col.Len(); i++ {
		v := col.Float(i)
		if math.IsNaN(v) {
			return false
		}
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	scale := 128 / (hi - lo)
	return scale > 0 && !math.IsInf(scale, 0)
}

// sketchRanges is zonedRanges plus, for a sketched column, ranges placed
// on and around every occupied bucket's observed bounds and inside single
// buckets.
func sketchRanges(rng *rand.Rand, c zonedCase) [][2]float64 {
	out := zonedRanges(rng, c)
	s := SketchOf(c.col)
	if s == nil {
		return out
	}
	inf := math.Inf(1)
	var occupied []int
	for k := 0; k < s.Buckets(); k++ {
		if bmin, bmax := s.Bounds(k); bmin <= bmax {
			occupied = append(occupied, k)
		}
	}
	for i, k := range occupied {
		bmin, bmax := s.Bounds(k)
		mid := bmin + (bmax-bmin)/2
		out = append(out,
			[2]float64{bmin, bmax}, // the bucket exactly: in, not cut
			[2]float64{math.Nextafter(bmin, inf), bmax},
			[2]float64{bmin, math.Nextafter(bmax, -inf)},
			[2]float64{math.Nextafter(bmin, -inf), math.Nextafter(bmax, inf)},
			[2]float64{bmin, bmin}, [2]float64{bmax, bmax},
			[2]float64{mid, mid}, [2]float64{mid, math.Nextafter(mid, inf)}, // inside one bucket
			[2]float64{bmax, bmin}, // inverted unless the bucket holds one value
			[2]float64{-inf, bmax}, [2]float64{bmin, inf}, [2]float64{mid, math.NaN()})
		// From this bucket's bounds to those of another occupied one,
		// including the gap between neighbours.
		other := occupied[rng.Intn(len(occupied))]
		omin, omax := s.Bounds(other)
		out = append(out, [2]float64{math.Min(bmin, omin), math.Max(bmax, omax)}, [2]float64{mid, omax})
		if i+1 < len(occupied) {
			nmin, _ := s.Bounds(occupied[i+1])
			out = append(out,
				[2]float64{bmax, nmin},
				[2]float64{math.Nextafter(bmax, inf), math.Nextafter(nmin, -inf)}) // between buckets: nothing
		}
	}
	return out
}

// scalarFilter is the oracle that shares no code with the kernels.
func scalarFilter(col Column, lo, hi float64, dst *Bitmap, and bool) {
	for i := 0; i < col.Len(); i++ {
		v := col.Float(i)
		keep := v >= lo && v <= hi
		if and {
			keep = keep && dst.Get(i)
		}
		if keep {
			dst.words[i>>6] |= 1 << uint(i&63)
		} else {
			dst.words[i>>6] &^= 1 << uint(i&63)
		}
	}
}

func TestSketchFilterMatchesKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{0, 1, 63, 64, 65, 130, morsel.Size + 1} {
		cases := sketchCases(t, rng, n)
		for k, c := range cases {
			if got, want := SketchOf(c.col) != nil, wantSketch(c.col); got != want {
				t.Fatalf("n=%d %s: sketch built = %v, want %v", n, c.name, got, want)
			}
			and1, and2 := cases[(k+1)%len(cases)], cases[(k+2)%len(cases)]
			ranges1, ranges2 := sketchRanges(rng, and1), sketchRanges(rng, and2)
			ranges := sketchRanges(rng, c)
			if n > 1000 { // the per-bucket ranges are already exhausted at the small sizes
				rng.Shuffle(len(ranges), func(i, j int) { ranges[i], ranges[j] = ranges[j], ranges[i] })
				ranges = ranges[:60]
			}
			for _, r := range ranges {
				// store on this column, AND on it again with another
				// range, AND on each of the next two columns.
				passes := []struct {
					c zonedCase
					r [2]float64
				}{{c, r}, {c, ranges[rng.Intn(len(ranges))]}, {and1, ranges1[rng.Intn(len(ranges1))]}, {and2, ranges2[rng.Intn(len(ranges2))]}}
				got, kernel, scalar := NewBitmap(n), NewBitmap(n), NewBitmap(n)
				if n > 0 {
					got.words[0] = ^uint64(0) // stale bits a store pass must overwrite
				}
				var preds []RangePred
				for i, p := range passes {
					p.c.col.FilterRange(p.r[0], p.r[1], 0, n, got, i > 0)
					p.c.kernel(p.r[0], p.r[1], kernel, i > 0)
					scalarFilter(p.c.col, p.r[0], p.r[1], scalar, i > 0)
					if !slices.Equal(got.words, kernel.words) || !slices.Equal(got.words, scalar.words) {
						t.Fatalf("n=%d %s [%v, %v], pass %d on %s [%v, %v]:\n sketched %x\n kernel   %x\n scalar   %x",
							n, c.name, r[0], r[1], i, p.c.name, p.r[0], p.r[1], got.words, kernel.words, scalar.words)
					}
					preds = append(preds, RangePred{p.c.col, p.r[0], p.r[1]})
				}
				for _, p := range []int{2, 8} {
					if sel := Select(n, preds, p); !slices.Equal(sel.words, got.words) {
						t.Fatalf("n=%d P=%d %s [%v, %v]: Select differs from the serial passes", n, p, c.name, r[0], r[1])
					}
				}
			}
		}
	}
}

// TestSketchInvariants pins what the exactness argument stands on: the
// code never decreases as the value grows, every bucket's bounds are the
// true extremes of its rows, the tables ascend, and the counts add up.
func TestSketchInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 64, 65, 5000} {
		for _, c := range sketchCases(t, rng, n) {
			s := SketchOf(c.col)
			if s == nil {
				continue
			}
			if len(s.Codes()) != (n+63)/64*64 {
				t.Fatalf("%s: %d codes for %d rows", c.name, len(s.Codes()), n)
			}
			rows := make([]int, n)
			for i := range rows {
				rows[i] = i
			}
			sort.Slice(rows, func(a, b int) bool { return c.col.Float(rows[a]) < c.col.Float(rows[b]) })
			for i := 1; i < n; i++ {
				if s.codes[rows[i]] < s.codes[rows[i-1]] {
					t.Fatalf("%s: code falls from %d to %d as the value rises from %v to %v", c.name,
						s.codes[rows[i-1]], s.codes[rows[i]], c.col.Float(rows[i-1]), c.col.Float(rows[i]))
				}
			}
			var count [sketchBuckets]int64
			tmin, tmax := [sketchBuckets]float64{}, [sketchBuckets]float64{}
			for k := range tmin {
				tmin[k], tmax[k] = math.Inf(1), math.Inf(-1)
			}
			for i := 0; i < n; i++ {
				k, v := s.codes[i], c.col.Float(i)
				count[k]++
				tmin[k], tmax[k] = math.Min(tmin[k], v), math.Max(tmax[k], v)
			}
			for k := 0; k < sketchBuckets; k++ {
				bmin, bmax := s.Bounds(k)
				if s.cum[k+1]-s.cum[k] != count[k] {
					t.Fatalf("%s bucket %d: counted %d rows, table says %d", c.name, k, count[k], s.cum[k+1]-s.cum[k])
				}
				if count[k] > 0 && (bmin != tmin[k] || bmax != tmax[k]) {
					t.Fatalf("%s bucket %d: bounds [%v, %v], rows span [%v, %v]", c.name, k, bmin, bmax, tmin[k], tmax[k])
				}
				if count[k] == 0 && bmin <= bmax {
					t.Fatalf("%s bucket %d is empty but bounded [%v, %v]", c.name, k, bmin, bmax)
				}
				if k > 0 && (s.bmin[k] < s.bmin[k-1] || s.bmax[k] < s.bmax[k-1]) {
					t.Fatalf("%s: bucket tables do not ascend at %d", c.name, k)
				}
			}
			if count[0] == 0 || count[sketchBuckets-1] == 0 || s.cum[sketchBuckets] != int64(n) {
				t.Fatalf("%s: outermost buckets hold %d and %d rows, %d in all", c.name, count[0], count[sketchBuckets-1], s.cum[sketchBuckets])
			}
			if full := s.EstimateRange(math.Inf(-1), math.Inf(1)); full != 1 {
				t.Fatalf("%s: the whole domain estimates %v", c.name, full)
			}
		}
	}
}

// TestSketchCountersAddUp pins the accounting: every row of every word the
// zones leave undecided is counted once, decided or refined; on clustered
// data a bound cuts few rows, and on a skewed column — most rows in the
// bucket the bound cuts — refinement takes most of them.
func TestSketchCountersAddUp(t *testing.T) {
	const n = 100003
	rng := rand.New(rand.NewSource(3))
	col := NewPlainFloats(segmentWalk(rng, n))
	dst := NewBitmap(n)
	col.FilterRange(1, 2, 0, n, dst, false)
	_, _, evaluated := ZonesOf(col).Words()
	decided, refined := SketchOf(col).Rows()
	if lo, hi := (evaluated-1)*64, evaluated*64; decided+refined <= lo || decided+refined > hi {
		t.Fatalf("decided %d + refined %d rows, zones left %d words undecided", decided, refined, evaluated)
	}
	if refined == 0 || refined*8 > decided {
		t.Fatalf("clustered column: decided %d, refined %d", decided, refined)
	}
	t.Logf("clustered: %d of %d words undecided by zones; of their rows %d decided by code, %d refined", evaluated, (n+63)/64, decided, refined)
	live := int64(dst.Count())
	col.FilterRange(1.2, 1.8, 0, n, dst, true)
	decided2, refined2 := SketchOf(col).Rows()
	if got := decided2 + refined2 - decided - refined; got <= 0 || got > live {
		t.Fatalf("AND pass counted %d rows, %d were selected", got, live)
	}

	skew := make([]float64, n)
	for i := range skew {
		skew[i] = math.Exp(rng.NormFloat64() * 3)
	}
	col = NewPlainFloats(skew)
	col.FilterRange(0.5, 2, 0, n, dst, false)
	decided, refined = SketchOf(col).Rows()
	if decided+refined != n || refined < n/2 {
		t.Fatalf("skewed column: decided %d, refined %d of %d", decided, refined, n)
	}
	t.Logf("skewed: %d rows decided by code, %d refined", decided, refined)
}

// TestSketchConcurrentFirstUse: two morsel workers reach a fresh column's
// first FilterRange together — zone map and sketch both go through their
// sync.Once — while a scrape reads the stats, which must build nothing and
// race with nothing. Run under -race.
func TestSketchConcurrentFirstUse(t *testing.T) {
	const n = 4 * morsel.Size
	rng := rand.New(rand.NewSource(9))
	tbl := rawTable("c", map[string]interface{}{"v": segmentWalk(rng, n)}, []string{"v"})
	if st := StatsOf(tbl); len(st.Columns) != 0 {
		t.Fatalf("an unscanned table reports %d columns", len(st.Columns))
	}
	col, _ := ViewOf(tbl.Column("v"))
	if st := StatsOf(tbl); st.SketchBytes != 0 || st.Columns[0].SketchBytes != 0 {
		t.Fatal("a scrape built the sketch")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				StatsOf(tbl)
			}
		}
	}()
	preds := []RangePred{{col, 1, 2}, {col, 1.2, 1.8}}
	got := Select(n, preds, 2)
	close(stop)
	wg.Wait()

	want := NewBitmap(n)
	filterFloats(tbl.Column("v").Floats, 1, 2, 0, n, want, false)
	filterFloats(tbl.Column("v").Floats, 1.2, 1.8, 0, n, want, true)
	if !slices.Equal(got.words, want.words) {
		t.Fatal("concurrent first use differs from the bare kernel")
	}
	st := StatsOf(tbl)
	if c := st.Columns[0]; c.SketchBytes < n || st.SketchBytes != c.SketchBytes || c.SketchRowsDecided == 0 || c.SketchRowsRefined == 0 {
		t.Fatalf("stats after the scan: %+v", c)
	}
}

// FuzzSketchFilter lets the fuzzer pick the values (any bit pattern), the
// range — either free, or snapped onto a bucket's observed minimum or
// maximum when snapLo / snapHi name a bucket — and the prior selection,
// and holds a store pass followed by an AND pass to the scalar oracle.
func FuzzSketchFilter(f *testing.F) {
	inf := math.Inf(1)
	const free = 255 // a snap byte that names no bucket
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{1, 63, 64, 65, 130} {
		cases := append(sketchOwnCases(rng, n), floatCase("clustered", segmentWalk(rng, n)))
		for _, c := range cases {
			fs, ok := c.col.(FloatSlice)
			if !ok {
				continue
			}
			vals := zonedFuzzInput(fs.RawFloats())
			f.Add(vals, 1.0, 2.0, ^uint64(0), uint8(free), uint8(free))
			f.Add(vals, 0.0, 0.0, ^uint64(0), uint8(rng.Intn(128)), uint8(rng.Intn(128)))
			f.Add(vals, -inf, inf, uint64(0x5555555555555555), uint8(0), uint8(127))
		}
	}
	walk := segmentWalk(rng, 300)
	f.Add(zonedFuzzInput(walk), walk[10], walk[200], ^uint64(0), uint8(free), uint8(free))
	f.Add(zonedFuzzInput(walk), 2.0, 1.0, ^uint64(0), uint8(free), uint8(free))
	f.Add(zonedFuzzInput(walk), math.NaN(), 1.0, ^uint64(0), uint8(free), uint8(64))
	f.Add(zonedFuzzInput(walk), math.Copysign(0, -1), 0.0, uint64(1), uint8(127), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, lo, hi float64, prior uint64, snapLo, snapHi uint8) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
		n := len(vals)
		col := NewPlainFloats(vals)
		if s := SketchOf(col); s != nil {
			if snapLo < sketchBuckets {
				lo, _ = s.Bounds(int(snapLo))
			}
			if snapHi < sketchBuckets {
				_, hi = s.Bounds(int(snapHi))
			}
		}
		got, want := NewBitmap(n), NewBitmap(n)
		for w := range got.words {
			got.words[w] = prior // stale bits the store pass must overwrite
		}
		col.FilterRange(lo, hi, 0, n, got, false)
		scalarFilter(col, lo, hi, want, false)
		if !slices.Equal(got.words, want.words) {
			t.Fatalf("store [%v, %v] over %d rows: sketched %x, scalar %x", lo, hi, n, got.words, want.words)
		}
		// The AND pass narrows by the range mirrored around its middle
		// bound: overlapping, touching or disjoint as the fuzzer likes.
		lo2, hi2 := hi-(hi-lo)/2, hi+(hi-lo)/2
		for w := range got.words {
			x := prior<<(uint(w)&63) | prior>>(64-uint(w)&63)
			got.words[w] &= x
			want.words[w] &= x
		}
		col.FilterRange(lo2, hi2, 0, n, got, true)
		scalarFilter(col, lo2, hi2, want, true)
		if !slices.Equal(got.words, want.words) {
			t.Fatalf("AND [%v, %v] after [%v, %v] over %d rows: sketched %x, scalar %x", lo2, hi2, lo, hi, n, got.words, want.words)
		}
	})
}
