package colstore

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// benchPacked builds n packed codes of the given width.
func benchPacked(n int, width uint) *PackedInts {
	rng := rand.New(rand.NewSource(int64(width)))
	vals := make([]uint64, n)
	max := uint64(1)<<width - 1
	for i := range vals {
		vals[i] = rng.Uint64() & max
	}
	return PackInts(vals, width)
}

func benchFilterCodes(b *testing.B, width uint, and bool) {
	const n = 1 << 20
	p := benchPacked(n, width)
	dst := NewBitmap(n)
	if and {
		// A half-dense prior selection: the AND pass walks its set bits.
		for w := range dst.words {
			dst.words[w] = 0x5555555555555555
		}
	}
	max := uint64(1)<<width - 1
	cLo, cHi := max/4, 3*max/4
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		filterCodes(p, cLo, cHi, 0, n, dst, and)
		if and {
			// Restore the prior selection so every iteration does the
			// same work (the AND pass clears bits).
			for w := range dst.words {
				dst.words[w] = 0x5555555555555555
			}
		}
	}
}

func BenchmarkFilterCodesW4(b *testing.B)     { benchFilterCodes(b, 4, false) }
func BenchmarkFilterCodesW16(b *testing.B)    { benchFilterCodes(b, 16, false) }
func BenchmarkFilterCodesW24(b *testing.B)    { benchFilterCodes(b, 24, false) }
func BenchmarkFilterCodesAndW16(b *testing.B) { benchFilterCodes(b, 16, true) }

func BenchmarkFilterFloats(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(9))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	dst := NewBitmap(n)
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		filterFloats(vals, 0.25, 0.75, 0, n, dst, false)
	}
}

func BenchmarkPackedGet(b *testing.B) {
	const n = 1 << 20
	p := benchPacked(n, 16)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += p.Get(i & (n - 1))
	}
	_ = sink
}

// shuffledLat is the column where zones cannot help: a shuffled Listings
// latitude, whose every 64-row zone spans most of the domain, so the
// mid-selectivity range [nothingLo, nothingHi] leaves every word undecided.
// It returns the column after one store pass (zones and sketch built).
func shuffledLat(b *testing.B) ([]float64, *PlainFloats, *Bitmap) {
	vals := dataset.Listings(1, 1<<18).Column("lat").Floats
	rand.New(rand.NewSource(1)).Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	n := len(vals)
	col := NewPlainFloats(vals)
	dst := NewBitmap(n)
	col.FilterRange(nothingLo, nothingHi, 0, n, dst, false)
	if skipped, filled, _ := ZonesOf(col).Words(); skipped+filled > int64(n/64/100) {
		b.Fatalf("zones decided %d+%d of %d words; the column is not unclustered", skipped, filled, n/64)
	}
	return vals, col, dst
}

const nothingLo, nothingHi = 34.0, 41.0

// BenchmarkZoneStepNothingToSkip prices the zone step where it cannot
// help. "zoned" is the zone step handing its one whole-range run to the
// bare row kernel, "kernel" that kernel alone; the difference (the per-word
// bounds test) should stay within ~5%.
func BenchmarkZoneStepNothingToSkip(b *testing.B) {
	vals, col, dst := shuffledLat(b)
	n := len(vals)
	b.Run("zoned", func(b *testing.B) {
		b.SetBytes(int64(n))
		for i := 0; i < b.N; i++ {
			ZonesOf(col).filter(nothingLo, nothingHi, 0, n, dst, false, func(u0, u1 int) {
				filterFloats(vals, nothingLo, nothingHi, u0, u1, dst, false)
			})
		}
	})
	b.Run("kernel", func(b *testing.B) {
		b.SetBytes(int64(n))
		for i := 0; i < b.N; i++ {
			filterFloats(vals, nothingLo, nothingHi, 0, n, dst, false)
		}
	})
}

// BenchmarkSketchNothingToSkip reads the same column with the sketch in
// front, every word reaching it: "sketched" is FilterRange (64 B of codes
// per word, then the values of the two cut buckets' rows), "kernel" the
// bare row kernel over the same words (512 B each). "and" repeats the pair
// as the second pass of a conjunction over a half-dense selection.
func BenchmarkSketchNothingToSkip(b *testing.B) {
	vals, col, dst := shuffledLat(b)
	n := len(vals)
	if SketchOf(col) == nil {
		b.Fatal("the column has no sketch")
	}
	decided, refined := SketchOf(col).Rows()
	b.Logf("one pass: %d rows decided by code, %d refined by value", decided, refined)
	halfDense := func() {
		for w := range dst.words {
			dst.words[w] = 0x5555555555555555
		}
	}
	for _, and := range []bool{false, true} {
		prefix := ""
		if and {
			prefix = "and/"
		}
		b.Run(prefix+"sketched", func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				if and {
					halfDense()
				}
				col.FilterRange(nothingLo, nothingHi, 0, n, dst, and)
			}
		})
		b.Run(prefix+"kernel", func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				if and {
					halfDense()
				}
				filterFloats(vals, nothingLo, nothingHi, 0, n, dst, and)
			}
		})
	}
}

// BenchmarkDerivedDataBuild prices what the first range filter on a column
// pays once: the zone map (min/max per 64 rows) and the sketch (one code
// per row plus the bucket tables), each reported as ns/row (SetBytes counts
// rows, so MB/s reads as rows/µs).
func BenchmarkDerivedDataBuild(b *testing.B) {
	vals := dataset.Roads(1, 1<<18).Column("x").Floats
	n := len(vals)
	zm := ZonesOf(NewPlainFloats(vals))
	b.Run("zones", func(b *testing.B) {
		b.SetBytes(int64(n))
		for i := 0; i < b.N; i++ {
			zoneBounds(NewPlainFloats(vals))
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
	})
	b.Run("sketch", func(b *testing.B) {
		b.SetBytes(int64(n))
		for i := 0; i < b.N; i++ {
			if buildSketch(vals, zm) == nil {
				b.Fatal("no sketch")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
	})
}

// BenchmarkFreeze prices Freeze on the 500k-row road table every
// `-encode` server freezes at startup (three float columns, none of which
// a dictionary pays for), zones included, in ns per row.
func BenchmarkFreeze(b *testing.B) {
	t := dataset.Roads(1, 500000)
	n := t.NumRows()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Freeze(t, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
}
