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

// BenchmarkZoneStepNothingToSkip prices the zone step where it cannot
// help: a shuffled Listings latitude column, whose every 64-row zone spans
// most of the domain, so a mid-selectivity range leaves every word
// undecided. "zoned" is FilterRange, "kernel" the bare row kernel; the
// difference (the per-word bounds test) should stay within ~5%.
func BenchmarkZoneStepNothingToSkip(b *testing.B) {
	vals := dataset.Listings(1, 1<<18).Column("lat").Floats
	rand.New(rand.NewSource(1)).Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	n := len(vals)
	col := NewPlainFloats(vals)
	dst := NewBitmap(n)
	const lo, hi = 34.0, 41.0
	col.FilterRange(lo, hi, 0, n, dst, false)
	if skipped, filled, _ := ZonesOf(col).Words(); skipped+filled > int64(n/64/100) {
		b.Fatalf("zones decided %d+%d of %d words; the column is not unclustered", skipped, filled, n/64)
	}
	b.Run("zoned", func(b *testing.B) {
		b.SetBytes(int64(n))
		for i := 0; i < b.N; i++ {
			col.FilterRange(lo, hi, 0, n, dst, false)
		}
	})
	b.Run("kernel", func(b *testing.B) {
		b.SetBytes(int64(n))
		for i := 0; i < b.N; i++ {
			filterFloats(vals, lo, hi, 0, n, dst, false)
		}
	})
}
