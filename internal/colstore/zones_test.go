package colstore

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/morsel"
)

// The zone step may only ever change which rows reach the row kernel,
// never the bitmap that comes out. zonedCase pairs a zone-mapped column
// with the bare kernel of its encoding over the whole row range — what
// FilterRange would run if every zone were undecided.

type zonedCase struct {
	name   string
	col    Column
	kernel func(lo, hi float64, dst *Bitmap, and bool)
}

func floatCase(name string, vals []float64) zonedCase {
	return zonedCase{name, NewPlainFloats(vals), func(lo, hi float64, dst *Bitmap, and bool) {
		filterFloats(vals, lo, hi, 0, len(vals), dst, and)
	}}
}

func intCase(name string, vals []int64) zonedCase {
	return zonedCase{name, NewPlainInts(vals), func(lo, hi float64, dst *Bitmap, and bool) {
		filterInts(vals, lo, hi, 0, len(vals), dst, and)
	}}
}

// codedCase takes a column Freeze has packed (dictionary or frame of
// reference).
func codedCase(t *testing.T, name string, col Column) zonedCase {
	t.Helper()
	coded, ok := col.(Coded)
	if !ok {
		t.Fatalf("%s: froze to %s, not a coded column", name, col.EncodingName())
	}
	return zonedCase{name, col, func(lo, hi float64, dst *Bitmap, and bool) {
		cLo, cHi, ok := coded.CodeRange(lo, hi)
		if !ok {
			dst.ZeroRange(0, coded.Len())
			return
		}
		filterCodes(coded.Codes(), cLo, cHi, 0, coded.Len(), dst, and)
	}}
}

// segmentWalk imitates the road data: runs of 20–420 consecutive rows
// within ~0.1 of each other inside a domain 3 wide.
func segmentWalk(rng *rand.Rand, n int) []float64 {
	vals := make([]float64, n)
	for i := 0; i < n; {
		at := rng.Float64() * 3
		for end := i + 20 + rng.Intn(400); i < end && i < n; i++ {
			at += (rng.Float64() - 0.5) * 0.002
			vals[i] = at
		}
	}
	return vals
}

// zonedCases builds every column shape at n rows.
func zonedCases(t *testing.T, rng *rand.Rand, n int) []zonedCase {
	clustered := segmentWalk(rng, n)
	shuffled := slices.Clone(clustered)
	rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	constant := make([]float64, n)
	withNaN := slices.Clone(clustered)
	withInf := slices.Clone(clustered)
	zeros := make([]float64, n) // ±0.0 and neighbours
	walk := make([]int64, n)    // narrow range → frame of reference
	big := make([]int64, n)     // past ±2^52 → plain ints
	quant := make([]float64, n) // few distinct values → dictionary
	for i := 0; i < n; i++ {
		constant[i] = 1.5
		if rng.Intn(97) == 0 {
			withNaN[i] = math.NaN()
		}
		if rng.Intn(97) == 0 {
			withInf[i] = math.Inf(1 - 2*rng.Intn(2))
		}
		zeros[i] = []float64{math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}[rng.Intn(4)]
		walk[i] = int64(clustered[i] * 1000)
		big[i] = (int64(1) << 53) + int64(clustered[i]*1e6)*4096
		quant[i] = math.Round(clustered[i]*20) / 20
	}
	cases := []zonedCase{
		floatCase("clustered", clustered),
		floatCase("shuffled", shuffled),
		floatCase("constant", constant),
		floatCase("nan", withNaN),
		floatCase("inf", withInf),
		floatCase("zeros", zeros),
		intCase("bigints", big),
	}
	if n >= 64 { // too few rows and a dictionary or packing does not pay
		frozen, err := Freeze(rawTable("z", map[string]interface{}{"walk": walk, "quant": quant}, []string{"walk", "quant"}), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"walk", "quant"} {
			col, _ := Of(frozen.Column(name))
			cases = append(cases, codedCase(t, name, col))
		}
	}
	return cases
}

// zonedRanges draws closed ranges for a column: random ones across its
// domain plus every edge the zone tests can trip on.
func zonedRanges(rng *rand.Rand, c zonedCase) [][2]float64 {
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	out := [][2]float64{
		{1, -1}, {inf, -inf}, // inverted
		{-inf, inf}, {-inf, 1.5}, {1.5, inf}, {inf, inf}, {-inf, -inf},
		{nan, 1}, {1, nan}, {nan, nan},
		{negZero, 0}, {0, negZero}, {0, 0}, {negZero, negZero},
		{1.5, 1.5}, // the constant column's one value
	}
	n := c.col.Len()
	if n == 0 {
		return out
	}
	z := ZonesOf(c.col)
	for k := 0; k < 12; k++ {
		// Bounds exactly on, and one ULP either side of, some zone's
		// minimum and another's maximum.
		zmin, _ := z.Bounds(rng.Intn((n + 63) / 64))
		_, zmax := z.Bounds(rng.Intn((n + 63) / 64))
		out = append(out,
			[2]float64{zmin, zmax},
			[2]float64{math.Nextafter(zmin, inf), zmax},
			[2]float64{zmin, math.Nextafter(zmax, -inf)},
			[2]float64{math.Nextafter(zmin, -inf), math.Nextafter(zmax, inf)})
		a, b := c.col.Float(rng.Intn(n)), c.col.Float(rng.Intn(n))
		out = append(out, [2]float64{math.Min(a, b), math.Max(a, b)}, [2]float64{a, a})
	}
	return out
}

func TestZonedFilterMatchesUnzoned(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{0, 1, 63, 64, 65, morsel.Size - 1, morsel.Size, morsel.Size + 1, 100003} {
		cases := zonedCases(t, rng, n)
		for k, c := range cases {
			and := cases[(k+1)%len(cases)] // the column of the AND pass
			andRanges := zonedRanges(rng, and)
			for _, r := range zonedRanges(rng, c) {
				ar := andRanges[rng.Intn(len(andRanges))]
				want := NewBitmap(n)
				c.kernel(r[0], r[1], want, false)
				stored := slices.Clone(want.words)
				and.kernel(ar[0], ar[1], want, true)

				got := NewBitmap(n)
				if n > 0 {
					got.words[0] = ^uint64(0) // stale bits a store pass must overwrite
				}
				c.col.FilterRange(r[0], r[1], 0, n, got, false)
				if !slices.Equal(got.words, stored) {
					t.Fatalf("n=%d %s [%v, %v]: store pass differs from the bare kernel", n, c.name, r[0], r[1])
				}
				preds := []RangePred{{c.col, r[0], r[1]}, {and.col, ar[0], ar[1]}}
				for _, p := range []int{1, 2, 4, 8} {
					if got := Select(n, preds, p); !slices.Equal(got.words, want.words) {
						t.Fatalf("n=%d P=%d %s [%v, %v] AND %s [%v, %v]: differs from the bare kernels",
							n, p, c.name, r[0], r[1], and.name, ar[0], ar[1])
					}
				}
			}
		}
	}
}

// TestZoneCountersAddUp pins the accounting: every word of every
// FilterRange call lands in exactly one counter, and clustered data
// actually gets decided.
func TestZoneCountersAddUp(t *testing.T) {
	const n = 100003
	vals := segmentWalk(rand.New(rand.NewSource(3)), n)
	col := NewPlainFloats(vals)
	dst := NewBitmap(n)
	col.FilterRange(1, 2, 0, n, dst, false)
	col.FilterRange(1.2, 1.8, 0, n, dst, true)
	skipped, filled, evaluated := ZonesOf(col).Words()
	if words := int64((n + 63) / 64); skipped+filled+evaluated != 2*words {
		t.Fatalf("skipped %d + filled %d + evaluated %d != %d words filtered", skipped, filled, evaluated, 2*words)
	}
	if skipped == 0 || filled == 0 || evaluated == 0 || evaluated > (skipped+filled)/2 {
		t.Fatalf("clustered column decided too little: skipped %d filled %d evaluated %d", skipped, filled, evaluated)
	}
}

// zonedFuzzInput serialises a fuzz seed: the column's values, eight bytes
// each.
func zonedFuzzInput(vals []float64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzZonedFilter lets the fuzzer pick the values (any bit pattern: NaNs
// with payloads, infinities, denormals, both zeros), the range and the
// prior selection.
func FuzzZonedFilter(f *testing.F) {
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(5))
	walk := segmentWalk(rng, 300)
	f.Add(zonedFuzzInput(walk), 1.0, 2.0, uint64(0))
	f.Add(zonedFuzzInput(walk), walk[64], walk[127], ^uint64(0))
	f.Add(zonedFuzzInput(walk), 2.0, 1.0, uint64(0x5555555555555555))
	f.Add(zonedFuzzInput(append(slices.Clone(walk[:100]), nan, inf, -inf)), -inf, inf, ^uint64(0))
	f.Add(zonedFuzzInput([]float64{negZero, 0, negZero, 0}), 0.0, negZero, ^uint64(0))
	f.Add(zonedFuzzInput(walk[:65]), nan, 1.0, ^uint64(0))
	f.Add([]byte{}, 0.0, 1.0, uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, lo, hi float64, prior uint64) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
		n := len(vals)
		col := NewPlainFloats(vals)
		for _, and := range []bool{false, true} {
			got, want := NewBitmap(n), NewBitmap(n)
			for w := range got.words {
				// The prior selection of an AND pass (stale bits for a
				// store pass), rotated so words differ; bits past n stay
				// zero as the bitmap contract requires.
				x := prior<<(uint(w)&63) | prior>>(64-uint(w)&63)
				if w == len(got.words)-1 && n%64 != 0 {
					x &= ^uint64(0) >> uint(64-n%64)
				}
				got.words[w], want.words[w] = x, x
			}
			col.FilterRange(lo, hi, 0, n, got, and)
			filterFloats(vals, lo, hi, 0, n, want, and)
			if !slices.Equal(got.words, want.words) {
				t.Fatalf("and=%v [%v, %v] over %d rows: zoned %x, bare kernel %x", and, lo, hi, n, got.words, want.words)
			}
		}
	})
}

// A zone map over a coded column must bound the decoded values, the same
// numbers its plain twin would give.
func TestZonesOfCodedColumnsAreValueSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 1000
	walk := make([]int64, n)
	quant := make([]float64, n)
	for i, v := range segmentWalk(rng, n) {
		walk[i] = int64(v*1000) - 1500
		quant[i] = math.Round(v*20)/20 - 1.5
	}
	frozen, err := Freeze(rawTable("z", map[string]interface{}{"walk": walk, "quant": quant}, []string{"walk", "quant"}), nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, plain := range map[string]Column{"walk": NewPlainInts(walk), "quant": NewPlainFloats(quant)} {
		col, _ := Of(frozen.Column(name))
		if col.Encoding() == Plain {
			t.Fatalf("%s stayed plain", name)
		}
		if !slices.Equal(ZonesOf(col).mm, ZonesOf(plain).mm) {
			t.Fatalf("%s: coded zone bounds differ from the plain column's", name)
		}
	}
	if ZonesOf(NewPlainStrings([]string{"a"})) != nil {
		t.Fatal("string column has a zone map")
	}
}
