package colstore

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/storage"
)

// The differential suite: every kernel over every encoding must select
// exactly the rows a scalar oracle loop over the original values selects,
// for randomized data shapes and randomized predicates (including strict
// comparisons through RangeFromOp), at parallelism 1, 4, and 8. Run under
// -race this also proves the morsel-parallel word-ownership contract.

// diffColumn is one randomized column plus its oracle view.
type diffColumn struct {
	name   string
	typ    storage.Type
	fvals  []float64 // float64 image per row (numeric columns)
	svals  []string  // string columns
	lo, hi float64   // sensible predicate range for this column's data
}

// genColumns builds a table of every encoding-triggering shape at once.
func genColumns(rng *rand.Rand, n int, withNaN bool) ([]diffColumn, *storage.Table) {
	quant := make([]float64, n) // low-cardinality floats → dict
	dense := make([]float64, n) // high-cardinality floats → plain
	walk := make([]int64, n)    // narrow int range → for
	sparse := make([]int64, n)  // low-card ints over wide range → dict
	big := make([]int64, n)     // distinct values past ±2^52 → plain ints
	cat := make([]string, n)    // categories → string dict
	names := []string{"car", "bus", "bike", "walk", "tram", "rail"}
	v := int64(5000)
	for i := 0; i < n; i++ {
		quant[i] = float64(rng.Intn(500)-250) / 100
		dense[i] = rng.NormFloat64() * 10
		v += int64(rng.Intn(21) - 10)
		walk[i] = v
		sparse[i] = int64(rng.Intn(40)) * 1_000_000_007
		big[i] = (int64(1) << 53) + int64(i)*4096
		cat[i] = names[rng.Intn(len(names))]
	}
	if withNaN {
		for i := 0; i < n/50+1; i++ {
			dense[rng.Intn(n)] = math.NaN()
		}
	}
	cols := []diffColumn{
		{name: "quant", typ: storage.Float64, fvals: quant, lo: -2.5, hi: 2.5},
		{name: "dense", typ: storage.Float64, fvals: dense, lo: -30, hi: 30},
		{name: "walk", typ: storage.Int64, fvals: intImage(walk), lo: 3000, hi: 8000},
		{name: "sparse", typ: storage.Int64, fvals: intImage(sparse), lo: 0, hi: 40_000_000_000},
		{name: "big", typ: storage.Int64, fvals: intImage(big), lo: float64(int64(1) << 53), hi: float64(int64(1)<<53 + 1<<24)},
		{name: "cat", typ: storage.String, svals: cat},
	}
	tbl := rawTable("diff", map[string]interface{}{
		"quant": quant, "dense": dense, "walk": walk, "sparse": sparse, "big": big, "cat": cat,
	}, []string{"quant", "dense", "walk", "sparse", "big", "cat"})
	return cols, tbl
}

func intImage(vals []int64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = float64(v)
	}
	return out
}

// assertBitmap compares a kernel-produced bitmap to a per-row oracle
// predicate over [0, n).
func assertBitmap(t *testing.T, what string, bm *Bitmap, n int, oracle func(i int) bool) {
	t.Helper()
	for i := 0; i < n; i++ {
		if bm.Get(i) != oracle(i) {
			t.Fatalf("%s: row %d selected=%v, oracle=%v", what, i, bm.Get(i), oracle(i))
		}
	}
	// Bits past n in the final word must be zero (the kernel contract).
	if n%64 != 0 {
		last := bm.Words()[len(bm.Words())-1]
		if last>>(uint(n)&63) != 0 {
			t.Fatalf("%s: bits past row %d are set in the final word", what, n)
		}
	}
}

func TestDifferentialFilterRange(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{130, 50_000} {
		cols, tbl := genColumns(rng, n, true)
		frozen, err := Freeze(tbl, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, dc := range cols {
			if dc.typ == storage.String {
				continue
			}
			col, ok := Of(frozen.Column(dc.name))
			if !ok {
				t.Fatalf("column %q not encoded", dc.name)
			}
			for trial := 0; trial < 40; trial++ {
				op := []string{">=", "<=", ">", "<"}[rng.Intn(4)]
				x := dc.lo + rng.Float64()*(dc.hi-dc.lo)
				lo, hi := RangeFromOp(op, x)
				bm := NewBitmap(n)
				col.FilterRange(lo, hi, 0, n, bm, false)
				assertBitmap(t, dc.name+" "+op, bm, n, func(i int) bool {
					v := dc.fvals[i]
					switch op {
					case ">=":
						return v >= x
					case "<=":
						return v <= x
					case ">":
						return v > x
					default:
						return v < x
					}
				})
			}
			// Degenerate bounds: empty, everything, NaN.
			for _, b := range [][2]float64{{1, -1}, {math.Inf(-1), math.Inf(1)}, {math.NaN(), math.NaN()}} {
				bm := NewBitmap(n)
				bm.Set(0) // stale bit: and=false must overwrite it
				col.FilterRange(b[0], b[1], 0, n, bm, false)
				lo, hi := b[0], b[1]
				assertBitmap(t, dc.name+" degenerate", bm, n, func(i int) bool {
					v := dc.fvals[i]
					return v >= lo && v <= hi
				})
			}
		}
	}
}

func TestDifferentialSelectParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 50_000 // > 2 morsels, non-64-multiple tail
	cols, tbl := genColumns(rng, n, true)
	frozen, err := Freeze(tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	numeric := cols[:5]
	for trial := 0; trial < 25; trial++ {
		k := 1 + rng.Intn(3)
		var preds []RangePred
		var oracle []func(i int) bool
		for j := 0; j < k; j++ {
			dc := numeric[rng.Intn(len(numeric))]
			col, _ := Of(frozen.Column(dc.name))
			op := []string{">=", "<=", ">", "<"}[rng.Intn(4)]
			x := dc.lo + rng.Float64()*(dc.hi-dc.lo)
			lo, hi := RangeFromOp(op, x)
			preds = append(preds, RangePred{Col: col, Lo: lo, Hi: hi})
			fv := dc.fvals
			oracle = append(oracle, func(i int) bool {
				v := fv[i]
				switch op {
				case ">=":
					return v >= x
				case "<=":
					return v <= x
				case ">":
					return v > x
				default:
					return v < x
				}
			})
		}
		want := func(i int) bool {
			for _, f := range oracle {
				if !f(i) {
					return false
				}
			}
			return true
		}
		ref := Select(n, preds, 1)
		assertBitmap(t, "select serial", ref, n, want)
		for _, p := range []int{4, 8} {
			got := Select(n, preds, p)
			for w := range ref.Words() {
				if got.Words()[w] != ref.Words()[w] {
					t.Fatalf("trial %d P=%d: word %d differs from serial", trial, p, w)
				}
			}
		}
	}
	// No predicates selects everything at every parallelism.
	for _, p := range []int{1, 4, 8} {
		all := Select(n, nil, p)
		if all.Count() != n {
			t.Fatalf("P=%d: empty conjunction selected %d of %d", p, all.Count(), n)
		}
	}
}

func TestDifferentialAndIntersection(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 10_000
	cols, tbl := genColumns(rng, n, true)
	frozen, err := Freeze(tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := Of(frozen.Column(cols[0].name))
	b, _ := Of(frozen.Column(cols[2].name))
	for trial := 0; trial < 30; trial++ {
		aLo := cols[0].lo + rng.Float64()*(cols[0].hi-cols[0].lo)
		bHi := cols[2].lo + rng.Float64()*(cols[2].hi-cols[2].lo)
		bm := NewBitmap(n)
		a.FilterRange(aLo, math.Inf(1), 0, n, bm, false)
		b.FilterRange(math.Inf(-1), bHi, 0, n, bm, true)
		assertBitmap(t, "and-chain", bm, n, func(i int) bool {
			return cols[0].fvals[i] >= aLo && cols[2].fvals[i] <= bHi
		})
		// A select-nothing AND zeroes everything previously selected.
		bm2 := NewBitmap(n)
		a.FilterRange(math.Inf(-1), math.Inf(1), 0, n, bm2, false)
		b.FilterRange(math.NaN(), math.NaN(), 0, n, bm2, true)
		if bm2.Count() != 0 {
			t.Fatalf("NaN AND left %d rows selected", bm2.Count())
		}
	}
}
