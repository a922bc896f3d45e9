package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/colstore"
	"repro/internal/dataset"
	"repro/internal/sql"
	"repro/internal/storage"
)

// encTestTable builds a table whose columns freeze to every encoding the
// histogram fast path can meet: quantized floats (dict), dense floats
// (plain), narrow ints (frame-of-reference), and sparse ints (int dict).
func encTestTable(seed int64, n int) *storage.Table {
	rng := rand.New(rand.NewSource(seed))
	xq := make([]float64, n)
	y := make([]float64, n)
	lanes := make([]int64, n)
	zone := make([]int64, n)
	for i := 0; i < n; i++ {
		xq[i] = 8.1 + float64(rng.Intn(3000))/1000
		y[i] = 56.5 + rng.Float64()*1.3
		lanes[i] = int64(1 + rng.Intn(6))
		zone[i] = int64(rng.Intn(30)) * 1_000_003
	}
	return &storage.Table{
		Name: "enc",
		Schema: storage.Schema{
			{Name: "xq", Type: storage.Float64},
			{Name: "y", Type: storage.Float64},
			{Name: "lanes", Type: storage.Int64},
			{Name: "zone", Type: storage.Int64},
		},
		Columns: []*storage.Column{
			{Type: storage.Float64, Floats: xq},
			{Type: storage.Float64, Floats: y},
			{Type: storage.Int64, Ints: lanes},
			{Type: storage.Int64, Ints: zone},
		},
		PageRows: storage.DefaultPageRows,
	}
}

// assertSameResult compares two histogram results row-for-row.
func assertSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows vs %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if got.Rows[i][0].F != want.Rows[i][0].F || got.Rows[i][1].I != want.Rows[i][1].I {
			t.Fatalf("%s row %d: (%v, %v) vs (%v, %v)", label, i,
				got.Rows[i][0].F, got.Rows[i][1].I, want.Rows[i][0].F, want.Rows[i][1].I)
		}
	}
}

// TestEncodedHistogramMatchesPlain runs randomized histogram-shaped queries
// against a plain engine and a frozen-table engine at several parallelism
// levels; every result must be identical bin-for-bin, count-for-count, and
// both must take the fast path.
func TestEncodedHistogramMatchesPlain(t *testing.T) {
	n := 60_000
	raw := encTestTable(31, n)
	frozen, err := colstore.Freeze(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"xq", "y", "lanes", "zone"} {
		if _, ok := colstore.Of(frozen.Column(name)); !ok {
			t.Fatalf("column %q did not encode", name)
		}
	}

	plainEng := memEngine(raw)
	encEng := memEngine(frozen)
	rng := rand.New(rand.NewSource(77))

	bins := []struct{ col, expr string }{
		{"xq", "ROUND((xq - 8.1) / 0.15)"},
		{"y", "ROUND((y - 56.5) / 0.065)"},
		{"lanes", "ROUND(lanes)"},
		{"zone", "ROUND(zone / 1000003)"},
	}
	predCols := []struct {
		name   string
		lo, hi float64
	}{
		{"xq", 8.1, 11.1},
		{"y", 56.5, 57.8},
		{"lanes", 1, 6},
		{"zone", 0, 29_000_087},
	}

	for trial := 0; trial < 40; trial++ {
		b := bins[rng.Intn(len(bins))]
		where := ""
		for j, k := 0, rng.Intn(3); j < k; j++ {
			p := predCols[rng.Intn(len(predCols))]
			op := []string{">=", "<=", ">", "<"}[rng.Intn(4)]
			x := p.lo + rng.Float64()*(p.hi-p.lo)
			cond := fmt.Sprintf("%s %s %v", p.name, op, x)
			if where == "" {
				where = " WHERE " + cond
			} else {
				where += " AND " + cond
			}
		}
		q := fmt.Sprintf("SELECT %s, COUNT(*) FROM enc%s GROUP BY %s ORDER BY %s", b.expr, where, b.expr, b.expr)

		for _, par := range []int{1, 4, 8} {
			plainEng.SetParallelism(par)
			encEng.SetParallelism(par)
			want, err := plainEng.Query(q)
			if err != nil {
				t.Fatalf("plain: %v (query %s)", err, q)
			}
			got, err := encEng.Query(q)
			if err != nil {
				t.Fatalf("encoded: %v (query %s)", err, q)
			}
			if !want.Stats.UsedFastPath || !got.Stats.UsedFastPath {
				t.Fatalf("fast path not used (plain %v, encoded %v) for %s", want.Stats.UsedFastPath, got.Stats.UsedFastPath, q)
			}
			assertSameResult(t, fmt.Sprintf("trial %d P=%d", trial, par), got, want)
			// Cost accounting must not depend on the encoding.
			if got.Stats.TuplesScanned != want.Stats.TuplesScanned {
				t.Fatalf("trial %d P=%d: tuples %d vs %d", trial, par, got.Stats.TuplesScanned, want.Stats.TuplesScanned)
			}
		}
	}
}

// TestMixedEncodingTakesFastPath freezes only one referenced column: the
// frozen column brings its dictionary kernel, the raw ones their views,
// and the statement runs the one fast path — with the answer of the scalar
// loop over the raw table and of the generic path.
func TestMixedEncodingTakesFastPath(t *testing.T) {
	n := 5_000
	raw := encTestTable(9, n)
	frozen, err := colstore.Freeze(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if enc, _ := colstore.Of(frozen.Columns[0]); enc.Encoding() != colstore.Dict {
		t.Fatalf("xq froze to %v; the test wants a dictionary column beside views", enc.Encoding())
	}
	mixed := &storage.Table{
		Name:     raw.Name,
		Schema:   raw.Schema,
		Columns:  []*storage.Column{frozen.Columns[0], raw.Columns[1], raw.Columns[2], raw.Columns[3]},
		PageRows: raw.PageRows,
	}
	plainEng := memEngine(raw)
	mixEng := memEngine(mixed)
	// xq is 8.1 + k/1000: a bin width of 0.1501 keeps every value clear of
	// a bin edge, where the fast path's a·v + b and the generic path's
	// (v - lo) / w may round a tie apart.
	const bin = "ROUND((xq - 8.1) / 0.1501)"
	q := "SELECT " + bin + ", COUNT(*) FROM enc WHERE y >= 57 AND xq < 10.2 GROUP BY " + bin + " ORDER BY " + bin
	// The secondary ORDER BY key forces the control onto the generic path.
	want, err := plainEng.Query(q + ", COUNT(*)")
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.UsedFastPath {
		t.Fatal("plain control query unexpectedly took the fast path")
	}
	got, err := mixEng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Stats.UsedFastPath {
		t.Fatal("mixed-encoding table did not take the fast path")
	}
	assertSameResult(t, "mixed vs generic", got, want)
	hq, ok := plainEng.matchHistogram(sql.MustParse(q))
	if !ok {
		t.Fatal("statement is not histogram-shaped")
	}
	assertSameRows(t, "mixed vs scalar", got.Rows, scalarRows(hq, n))
	got.Stats.RealTime, want.Stats.RealTime, want.Stats.UsedFastPath = 0, 0, true
	if got.Stats != want.Stats {
		t.Fatalf("stats %+v, generic %+v", got.Stats, want.Stats)
	}
}

// TestEncodedRoadsHistogram exercises the realistic full-precision road
// table, whose float columns freeze to the plain passthrough — the encoded
// fast path must still engage (a frozen table has no raw slices) and agree.
func TestEncodedRoadsHistogram(t *testing.T) {
	roads := dataset.Roads(3, 30_000)
	frozen, err := colstore.Freeze(roads, nil)
	if err != nil {
		t.Fatal(err)
	}
	plainEng := memEngine(roads)
	encEng := memEngine(frozen)
	q := `SELECT ROUND((y - 56.582) / 0.0596), COUNT(*) FROM dataroad
		WHERE x >= 9.0 AND x <= 10.5 AND z < 40
		GROUP BY ROUND((y - 56.582) / 0.0596) ORDER BY ROUND((y - 56.582) / 0.0596)`
	want, err := plainEng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := encEng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Stats.UsedFastPath {
		t.Fatal("frozen roads table did not take the fast path")
	}
	assertSameResult(t, "roads", got, want)
}

// TestEncodedWordBinningMatchesPerRow aims the encoded fast path's
// whole-word bin shortcut at every zone it must not take it for — a zone
// spanning a bin edge, binning outside the dense window on either side,
// holding a NaN or an infinity, a partial tail word — beside zones it does
// take it for, and requires the plain engine's row-at-a-time answer and
// cost accounting, with and without predicates thinning each word.
func TestEncodedWordBinningMatchesPerRow(t *testing.T) {
	// One 404-row stripe per shape, repeated; 404 is not a multiple of 64,
	// so every repeat lays the shapes across word boundaries differently.
	shapes := []func(j int) float64{
		func(j int) float64 { return 3.1 + float64(j)*0.003 },  // one bin
		func(j int) float64 { return 3.4 + float64(j)*0.003 },  // spans the 3|4 edge
		func(j int) float64 { return 1e6 + float64(j) },        // past the dense window
		func(j int) float64 { return -5000 - float64(j%3)/10 }, // one bin, below the window
		func(j int) float64 {
			if j == 17 {
				return math.NaN()
			}
			return 7
		},
		func(j int) float64 { return math.Inf(1 - 2*(j%2)) },
		func(j int) float64 { return 9 },
	}
	const stripe, repeats = 404, 101
	n := stripe * repeats
	v := make([]float64, n)
	vi := make([]int64, n)
	k := make([]float64, n)
	for i := range v {
		j := i % stripe
		v[i] = shapes[j*len(shapes)/stripe](j)
		vi[i] = int64(i / 50) // clustered, packs to frame-of-reference
		k[i] = float64(i % 7)
	}
	raw := &storage.Table{
		Name: "w",
		Schema: storage.Schema{
			{Name: "v", Type: storage.Float64},
			{Name: "vi", Type: storage.Int64},
			{Name: "k", Type: storage.Float64},
		},
		Columns: []*storage.Column{
			{Type: storage.Float64, Floats: v},
			{Type: storage.Int64, Ints: vi},
			{Type: storage.Float64, Floats: k},
		},
		PageRows: storage.DefaultPageRows,
	}
	frozen, err := colstore.Freeze(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if enc, _ := colstore.Of(frozen.Column("vi")); enc.Encoding() == colstore.Plain {
		t.Fatal("vi stayed plain; the test wants a bin column without a raw slice too")
	}
	plainEng, encEng := memEngine(raw), memEngine(frozen)
	for _, bin := range []string{"ROUND(v)", "ROUND((0 - v) / 0.5)", "ROUND(vi / 10)", "ROUND(vi * 100)"} {
		for _, where := range []string{"", " WHERE k >= 3", " WHERE k >= 3 AND k < 5 AND v > 0", " WHERE vi >= 300 AND vi <= 500"} {
			q := fmt.Sprintf("SELECT %s, COUNT(*) FROM w%s GROUP BY %s ORDER BY %s", bin, where, bin, bin)
			for _, par := range []int{1, 4} {
				plainEng.SetParallelism(par)
				encEng.SetParallelism(par)
				want, err := plainEng.Query(q)
				if err != nil {
					t.Fatalf("plain: %v (query %s)", err, q)
				}
				got, err := encEng.Query(q)
				if err != nil {
					t.Fatalf("encoded: %v (query %s)", err, q)
				}
				if !want.Stats.UsedFastPath || !got.Stats.UsedFastPath {
					t.Fatalf("fast path not used for %s", q)
				}
				assertSameResult(t, fmt.Sprintf("P=%d %s", par, q), got, want)
				got.Stats.RealTime, want.Stats.RealTime = 0, 0
				if got.Stats != want.Stats {
					t.Fatalf("P=%d %s: stats %+v, plain %+v", par, q, got.Stats, want.Stats)
				}
			}
		}
	}
}
