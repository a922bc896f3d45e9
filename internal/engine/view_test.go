package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/colstore"
	"repro/internal/dataset"
	"repro/internal/sql"
	"repro/internal/storage"
)

// scalarHistogram is the row-at-a-time loop the fast path ran over raw
// slices before every table rode the kernels: compare each predicate,
// round(a·v + b), bump. It lives on as the kernels' independent oracle — it
// reads the raw slices itself, never a colstore column — for matched
// statements on unfrozen tables.
func scalarHistogram(q *histQuery, acc *histAcc, lo, hi int) {
	binFloats := q.bin.col.Floats
	binInts := q.bin.col.Ints
	a, b := q.bin.a, q.bin.b

rows:
	for i := lo; i < hi; i++ {
		for k := range q.preds {
			p := &q.preds[k]
			var x float64
			if p.col.Type == storage.Float64 {
				x = p.col.Floats[i]
			} else {
				x = float64(p.col.Ints[i])
			}
			if !(x >= p.lo && x <= p.hi) {
				continue rows
			}
		}
		var v float64
		if binFloats != nil {
			v = binFloats[i]
		} else {
			v = float64(binInts[i])
		}
		acc.bump(int(math.Round(a*v + b)))
	}
}

// scalarRows is scalarHistogram over rows [0, n) in result form.
func scalarRows(q *histQuery, n int) [][]storage.Value {
	acc := &histAcc{dense: make([]int64, 2*fastBinOffset)}
	scalarHistogram(q, acc, 0, n)
	return histResult(acc).Rows
}

// viewCol describes one fixture column to the statement generator.
type viewCol struct {
	name      string
	lo, hi    float64 // finite value range
	nonFinite bool    // holds NaN or ±Inf: the generic path orders those differently
}

// viewFixture holds the longest form of every column; table(n) serves the
// first n rows as a raw table.
type viewFixture struct {
	floats map[string][]float64
	ints   map[string][]int64
	cols   []viewCol
}

func newViewFixture(n int) *viewFixture {
	roads := dataset.Roads(1, n)
	listings := dataset.Listings(2, n)
	f := &viewFixture{
		floats: map[string][]float64{
			"x":     roads.Column("x").Floats,
			"z":     roads.Column("z").Floats,
			"price": listings.Column("price").Floats,
		},
		ints: map[string][]int64{
			"guests":  listings.Column("guests").Ints,
			"reviews": listings.Column("reviews").Ints,
		},
	}
	nanv := append([]float64(nil), roads.Column("y").Floats...)
	infv := append([]float64(nil), roads.Column("z").Floats...)
	konst := make([]float64, n)
	ki := make([]int64, n)
	for i := 0; i < n; i++ {
		// A NaN every 89 rows, one whole word of them, and the last row.
		if i%89 == 7 || (i >= 640 && i < 704) || i == n-1 {
			nanv[i] = math.NaN()
		}
		switch {
		case i%101 == 3:
			infv[i] = math.Inf(1)
		case i%103 == 5:
			infv[i] = math.Inf(-1)
		}
		konst[i] = 7
		ki[i] = 3
	}
	f.floats["nanv"], f.floats["infv"], f.floats["konst"], f.ints["ki"] = nanv, infv, konst, ki
	for _, name := range []string{"x", "z", "price", "guests", "reviews", "nanv", "infv", "konst", "ki"} {
		c := viewCol{name: name, lo: math.Inf(1), hi: math.Inf(-1)}
		see := func(v float64) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				c.nonFinite = true
				return
			}
			c.lo, c.hi = math.Min(c.lo, v), math.Max(c.hi, v)
		}
		for _, v := range f.floats[name] {
			see(v)
		}
		for _, v := range f.ints[name] {
			see(float64(v))
		}
		f.cols = append(f.cols, c)
	}
	return f
}

func (f *viewFixture) table(n int) *storage.Table {
	t := &storage.Table{Name: "v", PageRows: storage.DefaultPageRows}
	for _, c := range f.cols {
		if vals, ok := f.floats[c.name]; ok {
			t.Schema = append(t.Schema, storage.ColumnDef{Name: c.name, Type: storage.Float64})
			t.Columns = append(t.Columns, &storage.Column{Type: storage.Float64, Floats: vals[:n:n]})
		} else {
			t.Schema = append(t.Schema, storage.ColumnDef{Name: c.name, Type: storage.Int64})
			t.Columns = append(t.Columns, &storage.Column{Type: storage.Int64, Ints: f.ints[c.name][:n:n]})
		}
	}
	return t
}

// value returns row i of the named column as float64.
func (f *viewFixture) value(name string, i int) float64 {
	if vals, ok := f.floats[name]; ok {
		return vals[i]
	}
	return float64(f.ints[name][i])
}

// lit renders a constant the SQL lexer reads back bit-for-bit.
func lit(v float64) string {
	if v < 0 {
		return "(0 - " + strconv.FormatFloat(-v, 'f', -1, 64) + ")"
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// sketchOf builds the sketch the first n rows of a fixture column get
// behind their view (nil when they admit none), for placing bin edges.
func (f *viewFixture) sketchOf(name string, n int) *colstore.Sketch {
	if vals, ok := f.floats[name]; ok {
		return colstore.SketchOf(colstore.NewPlainFloats(vals[:n]))
	}
	return colstore.SketchOf(colstore.NewPlainInts(f.ints[name][:n]))
}

// randomStatement draws one histogram-shaped statement over the first n
// rows: a bin expression over any column (in-window, sparse, negative
// slope, and — on a sketched column — bin edges set exactly on an occupied
// bucket's observed bound, inside a bucket, and bins narrower than a
// bucket) and 0–3 predicates — closed, strict, one-sided, point, empty and
// inverted ranges, half of the bounds set exactly onto a row's value.
// generic reports whether the row-at-a-time path orders every value the
// statement touches the way the fast path does (no NaN, no ±Inf).
func (f *viewFixture) randomStatement(rng *rand.Rand, n int) (fast, forcedGeneric string, generic bool) {
	generic = true
	bound := func(c viewCol) float64 {
		if n > 0 && rng.Intn(2) == 0 {
			if v := f.value(c.name, rng.Intn(n)); !math.IsNaN(v) && !math.IsInf(v, 0) {
				return v
			}
		}
		w := c.hi - c.lo
		return c.lo - 0.1*w + rng.Float64()*1.2*w
	}

	bc := f.cols[rng.Intn(len(f.cols))]
	generic = generic && !bc.nonFinite
	w := (bc.hi - bc.lo) / 20
	if w == 0 {
		w = 1
	}
	var bin string
	variant := rng.Intn(7)
	// The edge variants need a bucket to aim at: k is an occupied one.
	var sk *colstore.Sketch
	k := 0
	if variant >= 4 {
		if sk = f.sketchOf(bc.name, n); sk == nil {
			variant -= 4
		} else {
			for k = rng.Intn(sk.Buckets()); ; k = (k + 1) % sk.Buckets() {
				if bmin, bmax := sk.Bounds(k); bmin <= bmax {
					break
				}
			}
		}
	}
	switch variant {
	case 4, 5, 6:
		// ROUND((v − off) / w) changes bin where v = off + w/2: put that
		// edge on the bucket's minimum or maximum (4), at its middle (5),
		// or on the minimum with bins a fifth of a bucket wide, so every
		// bucket straddles edges (6). A value sitting on an edge is where
		// the fast path's a·v + b and the generic path's (v − off) / w may
		// round to different sides, so these statements are held to the
		// scalar reference only.
		generic = false
		bmin, bmax := sk.Bounds(k)
		edge := []float64{bmin, bmax}[rng.Intn(2)]
		if variant == 5 {
			edge = bmin + (bmax-bmin)/2
		}
		if variant == 6 {
			w = (bc.hi - bc.lo) / float64(5*sk.Buckets())
		}
		bin = fmt.Sprintf("ROUND((%s - %s) / %s)", bc.name, lit(edge-w/2), lit(w))
	case 0:
		bin = fmt.Sprintf("ROUND((%s - %s) / %s)", bc.name, lit(bc.lo), lit(w))
	case 1:
		bin = fmt.Sprintf("ROUND(%s)", bc.name)
	case 2:
		bin = fmt.Sprintf("ROUND(%s * 3000)", bc.name) // mostly past the dense window
	default:
		bin = fmt.Sprintf("ROUND((0 - %s) / %s)", bc.name, lit(w))
	}

	var conds []string
	for k := rng.Intn(4); k > 0; k-- {
		c := f.cols[rng.Intn(len(f.cols))]
		generic = generic && !c.nonFinite
		a, b := bound(c), bound(c)
		if a > b {
			a, b = b, a
		}
		switch rng.Intn(10) {
		case 0, 1:
			conds = append(conds, fmt.Sprintf("%s >= %s AND %s <= %s", c.name, lit(a), c.name, lit(b)))
		case 2, 3:
			conds = append(conds, fmt.Sprintf("%s > %s AND %s < %s", c.name, lit(a), c.name, lit(b)))
		case 4:
			conds = append(conds, fmt.Sprintf("%s >= %s AND %s < %s", c.name, lit(a), lit(b), c.name)) // constant on the left
		case 5, 6:
			op := []string{">=", "<=", ">", "<"}[rng.Intn(4)]
			conds = append(conds, fmt.Sprintf("%s %s %s", c.name, op, lit(a)))
		case 7:
			conds = append(conds, fmt.Sprintf("%s >= %s AND %s <= %s", c.name, lit(a), c.name, lit(a))) // point
		case 8:
			conds = append(conds, fmt.Sprintf("%s > %s AND %s < %s", c.name, lit(a), c.name, lit(a))) // empty
		default:
			conds = append(conds, fmt.Sprintf("%s >= %s AND %s <= %s", c.name, lit(b), c.name, lit(a))) // inverted unless a == b
		}
	}
	where := ""
	if len(conds) > 0 {
		where = " WHERE " + strings.Join(conds, " AND ")
	}
	fast = fmt.Sprintf("SELECT %s, COUNT(*) FROM v%s GROUP BY %s ORDER BY %s", bin, where, bin, bin)
	// A second ORDER BY key is outside the fast-path shape: the same rows
	// through the generic scan, filter and hash aggregate.
	return fast, fast + ", COUNT(*)", generic
}

func assertSameRows(t *testing.T, label string, got, want [][]storage.Value) {
	t.Helper()
	assertSameResult(t, label, &Result{Rows: got}, &Result{Rows: want})
}

// TestViewHistogramMatchesScalarReference is the fast path's differential
// against code that shares none of it. Raw tables of every awkward length
// — road floats, Listings ints, NaN-bearing, ±Inf-bearing and constant
// columns — are read through their zero-copy views by random statements at
// P ∈ {1,2,4,8}; rows must equal the scalar loop over the raw slices, and rows and cost accounting
// must equal the forced-generic statement wherever SQL comparison
// semantics agree (no NaN or ±Inf in a referenced column).
func TestViewHistogramMatchesScalarReference(t *testing.T) {
	sizes := []int{0, 1, 63, 64, 65, 16383, 16384, 16385, 100003}
	fix := newViewFixture(sizes[len(sizes)-1])
	rng := rand.New(rand.NewSource(2118))
	for _, n := range sizes {
		eng := memEngine(fix.table(n))
		statements, generics, nonEmpty := 32, 0, 0
		for trial := 0; trial < statements; trial++ {
			fast, forced, generic := fix.randomStatement(rng, n)
			stmt := sql.MustParse(fast)
			q, ok := eng.matchHistogram(stmt)
			if !ok {
				t.Fatalf("n=%d: not histogram-shaped: %s", n, fast)
			}
			want := scalarRows(q, n)
			if len(want) > 0 {
				nonEmpty++
			}

			var first ExecStats
			for _, par := range []int{1, 2, 4, 8} {
				eng.SetParallelism(par)
				got, err := eng.Execute(stmt)
				if err != nil {
					t.Fatalf("n=%d P=%d: %v (%s)", n, par, err, fast)
				}
				label := fmt.Sprintf("n=%d P=%d %s", n, par, fast)
				assertSameRows(t, label, got.Rows, want)
				got.Stats.RealTime = 0
				if !got.Stats.UsedFastPath || got.Stats.TuplesScanned != n || got.Stats.TuplesOutput != len(want) {
					t.Fatalf("%s: stats %+v", label, got.Stats)
				}
				if par == 1 {
					first = got.Stats
				} else if got.Stats != first {
					t.Fatalf("%s: stats %+v, P=1 %+v", label, got.Stats, first)
				}
			}

			// The generic path is ~100× slower per row: at the largest
			// size it checks a third of the statements.
			if generic && (n < 50_000 || generics < statements/3) {
				generics++
				gen, err := eng.Query(forced)
				if err != nil {
					t.Fatalf("n=%d generic: %v (%s)", n, err, forced)
				}
				if gen.Stats.UsedFastPath {
					t.Fatalf("n=%d: control statement took the fast path: %s", n, forced)
				}
				assertSameRows(t, fmt.Sprintf("n=%d generic %s", n, fast), gen.Rows, want)
				gen.Stats.RealTime, gen.Stats.UsedFastPath = 0, true
				if gen.Stats != first {
					t.Fatalf("n=%d %s: fast-path stats %+v, generic %+v", n, fast, first, gen.Stats)
				}
			}

		}
		t.Logf("n=%d: %d statements, %d with rows, %d also through the generic path", n, statements, nonEmpty, generics)
	}
}

// TestViewSeesAppendedRows: a view holds the slice header of the moment it
// was built, so an append must drop it. Two goroutines race the first
// statement (view creation and the zone and sketch sync.Once under -race); rows
// appended afterwards land in the old last word — whose zone was built over
// 40 rows — and in a new bin, and the next statement must count them.
func TestViewSeesAppendedRows(t *testing.T) {
	tbl := storage.NewTable("a", storage.Schema{
		{Name: "v", Type: storage.Float64},
		{Name: "k", Type: storage.Int64},
	})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ { // 15 words and 40 rows
		tbl.MustAppendRow(storage.NewFloat(rng.Float64()*10), storage.NewInt(int64(i%5)))
	}
	eng := memEngine(tbl)
	stmt := sql.MustParse("SELECT ROUND(v), COUNT(*) FROM a WHERE k >= 1 AND k <= 3 GROUP BY ROUND(v) ORDER BY ROUND(v)")
	reference := func() [][]storage.Value {
		q, ok := eng.matchHistogram(stmt)
		if !ok {
			t.Fatal("statement is not histogram-shaped")
		}
		return scalarRows(q, tbl.NumRows())
	}

	before := reference()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := eng.Execute(stmt)
			if err != nil {
				t.Error(err)
				return
			}
			if len(got.Rows) != len(before) {
				t.Errorf("first statement: %d rows, want %d", len(got.Rows), len(before))
				return
			}
			for i := range before {
				if got.Rows[i][0].F != before[i][0].F || got.Rows[i][1].I != before[i][1].I {
					t.Errorf("first statement row %d: %v, want %v", i, got.Rows[i], before[i])
				}
			}
		}()
	}
	wg.Wait()
	old, _ := colstore.ViewOf(tbl.Column("v"))
	oldSketch := colstore.SketchOf(old)
	if oldSketch == nil || len(oldSketch.Codes()) != 1024 {
		t.Fatalf("the first statement left the bin column without a 1000-row sketch: %v", oldSketch)
	}

	for i := 0; i < 200; i++ {
		tbl.MustAppendRow(storage.NewFloat(50+float64(i%3)), storage.NewInt(2))
	}
	view, ok := colstore.ViewOf(tbl.Column("v"))
	if !ok || view == old || view.Len() != 1200 {
		t.Fatalf("view after append: ok=%v same=%v len=%d", ok, view == old, view.Len())
	}
	// The sketch went with the view: the new one codes all 1200 rows, the
	// appended 50–52 among them (the old maximum was below 10).
	if sk := colstore.SketchOf(view); sk == nil || sk == oldSketch || len(sk.Codes()) != 1216 {
		t.Fatalf("sketch after append: %v (old %p)", sk, oldSketch)
	} else if _, max := sk.Bounds(sk.Buckets() - 1); max != 52 {
		t.Fatalf("sketch after append tops out at %v, want 52", max)
	}
	after := reference()
	if len(after) != len(before)+3 {
		t.Fatalf("appended rows opened %d new bins, want 3", len(after)-len(before))
	}
	got, err := eng.Execute(stmt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, "after append", got.Rows, after)
}

// TestRoadRowsStayClusteredUnsharded is TestPartitionsKeepRoadRowsClustered
// for the traffic mixed_planner's SQL rides: the unpartitioned table in
// generation order, read through its views. A range keeping the middle 40%
// of a dimension must leave fewer than half of the 64-row words to the row
// kernel; a generator change that shuffles rows fails here instead of
// silently returning unsharded serving to full scans.
func TestRoadRowsStayClusteredUnsharded(t *testing.T) {
	roads := dataset.Roads(1, dataset.RoadCount)
	n := roads.NumRows()
	dst := colstore.NewBitmap(n)
	lonLo, lonHi, latLo, latHi, altLo, altHi := dataset.RoadBounds()
	for _, d := range []struct {
		name   string
		lo, hi float64
	}{{"x", lonLo, lonHi}, {"y", latLo, latHi}, {"z", altLo, altHi}} {
		col, ok := colstore.ViewOf(roads.Column(d.name))
		if !ok {
			t.Fatalf("no view of %s", d.name)
		}
		w := d.hi - d.lo
		col.FilterRange(d.lo+0.3*w, d.lo+0.7*w, 0, n, dst, false)
		skipped, filled, evaluated := colstore.ZonesOf(col).Words()
		if total := skipped + filled + evaluated; 2*evaluated >= total {
			t.Errorf("dim %s: %d of %d words undecided (skipped %d, filled %d)", d.name, evaluated, total, skipped, filled)
		} else {
			t.Logf("dim %s: %d of %d words undecided", d.name, evaluated, total)
		}
	}
}

// BenchmarkViewNothingToSkip prices the view path where zones cannot help:
// a raw table whose predicate column is the shuffled Listings latitude of
// colstore's BenchmarkZoneStepNothingToSkip, so every word goes to the row
// kernel. "view" is the fast path as served; "scalar" is the deleted
// row-at-a-time loop (the test reference), which the view must not lose to.
func BenchmarkViewNothingToSkip(b *testing.B) {
	listings := dataset.Listings(1, 1<<18)
	lat := listings.Column("lat").Floats
	rand.New(rand.NewSource(1)).Shuffle(len(lat), func(i, j int) { lat[i], lat[j] = lat[j], lat[i] })
	n := len(lat)
	eng := memEngine(listings)
	eng.SetParallelism(1)
	stmt := sql.MustParse("SELECT ROUND(price / 50), COUNT(*) FROM listings WHERE lat >= 34 AND lat <= 41 " +
		"GROUP BY ROUND(price / 50) ORDER BY ROUND(price / 50)")
	q, ok := eng.matchHistogram(stmt)
	if !ok {
		b.Fatal("statement is not histogram-shaped")
	}
	if _, err := eng.Execute(stmt); err != nil { // builds the zones
		b.Fatal(err)
	}
	col, _ := colstore.ViewOf(listings.Column("lat"))
	if skipped, filled, _ := colstore.ZonesOf(col).Words(); skipped+filled > int64(n/64/100) {
		b.Fatalf("zones decided %d+%d of %d words; the column is not unclustered", skipped, filled, n/64)
	}
	b.Run("view", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Execute(stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scalar", func(b *testing.B) {
		acc := &histAcc{dense: make([]int64, 2*fastBinOffset)}
		for i := 0; i < b.N; i++ {
			scalarHistogram(q, acc, 0, n)
		}
	})
}
