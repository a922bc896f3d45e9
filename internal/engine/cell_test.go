package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/colstore"
	"repro/internal/dataset"
	"repro/internal/sql"
	"repro/internal/storage"
)

// patternStarts cuts n rows into runs of 1, 63, 64, 65 and 300 rows in
// turn, so run edges fall inside words, on word edges and a row either
// side of them (the lengths average 98.6 rows, so a directory is kept).
func patternStarts(n int) []int {
	var starts []int
	for row, k := 0, 0; row < n; k++ {
		starts = append(starts, row)
		row += []int{1, 63, 64, 65, 300}[k%5]
	}
	return starts
}

// clone returns a table over the same columns as t, without t's
// directory: the one-run reference every directory answer must equal.
func clone(t *storage.Table) *storage.Table {
	return &storage.Table{Name: t.Name, Schema: t.Schema, Columns: t.Columns, PageRows: t.PageRows}
}

// checkCellStatement runs stmt against a table with a directory (eng) and
// its clone without one (ref) at P ∈ {1,2,4,8}: rows must equal the scalar
// loop over the raw slices and the clone's rows, and cost accounting must
// not move.
func checkCellStatement(t *testing.T, eng, ref *Engine, n int, query string) {
	t.Helper()
	stmt := sql.MustParse(query)
	q, ok := eng.matchHistogram(stmt)
	if !ok {
		t.Fatalf("n=%d: not histogram-shaped: %s", n, query)
	}
	want := scalarRows(q, n)
	for _, par := range []int{1, 2, 4, 8} {
		eng.SetParallelism(par)
		ref.SetParallelism(par)
		got, err := eng.Execute(stmt)
		if err != nil {
			t.Fatalf("n=%d P=%d: %v (%s)", n, par, err, query)
		}
		plain, err := ref.Execute(stmt)
		if err != nil {
			t.Fatalf("n=%d P=%d: %v (%s)", n, par, err, query)
		}
		label := fmt.Sprintf("n=%d P=%d %s", n, par, query)
		assertSameRows(t, label+" vs scalar", got.Rows, want)
		assertSameRows(t, label+" vs no directory", got.Rows, plain.Rows)
		got.Stats.RealTime, plain.Stats.RealTime = 0, 0
		if got.Stats != plain.Stats || !got.Stats.UsedFastPath {
			t.Fatalf("%s: stats %+v, without a directory %+v", label, got.Stats, plain.Stats)
		}
	}
}

// runCounts sums the run counters over every column of t's directory.
func runCounts(t *storage.Table) (skipped, summed, scanned int64) {
	st := colstore.StatsOf(t)
	for _, c := range st.Columns {
		skipped += c.RunsSkipped
		summed += c.RunsSummed
		scanned += c.RunsScanned
	}
	return skipped, summed, scanned
}

// TestCellHistogramMatchesReference: the view fixture's columns — road
// floats, Listings ints, NaN-bearing, ±Inf-bearing and constant — cut
// into runs of 1, 63, 64, 65 and 300 rows at every awkward table length,
// empty included. Random statements (strict, one-sided, point, empty and
// inverted ranges on any column; in-window, sparse and negative-slope
// bins) must answer as the scalar loop and as the same table without a
// directory.
func TestCellHistogramMatchesReference(t *testing.T) {
	sizes := []int{0, 1, 300, 1000, 16385, 40003}
	fix := newViewFixture(sizes[len(sizes)-1])
	rng := rand.New(rand.NewSource(34))
	for _, n := range sizes {
		tbl := fix.table(n)
		if colstore.AttachRuns(tbl, patternStarts(n)) == nil {
			t.Fatalf("n=%d: the pattern's runs kept no directory", n)
		}
		eng, ref := memEngine(tbl), memEngine(clone(tbl))
		for trial := 0; trial < 24; trial++ {
			fast, _, _ := fix.randomStatement(rng, n)
			checkCellStatement(t, eng, ref, n, fast)
		}
		if n > 0 {
			if skipped, summed, scanned := runCounts(tbl); skipped+summed+scanned == 0 {
				t.Fatalf("n=%d: no statement walked the directory", n)
			}
		}
	}
}

// layOut returns t's rows sorted by their ROUND bin cell over x and y at
// 20 bins of the road domain — the order a shard partition's layout gives
// — with the directory attached at the cell edges, so runs are cells.
func layOut(t *testing.T, tbl *storage.Table) *storage.Table {
	t.Helper()
	lonLo, lonHi, latLo, latHi, _, _ := dataset.RoadBounds()
	x, y := tbl.Column("x").Floats, tbl.Column("y").Floats
	cell := func(i int) [2]float64 {
		return [2]float64{math.Round((x[i] - lonLo) / ((lonHi - lonLo) / 20)), math.Round((y[i] - latLo) / ((latHi - latLo) / 20))}
	}
	rows := make([]int, tbl.NumRows())
	for i := range rows {
		rows[i] = i
	}
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := cell(rows[i]), cell(rows[j])
		return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1])
	})
	out := tbl.Take(rows)
	x, y = out.Column("x").Floats, out.Column("y").Floats
	var starts []int
	for i := range rows {
		if i == 0 || cell(i) != cell(i-1) {
			starts = append(starts, i)
		}
	}
	if colstore.AttachRuns(out, starts) == nil {
		t.Fatalf("%d cells over %d rows kept no directory", len(starts), len(rows))
	}
	return out
}

// TestCellHistogramOnLaidOutRoads: road rows laid out by cell, where most
// runs are decided whole. Bins on the layout's grid and off it (7, 13 and
// 40 bins, and 20 with lo shifted by a third of a bin), predicates on the
// layout dims and on columns that are not (z, and a Listings price), closed
// and strict, must answer as the scalar loop and without a directory — and
// the directory must have skipped, summed and scanned runs.
func TestCellHistogramOnLaidOutRoads(t *testing.T) {
	const n = 60000
	roads := dataset.Roads(1, n)
	price := dataset.Listings(2, n).Column("price").Floats
	tbl := &storage.Table{Name: "r", PageRows: storage.DefaultPageRows}
	for _, name := range []string{"x", "y", "z"} {
		tbl.Schema = append(tbl.Schema, storage.ColumnDef{Name: name, Type: storage.Float64})
		tbl.Columns = append(tbl.Columns, roads.Column(name))
	}
	tbl.Schema = append(tbl.Schema, storage.ColumnDef{Name: "price", Type: storage.Float64})
	tbl.Columns = append(tbl.Columns, &storage.Column{Type: storage.Float64, Floats: price})
	tbl = layOut(t, tbl)
	eng, ref := memEngine(tbl), memEngine(clone(tbl))

	lonLo, lonHi, latLo, latHi, altLo, altHi := dataset.RoadBounds()
	domains := map[string][2]float64{"x": {lonLo, lonHi}, "y": {latLo, latHi}, "z": {altLo, altHi}, "price": {0, 1000}}
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 40; trial++ {
		binCol := []string{"x", "y", "z"}[trial%3]
		d := domains[binCol]
		bins := []float64{20, 7, 13, 40, 20}[trial%5]
		step := (d[1] - d[0]) / bins
		lo := d[0]
		if trial%5 == 4 {
			lo += step / 3
		}
		bin := fmt.Sprintf("ROUND((%s - %s) / %s)", binCol, lit(lo), lit(step))
		var conds []string
		for _, c := range []string{"x", "y", "z", "price"} {
			if rng.Intn(3) == 0 {
				continue
			}
			w := domains[c][1] - domains[c][0]
			a := domains[c][0] + rng.Float64()*w
			b := a + rng.Float64()*(domains[c][1]-a)
			op1, op2 := ">=", "<="
			if rng.Intn(2) == 0 {
				op1, op2 = ">", "<"
			}
			conds = append(conds, fmt.Sprintf("%s %s %s AND %s %s %s", c, op1, lit(a), c, op2, lit(b)))
		}
		where := ""
		if len(conds) > 0 {
			where = " WHERE " + strings.Join(conds, " AND ")
		}
		checkCellStatement(t, eng, ref, n, fmt.Sprintf("SELECT %s, COUNT(*) FROM r%s GROUP BY %s ORDER BY %s", bin, where, bin, bin))
	}
	skipped, summed, scanned := runCounts(tbl)
	if skipped == 0 || summed == 0 || scanned == 0 {
		t.Fatalf("runs skipped %d, summed %d, scanned %d: a decision never ran", skipped, summed, scanned)
	}
	t.Logf("%d runs: skipped %d, summed %d, scanned %d", colstore.RunsOf(tbl).Len(), skipped, summed, scanned)
}

// TestCellShortRunsKeepNoDirectory: a directory is kept only while its runs
// average 64 rows or more — at most one run per 64-row word.
func TestCellShortRunsKeepNoDirectory(t *testing.T) {
	fix := newViewFixture(1000)
	tbl := fix.table(1000)
	starts := make([]int, 16) // ⌈1000/64⌉ = 16 runs of 62–70 rows
	for k := range starts {
		starts[k] = k * 1000 / 16
	}
	if r := colstore.AttachRuns(tbl, starts); r == nil || colstore.RunsOf(tbl) != r || r.Len() != 16 {
		t.Fatalf("16 runs over 1000 rows: directory %v", r)
	}
	starts = append(starts, 999)
	if r := colstore.AttachRuns(tbl, starts); r != nil || colstore.RunsOf(tbl) != nil || tbl.Runs() != nil {
		t.Fatalf("17 runs over 1000 rows kept a directory")
	}
}

// TestCellDirectoryDroppedOnAppend: a directory describes the rows it was
// built over, so an append drops it and the next statement counts the new
// rows.
func TestCellDirectoryDroppedOnAppend(t *testing.T) {
	tbl := storage.NewTable("a", storage.Schema{{Name: "v", Type: storage.Float64}})
	for i := 0; i < 1000; i++ {
		tbl.MustAppendRow(storage.NewFloat(float64(i / 100)))
	}
	if colstore.AttachRuns(tbl, []int{0, 500}) == nil {
		t.Fatal("no directory")
	}
	eng := memEngine(tbl)
	const q = "SELECT ROUND(v), COUNT(*) FROM a WHERE v >= 2 GROUP BY ROUND(v) ORDER BY ROUND(v)"
	if res, err := eng.Query(q); err != nil || len(res.Rows) != 8 {
		t.Fatalf("before append: %v %v", res, err)
	}
	tbl.MustAppendRow(storage.NewFloat(20))
	if colstore.RunsOf(tbl) != nil {
		t.Fatal("an append kept the directory")
	}
	res, err := eng.Query(q)
	if err != nil || len(res.Rows) != 9 || res.Rows[8][0].F != 20 || res.Rows[8][1].I != 1 {
		t.Fatalf("after append: %v %v", res, err)
	}
}

// FuzzCellHistogram cuts a table of the view fixture's columns into random
// runs and asks one random range-filtered, affinely binned statement of
// it: the answer must equal the same table's without a directory.
func FuzzCellHistogram(f *testing.F) {
	const n = 33000 // two morsels, so P=2 splits the scan
	fix := newViewFixture(n)
	f.Add(int64(1), []byte{0, 62, 63, 64, 255}, 9.5, 10.25, 0.2, 8.146, uint8(0))
	f.Add(int64(2), []byte{31, 32, 33}, -1.0, 1e9, -0.5, 0.0, uint8(7))
	f.Add(int64(3), []byte{200}, 56.9, 56.9, 1.0/3, 56.5, uint8(13))
	f.Fuzz(func(t *testing.T, seed int64, cuts []byte, lo, hi, step, off float64, pick uint8) {
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		if len(cuts) == 0 || !finite(lo) || !finite(hi) || !finite(off) || !finite(step) || step == 0 {
			t.Skip()
		}
		var starts []int
		for row, k := 0, 0; row < n; k++ {
			starts = append(starts, row)
			row += 1 + 2*int(cuts[k%len(cuts)]) // lengths 1–511, averaging ≥ 64 for most inputs
		}
		tbl := fix.table(n)
		if colstore.AttachRuns(tbl, starts) == nil {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		cols := fix.cols
		binCol := cols[int(pick)%len(cols)].name
		bin := fmt.Sprintf("ROUND((%s - %s) / %s)", binCol, lit(off), lit(step))
		var conds []string
		for k := rng.Intn(4); k > 0; k-- {
			c := cols[rng.Intn(len(cols))].name
			ops := [][2]string{{">=", "<="}, {">", "<"}, {">=", "<"}}[rng.Intn(3)]
			conds = append(conds, fmt.Sprintf("%s %s %s AND %s %s %s", c, ops[0], lit(lo), c, ops[1], lit(hi)))
			lo, hi = lo+rng.NormFloat64(), hi+rng.NormFloat64()
		}
		where := ""
		if len(conds) > 0 {
			where = " WHERE " + strings.Join(conds, " AND ")
		}
		stmt := sql.MustParse(fmt.Sprintf("SELECT %s, COUNT(*) FROM v%s GROUP BY %s ORDER BY %s", bin, where, bin, bin))
		eng, ref := memEngine(tbl), memEngine(clone(tbl))
		for _, par := range []int{1, 2} {
			eng.SetParallelism(par)
			ref.SetParallelism(par)
			got, err := eng.Execute(stmt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Execute(stmt)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRows(t, fmt.Sprintf("P=%d %s", par, stmt), got.Rows, want.Rows)
		}
	})
}
