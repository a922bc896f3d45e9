package shard

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/colstore"
	"repro/internal/datacube"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/opt"
	"repro/internal/oracle"
	"repro/internal/sql"
	"repro/internal/storage"
)

// gridFixture is a road table with every value class a cell grid must get
// right — NaN, ±Inf, values past the domain and values exactly on a ROUND
// edge of the 20-bin statements (a·v + b = k + ½) — plus a column p that is
// not a layout dim, split in two laid-out partitions whose replicas keep a
// directory and its grid, raw and encoded; beside each, an engine over the
// same partition without a directory.
type gridFixture struct {
	dims  []datacube.Dim // the layout dims, then p
	table *storage.Table
	reps  []*Replica
	refs  []*engine.Engine
}

func newGridFixture(t testing.TB, n int) *gridFixture {
	t.Helper()
	dims := append(roadDims(), datacube.Dim{Name: "p", Lo: 0, Hi: 100, Bins: 20})
	roads := dataset.Roads(7, n)
	tbl := &storage.Table{Name: roads.Name, PageRows: storage.DefaultPageRows}
	cols := make([][]float64, len(dims))
	for j, d := range dims {
		if j < 3 {
			cols[j] = append([]float64(nil), roads.Column(d.Name).Floats...)
		} else {
			cols[j] = make([]float64, n)
			for i := range cols[j] {
				cols[j][i] = float64(i*37%1000) / 10
			}
		}
		tbl.Schema = append(tbl.Schema, storage.ColumnDef{Name: d.Name, Type: storage.Float64})
		tbl.Columns = append(tbl.Columns, &storage.Column{Type: storage.Float64, Floats: cols[j]})
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300}
	for i := 0; i < n; i++ {
		j := i % 3
		d := dims[j]
		switch {
		case i%997 == 0:
			cols[j][i] = specials[i/997%len(specials)]
		case i%991 == 0: // past the domain, by up to three bins either way
			cols[j][i] = d.Lo + (d.Hi-d.Lo)*(-0.15+1.3*float64(i/991%7)/6)
		case i%499 == 0:
			if v, ok := roundEdge(d, 20, i/499%21); ok {
				cols[j][i] = v
			}
		}
	}
	parts, err := Partition(tbl, dims[:3], 2)
	if err != nil {
		t.Fatal(err)
	}
	f := &gridFixture{dims: dims, table: tbl}
	for _, encode := range []bool{false, true} {
		for i, part := range parts {
			rep, err := NewReplica(i, part, dims[:3], nil, Options{WithEngine: true, Encode: encode})
			if err != nil {
				t.Fatal(err)
			}
			if runs := colstore.RunsOf(rep.Table); runs == nil || runs.Grid() == nil {
				t.Fatalf("encode=%v shard %d: no directory or no grid over %d rows (%d cell runs)", encode, i, part.NumRows(), len(cellStarts(part, dims[:3])))
			}
			ref := engine.New(engine.ProfileMemory)
			ref.Register(&storage.Table{Name: rep.Table.Name, Schema: rep.Table.Schema, Columns: rep.Table.Columns, PageRows: rep.Table.PageRows})
			f.reps, f.refs = append(f.reps, rep), append(f.refs, ref)
		}
	}
	return f
}

// roundEdge returns a value v with a·v + b == k + ½ exactly, where a·v + b
// is the statement ROUND((col − Lo)/step)'s affine form over bins bins of
// d — found by walking ULPs out from the real solution — or false.
func roundEdge(d datacube.Dim, bins, k int) (float64, bool) {
	step := (d.Hi - d.Lo) / float64(bins)
	a, b := 1/step, -d.Lo/step
	want := float64(k) + 0.5
	v0 := (want - b) / a
	for _, dir := range []float64{math.Inf(1), math.Inf(-1)} {
		v := v0
		for range 64 {
			if a*v+b == want {
				return v, true
			}
			v = math.Nextafter(v, dir)
		}
	}
	return 0, false
}

// statement is one histogram statement in opt.HistogramQuery's terms.
type statement struct {
	dims   []opt.CrossfilterDim
	odims  []datacube.Dim // the same dims for the oracle
	ranges [][2]float64
	target int
	bins   int
}

func (s statement) sql(t testing.TB) *sql.SelectStmt {
	t.Helper()
	stmt, err := opt.HistogramQuery("dataroad", s.dims, s.ranges, s.target, s.bins)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

// randomStatement draws a statement over the layout dims, and p when
// withP: each range full, interior, on the 20-bin ROUND edges, ending on
// row values, a point, past the domain, or inverted; the bin on the layout
// grid (20 bins) or off it (7, 13 or 40 bins, or Lo shifted by a third of
// a bin).
func (f *gridFixture) randomStatement(rng *rand.Rand, withP bool) statement {
	use := f.dims[:3]
	if withP {
		use = f.dims
	}
	var s statement
	for _, d := range use {
		w, step := d.Hi-d.Lo, (d.Hi-d.Lo)/20
		col := f.table.Column(d.Name).Floats
		rowValue := func() float64 {
			for {
				if v := col[rng.Intn(len(col))]; !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e300 {
					return v
				}
			}
		}
		var r [2]float64
		switch rng.Intn(8) {
		case 0:
			r = [2]float64{d.Lo, d.Hi}
		case 1, 2:
			a := d.Lo + rng.Float64()*w
			r = [2]float64{a, a + rng.Float64()*(d.Hi-a)}
		case 3:
			k := rng.Intn(20)
			r = [2]float64{d.Lo + (float64(k)+0.5)*step, d.Lo + (float64(k+1+rng.Intn(20-k))+0.5)*step}
		case 4:
			a, b := rowValue(), rowValue()
			r = [2]float64{math.Min(a, b), math.Max(a, b)}
		case 5:
			v := rowValue()
			r = [2]float64{v, v}
		case 6:
			r = [2]float64{d.Lo - w, d.Hi + w}
		default:
			a := d.Lo + rng.Float64()*w
			r = [2]float64{a, a - rng.Float64()*w/2}
		}
		s.dims = append(s.dims, opt.CrossfilterDim{Column: d.Name, Lo: d.Lo, Hi: d.Hi})
		s.odims = append(s.odims, datacube.Dim{Name: d.Name, Lo: d.Lo, Hi: d.Hi})
		s.ranges = append(s.ranges, r)
	}
	s.target, s.bins = rng.Intn(3), 20
	switch rng.Intn(4) {
	case 0:
		s.bins = []int{7, 13, 40}[rng.Intn(3)]
	case 1:
		shift := (s.dims[s.target].Hi - s.dims[s.target].Lo) / 60
		s.dims[s.target].Lo += shift
		s.dims[s.target].Hi += shift
		s.odims[s.target].Lo += shift
		s.odims[s.target].Hi += shift
	}
	return s
}

// check runs stmt on every replica and its reference at P ∈ {1,2,4,8}:
// rows must equal the reference's and, when want is set, the oracle's;
// stats must equal the reference's; and the replica's grid must have
// counted the statement exactly when gridded.
func (f *gridFixture) check(t testing.TB, label string, stmt *sql.SelectStmt, want func(*storage.Table) [][2]int64, gridded bool) {
	t.Helper()
	for i, rep := range f.reps {
		var oracleRows [][2]int64
		if want != nil {
			oracleRows = want(rep.Table)
		}
		for _, par := range []int{1, 2, 4, 8} {
			rep.Engine.SetParallelism(par)
			f.refs[i].SetParallelism(par)
			before := colstore.StatsOf(rep.Table).GridStatements
			got, err := rep.Engine.Execute(stmt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			ref, err := f.refs[i].Execute(stmt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			at := fmt.Sprintf("%s replica %d P=%d (%s)", label, i, par, stmt)
			if ran := colstore.StatsOf(rep.Table).GridStatements > before; ran != gridded {
				t.Fatalf("%s: grid ran %v, want %v", at, ran, gridded)
			}
			if !sameValueRows(got.Rows, ref.Rows) {
				t.Fatalf("%s: rows %v, without a directory %v", at, got.Rows, ref.Rows)
			}
			if want != nil && !sameOracleRows(got.Rows, oracleRows) {
				t.Fatalf("%s: rows %v, oracle %v", at, got.Rows, oracleRows)
			}
			got.Stats.RealTime, ref.Stats.RealTime = 0, 0
			if got.Stats != ref.Stats || !got.Stats.UsedFastPath {
				t.Fatalf("%s: stats %+v, without a directory %+v", at, got.Stats, ref.Stats)
			}
		}
	}
}

func sameValueRows(a, b [][]storage.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for c := range a[i] {
			if a[i][c].Compare(b[i][c]) != 0 {
				return false
			}
		}
	}
	return true
}

func sameOracleRows(rows [][]storage.Value, want [][2]int64) bool {
	if len(rows) != len(want) {
		return false
	}
	for i, r := range rows {
		if int64(r[0].F) != want[i][0] || r[1].I != want[i][1] {
			return false
		}
	}
	return true
}

// TestGridHistogramMatchesOracle: over laid-out road partitions holding
// NaN, ±Inf, out-of-domain and ROUND-edge values, raw and encoded, random
// histogram statements — bins on the layout grid and off it, ranges on
// bin edges, on row values, empty and inverted — answer as oracle.Histogram
// and as the same partition without a directory, with equal stats, at
// every P. Statements with a predicate on p, which is no grid dim, take
// the walk over every run; the others are planned on the grid. Statements
// with unfiltered dims, or no WHERE at all (not opt.HistogramQuery's
// shape, so held to the directory-less partition only), are planned too.
func TestGridHistogramMatchesOracle(t *testing.T) {
	f := newGridFixture(t, 300000)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		s := f.randomStatement(rng, trial%4 == 3)
		f.check(t, fmt.Sprintf("trial %d", trial), s.sql(t), func(tbl *storage.Table) [][2]int64 {
			return oracle.Histogram(tbl, s.odims, s.ranges, s.target, s.bins)
		}, trial%4 != 3)
	}
	x, y := f.dims[0], f.dims[1]
	bin := fmt.Sprintf("ROUND((x - %v) / %v)", x.Lo, (x.Hi-x.Lo)/20)
	for i, where := range []string{
		"",
		fmt.Sprintf(" WHERE y >= %v AND y <= %v", y.Lo+0.3*(y.Hi-y.Lo), y.Lo+0.7*(y.Hi-y.Lo)),
		fmt.Sprintf(" WHERE x > %v AND z < 50", x.Lo+0.25*(x.Hi-x.Lo)),
	} {
		stmt := sql.MustParse(fmt.Sprintf("SELECT %s, COUNT(*) FROM dataroad%s GROUP BY %s ORDER BY %s", bin, where, bin, bin))
		f.check(t, fmt.Sprintf("unfiltered %d", i), stmt, nil, true)
	}
	var decided, gridded int64
	for _, rep := range f.reps {
		st := colstore.StatsOf(rep.Table)
		decided, gridded = decided+st.RunsDecided, gridded+st.GridStatements
	}
	t.Logf("%d gridded statements, %d run decisions", gridded, decided)
}

// FuzzGridHistogram asks one random statement of the grid fixture's
// partitions: ranges and bins from the fuzzer, a predicate on the
// non-grid column or not. The answer must equal oracle.Histogram's and the
// directory-less partition's at P ∈ {1,2,4,8}.
func FuzzGridHistogram(f *testing.F) {
	fix := newGridFixture(f, 300000)
	f.Add(int64(1), 0.3, 0.7, 0.1, 0.9, 0.0, 1.0, uint8(0), uint8(20), 0.0, false)
	f.Add(int64(2), 0.025, 0.975, -0.2, 1.2, 0.5, 0.5, uint8(1), uint8(7), 1.0/3, true)
	f.Add(int64(3), 0.9, 0.1, 0.0, 1.0, 0.45, 0.55, uint8(2), uint8(40), 0.0, false)
	f.Fuzz(func(t *testing.T, seed int64, x0, x1, y0, y1, z0, z1 float64, target, bins uint8, shift float64, withP bool) {
		for _, v := range []float64{x0, x1, y0, y1, z0, z1, shift} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				t.Skip()
			}
		}
		if bins == 0 {
			t.Skip()
		}
		fracs := [][2]float64{{x0, x1}, {y0, y1}, {z0, z1}, {0, 1}}
		use := fix.dims[:3]
		if withP {
			use = fix.dims
			fracs[3] = [2]float64{rand.New(rand.NewSource(seed)).Float64() / 2, 0.5 + x0}
		}
		var s statement
		for j, d := range use {
			w := d.Hi - d.Lo
			s.dims = append(s.dims, opt.CrossfilterDim{Column: d.Name, Lo: d.Lo, Hi: d.Hi})
			s.odims = append(s.odims, datacube.Dim{Name: d.Name, Lo: d.Lo, Hi: d.Hi})
			s.ranges = append(s.ranges, [2]float64{d.Lo + fracs[j][0]*w, d.Lo + fracs[j][1]*w})
		}
		s.target, s.bins = int(target)%3, int(bins)
		d := &s.dims[s.target]
		off := shift * (d.Hi - d.Lo) / float64(s.bins)
		d.Lo, d.Hi = d.Lo+off, d.Hi+off
		s.odims[s.target].Lo, s.odims[s.target].Hi = d.Lo, d.Hi
		fix.check(t, "fuzz", s.sql(t), func(tbl *storage.Table) [][2]int64 {
			return oracle.Histogram(tbl, s.odims, s.ranges, s.target, s.bins)
		}, !withP)
	})
}
