package oracle

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datacube"
	"repro/internal/storage"
)

// TestImportsStayIndependent: the oracle's non-test source imports nothing
// it checks — the standard library, storage, and datacube for its Dim and
// Range types only; a call into datacube, or any import of engine,
// colstore, shard or sql, would share the code under test.
func TestImportsStayIndependent(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		checked++
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.Contains(strings.SplitN(path, "/", 2)[0], ".") ||
				strings.HasPrefix(path, "repro/") && path != "repro/internal/storage" && path != "repro/internal/datacube" {
				t.Errorf("%s imports %s", name, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, isPkg := sel.X.(*ast.Ident); isPkg && id.Name == "datacube" && sel.Sel.Name != "Dim" && sel.Sel.Name != "Range" {
				t.Errorf("%s uses datacube.%s", name, sel.Sel.Name)
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("no oracle source found")
	}
}

// TestHistogramRoundEdges pins the statement rule on a hand-built table:
// 4 bins over [0, 10] (step 2.5, so a·v + b = v/2.5), rows on the ROUND
// edges k + ½ (which go away from zero), a row just below one, rows past
// the domain either way, a NaN (no range keeps it), and ranges whose ends
// are row values (closed: they keep them), inverted and of width zero.
func TestHistogramRoundEdges(t *testing.T) {
	tbl := storage.NewTable("t", storage.Schema{{Name: "v", Type: storage.Float64}, {Name: "w", Type: storage.Float64}})
	for _, r := range [][2]float64{
		{-1.25, 0}, {-1, 1}, {0, 2}, {1.25, 3}, {1.2499999, 4}, {3.75, 5}, {5, 6}, {10, 7}, {11.25, 8}, {math.NaN(), 9},
	} {
		if err := tbl.AppendRow(storage.NewFloat(r[0]), storage.NewFloat(r[1])); err != nil {
			t.Fatal(err)
		}
	}
	dims := []datacube.Dim{{Name: "v", Lo: 0, Hi: 10}, {Name: "w"}}
	all := [2]float64{math.Inf(-1), math.Inf(1)}
	for _, tc := range []struct {
		ranges [][2]float64
		want   [][2]int64
	}{
		{[][2]float64{all, all}, [][2]int64{{-1, 1}, {0, 3}, {1, 1}, {2, 2}, {4, 1}, {5, 1}}},
		{[][2]float64{{0, 5}, all}, [][2]int64{{0, 2}, {1, 1}, {2, 2}}},
		{[][2]float64{all, {3, 3}}, [][2]int64{{1, 1}}},
		{[][2]float64{all, {6, 2}}, [][2]int64{}},
	} {
		if got := Histogram(tbl, dims, tc.ranges, 0, 4); !slices.Equal(got, tc.want) {
			t.Errorf("ranges %v: %v, want %v", tc.ranges, got, tc.want)
		}
	}
}

// TestBrushBinEdges pins the binning rule on a hand-built table: rows on
// bin edges, below and past the domain, a filter ending exactly on an edge
// (which stops short of that bin), a width-zero filter and an inverted one.
func TestBrushBinEdges(t *testing.T) {
	tbl := storage.NewTable("t", storage.Schema{{Name: "v", Type: storage.Float64}})
	for _, v := range []float64{-1, 0, 2.5, 2.5000001, 5, 7.5, 10, 12} {
		if err := tbl.AppendRow(storage.NewFloat(v)); err != nil {
			t.Fatal(err)
		}
	}
	dims := []datacube.Dim{{Name: "v", Lo: 0, Hi: 10, Bins: 4}}
	for _, tc := range []struct {
		filter *datacube.Range
		total  int64
		hist   []int64
	}{
		{nil, 8, []int64{2, 2, 1, 3}},
		{&datacube.Range{Lo: 0, Hi: 5}, 4, []int64{2, 2, 0, 0}},     // Hi on bin 2's lower edge
		{&datacube.Range{Lo: 0, Hi: 5.1}, 5, []int64{2, 2, 1, 0}},   // past it
		{&datacube.Range{Lo: 2.5, Hi: 2.5}, 2, []int64{0, 2, 0, 0}}, // width zero keeps its bin
		{&datacube.Range{Lo: 7, Hi: 3}, 0, []int64{0, 0, 0, 0}},     // inverted
	} {
		total, hists := Brush(tbl, dims, []*datacube.Range{tc.filter})
		if total != tc.total || !equal(hists[0], tc.hist) {
			t.Errorf("filter %+v: total %d hist %v, want %d %v", tc.filter, total, hists[0], tc.total, tc.hist)
		}
	}
}

func equal(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
