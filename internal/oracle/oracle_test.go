package oracle

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

	"repro/internal/datacube"
	"repro/internal/storage"
)

// TestImportsStayIndependent: the oracle's non-test source imports nothing
// it checks beyond storage, and uses datacube for its Dim and Range types
// only — a call into datacube would share the code under test.
func TestImportsStayIndependent(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "oracle.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if path != "repro/internal/storage" && path != "repro/internal/datacube" {
			t.Errorf("oracle imports %s", path)
		}
	}
	f, err = parser.ParseFile(token.NewFileSet(), "oracle.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, isPkg := sel.X.(*ast.Ident); isPkg && id.Name == "datacube" && sel.Sel.Name != "Dim" && sel.Sel.Name != "Range" {
			t.Errorf("oracle uses datacube.%s", sel.Sel.Name)
		}
		return true
	})
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
