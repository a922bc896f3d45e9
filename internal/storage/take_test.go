package storage_test

import (
	"math"
	"testing"

	"repro/internal/colstore"
	"repro/internal/storage"
)

// takeSource is a table whose columns freeze into every encoding family:
// few distinct strings (dictionary), narrow ints (frame of reference), and
// floats with NaN and ±Inf (plain), on a non-default page size.
func takeSource() *storage.Table {
	t := storage.NewTable("src", storage.Schema{
		{Name: "id", Type: storage.Int64},
		{Name: "small", Type: storage.Int64},
		{Name: "f", Type: storage.Float64},
		{Name: "name", Type: storage.String},
	})
	t.PageRows = 17
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.0}
	for i := 0; i < 300; i++ {
		f := float64(i)*0.37 - 40
		if i%23 == 0 {
			f = specials[(i/23)%len(specials)]
		}
		t.MustAppendRow(
			storage.NewInt(int64(i*7919-1000000)),
			storage.NewInt(int64(i%5)),
			storage.NewFloat(f),
			storage.NewString([]string{"alpha", "beta", "", "gamma"}[i%4]),
		)
	}
	return t
}

// appendRows is the row-at-a-time gather Take replaces.
func appendRows(t *testing.T, src *storage.Table, rows []int) *storage.Table {
	t.Helper()
	out := storage.NewTable(src.Name, src.Schema)
	out.PageRows = src.PageRows
	for _, r := range rows {
		if err := out.AppendRow(src.Row(r)...); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// requireIdentical compares two tables value for value, bit for bit (so a
// NaN must stay the same NaN and -0 must stay -0).
func requireIdentical(t *testing.T, got, want *storage.Table) {
	t.Helper()
	if got.Name != want.Name || got.PageRows != want.PageRows || len(got.Schema) != len(want.Schema) {
		t.Fatalf("header: %q/%d/%d vs %q/%d/%d", got.Name, got.PageRows, len(got.Schema),
			want.Name, want.PageRows, len(want.Schema))
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows: %d vs %d", got.NumRows(), want.NumRows())
	}
	for c, col := range got.Columns {
		if col.Enc != nil {
			t.Fatalf("column %d: Take returned a frozen column", c)
		}
		for r := 0; r < got.NumRows(); r++ {
			a, b := col.Value(r), want.Columns[c].Value(r)
			if a.Type != b.Type || a.I != b.I || a.S != b.S || math.Float64bits(a.F) != math.Float64bits(b.F) {
				t.Fatalf("row %d column %d: %v vs %v", r, c, a, b)
			}
		}
	}
}

// TestTakeMatchesAppendRows: Take gathers exactly what appending each
// listed row would, from raw and frozen sources, for empty, ascending,
// shuffled, and repeating row lists.
func TestTakeMatchesAppendRows(t *testing.T) {
	raw := takeSource()
	frozen, err := colstore.Freeze(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	lists := map[string][]int{
		"empty":     {},
		"nil":       nil,
		"all":       make([]int, raw.NumRows()),
		"reversed":  make([]int, raw.NumRows()),
		"repeated":  {5, 5, 5, 0, 299, 0, 23, 23},
		"strided":   {},
		"one-row":   {46},
		"last-rows": {297, 298, 299},
	}
	for i := range lists["all"] {
		lists["all"][i] = i
		lists["reversed"][i] = raw.NumRows() - 1 - i
	}
	for i := 0; i < raw.NumRows(); i += 7 {
		lists["strided"] = append(lists["strided"], i)
	}
	for name, rows := range lists {
		want := appendRows(t, raw, rows)
		t.Run(name+"/raw", func(t *testing.T) { requireIdentical(t, raw.Take(rows), want) })
		t.Run(name+"/frozen", func(t *testing.T) { requireIdentical(t, frozen.Take(rows), want) })
	}
}

// TestTakeIsACopy: the gathered table shares no backing array with its
// source, so appending to either leaves the other as it was.
func TestTakeIsACopy(t *testing.T) {
	src := takeSource()
	got := src.Take([]int{0, 1, 2})
	got.MustAppendRow(storage.NewInt(1), storage.NewInt(2), storage.NewFloat(3), storage.NewString("x"))
	got.Columns[0].Ints[0] = 42
	if src.NumRows() != 300 || src.Columns[0].Ints[0] == 42 {
		t.Fatal("Take's result aliases its source")
	}
}
