package datacube

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/storage"
)

// randomFilters draws a filter set mixing nil (unfiltered), interior,
// bin-edge-aligned, degenerate (Lo == Hi), and inverted ranges — every
// boundary class BinRange distinguishes.
func randomFilters(rng *rand.Rand, dims []Dim) []*Range {
	if rng.Intn(6) == 0 {
		return nil
	}
	filters := make([]*Range, len(dims))
	for i, d := range dims {
		switch rng.Intn(6) {
		case 0: // unfiltered
		case 1: // interior range
			lo := d.Lo + rng.Float64()*(d.Hi-d.Lo)
			filters[i] = &Range{Lo: lo, Hi: lo + rng.Float64()*(d.Hi-lo)}
		case 2: // bin-edge aligned on both sides
			a := rng.Intn(d.Bins)
			b := a + rng.Intn(d.Bins-a)
			filters[i] = &Range{Lo: d.binLo(a), Hi: d.binLo(b + 1)}
		case 3: // degenerate width-zero brush
			v := d.Lo + rng.Float64()*(d.Hi-d.Lo)
			filters[i] = &Range{Lo: v, Hi: v}
		case 4: // inverted (empty)
			filters[i] = &Range{Lo: d.Hi, Hi: d.Lo}
		default: // domain-edge clamped
			filters[i] = &Range{Lo: d.Lo - 1, Hi: d.Hi + 1}
		}
	}
	return filters
}

// TestPrefixMatchesCubeRandom is the tentpole's differential proof on the
// cube side: the summed-area decomposition must be byte-identical to the
// dense cube's box walk for every target and randomized filter set, with
// the cube built at parallelism 1, 2, 4, and 8.
func TestPrefixMatchesCubeRandom(t *testing.T) {
	roads := dataset.Roads(21, 9000)
	dims := roadDims()
	for _, p := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			cube, err := BuildWith(roads, dims, p)
			if err != nil {
				t.Fatal(err)
			}
			prefix := NewPrefix(cube)
			rng := rand.New(rand.NewSource(int64(40 + p)))
			for trial := 0; trial < 120; trial++ {
				filters := randomFilters(rng, dims)
				for target := range dims {
					want, err := cube.Histogram(target, filters)
					if err != nil {
						t.Fatal(err)
					}
					got, err := prefix.Histogram(target, filters)
					if err != nil {
						t.Fatal(err)
					}
					for b := range want {
						if got[b] != want[b] {
							t.Fatalf("trial %d target %d bin %d: prefix %d vs cube %d (filters %+v)",
								trial, target, b, got[b], want[b], filters)
						}
					}
				}
				wantN, err := cube.Count(filters)
				if err != nil {
					t.Fatal(err)
				}
				gotN, err := prefix.Count(filters)
				if err != nil {
					t.Fatal(err)
				}
				if gotN != wantN {
					t.Fatalf("trial %d: prefix count %d vs cube %d", trial, gotN, wantN)
				}
			}
		})
	}
}

// TestPrefixSingleDimension pins the d=1 degenerate case (no "other"
// dimensions: one corner combination, pure axis differencing).
func TestPrefixSingleDimension(t *testing.T) {
	tbl := storage.NewTable("t", storage.Schema{{Name: "v", Type: storage.Float64}})
	for i := 0; i < 100; i++ {
		tbl.MustAppendRow(storage.NewFloat(float64(i)))
	}
	prefix, err := BuildPrefix(tbl, []Dim{{Name: "v", Lo: 0, Hi: 100, Bins: 10}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := prefix.Histogram(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for b, v := range h {
		if v != 10 {
			t.Errorf("bin %d = %d, want 10", b, v)
		}
	}
	n, err := prefix.Count([]*Range{{Lo: 20, Hi: 50}})
	if err != nil {
		t.Fatal(err)
	}
	// Bins 2..4 under the half-open upper edge (50 sits on bin 5's edge).
	if n != 30 {
		t.Errorf("count = %d, want 30", n)
	}
}

// TestPrefixErrors mirrors the cube's validation surface.
func TestPrefixErrors(t *testing.T) {
	roads := dataset.Roads(1, 500)
	prefix, err := BuildPrefix(roads, roadDims(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prefix.Histogram(9, nil); err == nil {
		t.Error("bad target accepted")
	}
	if _, err := prefix.Histogram(0, []*Range{nil}); err == nil {
		t.Error("wrong filter arity accepted")
	}
	if err := prefix.HistogramInto(0, nil, make([]int64, 3)); err == nil {
		t.Error("wrong out length accepted")
	}
	if _, err := prefix.Count([]*Range{nil}); err == nil {
		t.Error("wrong count arity accepted")
	}
	if prefix.NumDims() != 3 || prefix.NumRecords() != 500 {
		t.Errorf("dims %d records %d", prefix.NumDims(), prefix.NumRecords())
	}
	if prefix.DimIndex("y") != 1 || prefix.DimIndex("nope") != -1 {
		t.Error("DimIndex wrong")
	}
	if _, err := BuildPrefix(roads, []Dim{{Name: "missing", Bins: 4}}, 1); err == nil {
		t.Error("missing column accepted")
	}
}

// TestBinRangeHalfOpen pins the satellite fix: the upper filter edge is
// half-open, so a Hi landing exactly on a bin boundary stops short of the
// next bin instead of including all of it.
func TestBinRangeHalfOpen(t *testing.T) {
	d := Dim{Name: "v", Lo: 0, Hi: 100, Bins: 10}
	cases := []struct {
		name   string
		r      Range
		lo, hi int
	}{
		{"interior", Range{Lo: 12, Hi: 47}, 1, 4},
		{"hi exactly on bin edge", Range{Lo: 12, Hi: 50}, 1, 4},
		{"hi just past bin edge", Range{Lo: 12, Hi: 50.001}, 1, 5},
		{"lo and hi on edges", Range{Lo: 20, Hi: 60}, 2, 5},
		{"full domain", Range{Lo: 0, Hi: 100}, 0, 9},
		{"beyond domain clamps", Range{Lo: -5, Hi: 200}, 0, 9},
		{"degenerate keeps its bin", Range{Lo: 35, Hi: 35}, 3, 3},
		{"degenerate on a bin edge", Range{Lo: 40, Hi: 40}, 4, 4},
		{"degenerate at domain lo", Range{Lo: 0, Hi: 0}, 0, 0},
		{"degenerate at domain hi", Range{Lo: 100, Hi: 100}, 9, 9},
		{"hi at domain lo", Range{Lo: -10, Hi: 0}, 0, 0},
		{"single bin half-open", Range{Lo: 10, Hi: 20}, 1, 1},
	}
	for _, tc := range cases {
		lo, hi := d.BinRange(tc.r)
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("%s: BinRange(%+v) = [%d,%d], want [%d,%d]", tc.name, tc.r, lo, hi, tc.lo, tc.hi)
		}
	}
	// Inverted ranges surface as lo > hi, the callers' empty-box signal.
	if lo, hi := d.BinRange(Range{Lo: 80, Hi: 20}); lo <= hi {
		t.Errorf("inverted range: [%d,%d] not empty", lo, hi)
	}
	// Degenerate domain: everything lands in bin 0.
	flat := Dim{Name: "f", Lo: 5, Hi: 5, Bins: 10}
	if lo, hi := flat.BinRange(Range{Lo: 5, Hi: 5}); lo != 0 || hi != 0 {
		t.Errorf("degenerate domain: [%d,%d]", lo, hi)
	}
}

// TestBinOfEdges pins BinOf's clamping at the domain edges.
func TestBinOfEdges(t *testing.T) {
	d := Dim{Name: "v", Lo: 0, Hi: 100, Bins: 10}
	if b := d.BinOf(0); b != 0 {
		t.Errorf("BinOf(0) = %d", b)
	}
	if b := d.BinOf(100); b != 9 {
		t.Errorf("BinOf(100) = %d, want clamp to last bin", b)
	}
	if b := d.BinOf(-3); b != 0 {
		t.Errorf("BinOf(-3) = %d", b)
	}
	if b := d.BinOf(999); b != 9 {
		t.Errorf("BinOf(999) = %d", b)
	}
	if b := d.BinOf(10); b != 1 {
		t.Errorf("BinOf(10) = %d: a value on a bin edge belongs to the upper bin", b)
	}
}

// TestCubeHistogramInto covers the allocation-free form on the dense cube.
func TestCubeHistogramInto(t *testing.T) {
	roads := dataset.Roads(22, 3000)
	cube, err := Build(roads, roadDims())
	if err != nil {
		t.Fatal(err)
	}
	filters := []*Range{{Lo: 9.5, Hi: 10.5}, nil, nil}
	want, err := cube.Histogram(1, filters)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, 20)
	for i := range out {
		out[i] = -999 // must be zeroed by the call
	}
	if err := cube.HistogramInto(1, filters, out); err != nil {
		t.Fatal(err)
	}
	for b := range want {
		if out[b] != want[b] {
			t.Fatalf("bin %d: %d vs %d", b, out[b], want[b])
		}
	}
	if err := cube.HistogramInto(1, filters, make([]int64, 7)); err == nil {
		t.Error("wrong out length accepted")
	}
}
