package dataset

import "testing"

func TestMoviesShape(t *testing.T) {
	m := Movies(1, 500)
	if m.NumRows() != 500 {
		t.Fatalf("NumRows = %d, want 500", m.NumRows())
	}
	for _, col := range []string{"id", "poster", "title", "year", "director", "genre", "plot", "rating"} {
		if m.Column(col) == nil {
			t.Errorf("missing column %q", col)
		}
	}
	// Ratings trend downward: first decile mean > last decile mean.
	r := m.Column("rating")
	var head, tail float64
	for i := 0; i < 50; i++ {
		head += r.Floats[i]
		tail += r.Floats[450+i]
	}
	if head <= tail {
		t.Errorf("ratings do not descend with rank: head=%v tail=%v", head/50, tail/50)
	}
	// All ratings plausible.
	for i := 0; i < 500; i++ {
		if v := r.Floats[i]; v < 5 || v > 10 {
			t.Fatalf("rating[%d] = %v out of range", i, v)
		}
	}
}

func TestMoviesDeterministic(t *testing.T) {
	a, b := Movies(7, 100), Movies(7, 100)
	for i := 0; i < 100; i++ {
		if a.Column("title").Strings[i] != b.Column("title").Strings[i] {
			t.Fatal("same seed produced different movies")
		}
	}
	c := Movies(8, 100)
	diff := false
	for i := 0; i < 100; i++ {
		if a.Column("title").Strings[i] != c.Column("title").Strings[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical movies")
	}
}

func TestMovieRatingSplit(t *testing.T) {
	m := Movies(1, 200)
	ratings, details := MovieRatingSplit(m)
	if ratings.NumRows() != 200 || details.NumRows() != 200 {
		t.Fatal("split changed cardinality")
	}
	if ratings.Column("rating") == nil || details.Column("title") == nil {
		t.Fatal("split schemas wrong")
	}
	// Join key lines up.
	for i := 0; i < 200; i++ {
		if ratings.Column("id").Ints[i] != details.Column("id").Ints[i] {
			t.Fatal("ids diverge between split tables")
		}
		if ratings.Column("rating").Floats[i] != m.Column("rating").Floats[i] {
			t.Fatal("rating mismatch after split")
		}
	}
}

func TestRoadsShapeAndBounds(t *testing.T) {
	r := Roads(3, 5000)
	if r.NumRows() != 5000 {
		t.Fatalf("NumRows = %d, want 5000", r.NumRows())
	}
	lonLo, lonHi, latLo, latHi, altLo, altHi := RoadBounds()
	checks := []struct {
		col    string
		lo, hi float64
	}{
		{"x", lonLo, lonHi}, {"y", latLo, latHi}, {"z", altLo, altHi},
	}
	for _, c := range checks {
		lo, hi, ok := r.MinMax(c.col)
		if !ok {
			t.Fatalf("MinMax(%s) failed", c.col)
		}
		if lo < c.lo || hi > c.hi {
			t.Errorf("%s range [%v,%v] outside bounds [%v,%v]", c.col, lo, hi, c.lo, c.hi)
		}
	}
}

func TestRoadsNonUniform(t *testing.T) {
	// Road data must be spatially clustered: a 20-bin histogram over x
	// should have a max bin well above the uniform expectation.
	r := Roads(3, 20000)
	lonLo, lonHi, _, _, _, _ := RoadBounds()
	bins := make([]int, 20)
	col := r.Column("x")
	for i := 0; i < r.NumRows(); i++ {
		b := int((col.Floats[i] - lonLo) / (lonHi - lonLo) * 20)
		if b >= 20 {
			b = 19
		}
		bins[b]++
	}
	max := 0
	for _, b := range bins {
		if b > max {
			max = b
		}
	}
	uniform := r.NumRows() / 20
	if max < uniform*2 {
		t.Errorf("x histogram looks uniform: max bin %d vs uniform %d", max, uniform)
	}
}

func TestRoadsExactCountRequested(t *testing.T) {
	// Segment emission must not overshoot n.
	for _, n := range []int{1, 19, 20, 21, 437} {
		if got := Roads(5, n).NumRows(); got != n {
			t.Errorf("Roads(n=%d) produced %d rows", n, got)
		}
	}
}

func TestListings(t *testing.T) {
	l := Listings(2, 3000)
	if l.NumRows() != 3000 {
		t.Fatalf("NumRows = %d", l.NumRows())
	}
	prices := l.Column("price")
	neg := 0
	for i := 0; i < l.NumRows(); i++ {
		if prices.Floats[i] <= 0 {
			neg++
		}
	}
	if neg > 0 {
		t.Errorf("%d non-positive prices", neg)
	}
	// room_type values restricted to the known set.
	seen := map[string]bool{}
	for _, s := range l.Column("room_type").Strings {
		seen[s] = true
	}
	for s := range seen {
		ok := false
		for _, want := range roomTypes {
			if s == want {
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected room_type %q", s)
		}
	}
	// ratings within [1,5]
	for _, v := range l.Column("rating").Floats {
		if v < 1 || v > 5 {
			t.Fatalf("rating %v out of [1,5]", v)
		}
	}
}

func TestFullSizeRoadCountSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size road network in -short mode")
	}
	r := Roads(1, RoadCount)
	if r.NumRows() != RoadCount {
		t.Fatalf("NumRows = %d, want %d", r.NumRows(), RoadCount)
	}
	rows := 0
	for _, x := range r.Column("x").Floats {
		if x >= 9 && x <= 10 {
			rows++
		}
	}
	if rows == 0 {
		t.Error("mid-domain range x∈[9,10] has no rows")
	}
}

// BenchmarkRoads prices generating the paper-scale road table, the
// largest part of a road server's start.
func BenchmarkRoads(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Roads(1, RoadCount).NumRows() != RoadCount {
			b.Fatal("short table")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/RoadCount, "ns/row")
}
