package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/leakcheck"
	"repro/internal/oracle"
	"repro/internal/shard"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/widget"
)

// boxTotal sums a box-count statement's rows: one, or none for an empty box.
func boxTotal(res *engine.Result) int64 {
	var n int64
	for _, row := range res.Rows {
		n += row[1].I
	}
	return n
}

// TestTileCountKernelMatchesScalar: the box-count statement a tile miss
// runs counts what the per-row loop counts, on the raw and on the
// EncodeBackends table, through the engine's fast path and through
// coordinators at S ∈ {1, 2, 4} (the partitions a -shards server scatters
// it to, cell-run directories included). The boxes are every tile at
// z 0–3, every z 4–12 tile touching the road bounds (whose counts must
// also partition the table at each zoom), and boxes whose edges sit
// exactly on a row's coordinates, where >= lo / < hi decides that row,
// empty boxes, negative boxes and subnormal ones.
func TestTileCountKernelMatchesScalar(t *testing.T) {
	const rows = 40_000 // three morsels, the last one partial
	lonLo, lonHi, latLo, latHi, _, _ := dataset.RoadBounds()
	ctx := context.Background()
	checked := 0
	for _, encode := range []bool{false, true} {
		backends, err := RoadBackends(1, rows, engine.ProfileMemory)
		if err != nil {
			t.Fatal(err)
		}
		if encode {
			if backends, err = EncodeBackends(backends); err != nil {
				t.Fatal(err)
			}
		}
		// Each path answers one statement with its (bin, count) rows and
		// the record fraction they cover.
		type path struct {
			name  string
			count func(q string) (*engine.Result, float64, error)
		}
		paths := []path{{"engine", func(q string) (*engine.Result, float64, error) {
			res, err := backends.Engine.Query(q)
			if err == nil && !res.Stats.UsedFastPath {
				err = fmt.Errorf("took the generic path")
			}
			return res, 1, err
		}}}
		for _, s := range []int{1, 2, 4} {
			coord, err := shard.New(backends.Tiles, RoadCubeDims(), shard.Options{
				Shards: s, WithEngine: true, Profile: backends.Engine.Profile(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			paths = append(paths, path{fmt.Sprintf("S=%d", s), func(q string) (*engine.Result, float64, error) {
				res, frac, shaped, err := coord.QueryHistogram(ctx, q)
				if err == nil && !shaped {
					err = fmt.Errorf("not histogram-shaped")
				}
				return res, frac, err
			}})
		}
		lat, lng := backends.Tiles.Column("y"), backends.Tiles.Column("x")
		check := func(label string, aLo, aHi, oLo, oHi float64) int64 {
			t.Helper()
			checked++
			want := oracle.BoxCount(lat, lng, aLo, aHi, oLo, oHi)
			q := boxQuery(backends.Tiles.Name, "y", "x", aLo, aHi, oLo, oHi)
			for _, p := range paths {
				res, frac, err := p.count(q)
				if err != nil {
					t.Fatalf("encode=%v %s %s: %v\n%s", encode, p.name, label, err, q)
				}
				if got := boxTotal(res); got != want || frac != 1 || len(res.Rows) > 1 {
					t.Fatalf("encode=%v %s %s: statement counts %d over %d rows at fraction %g, per-row loop %d\n%s",
						encode, p.name, label, got, len(res.Rows), frac, want, q)
				}
			}
			return want
		}

		for z := 0; z <= 12; z++ {
			// A tile's latitude band depends on y alone, its longitude band
			// on x alone: pick each axis's touching rows and columns once.
			var xs, ys []int
			for i := 0; i < 1<<z; i++ {
				if aLo, aHi, _, _ := tileBounds(widget.Tile{Z: z, Y: i}); z <= 3 || (aHi > latLo && aLo <= latHi) {
					ys = append(ys, i)
				}
				if _, _, oLo, oHi := tileBounds(widget.Tile{Z: z, X: i}); z <= 3 || (oHi > lonLo && oLo <= lonHi) {
					xs = append(xs, i)
				}
			}
			var tiles int
			var total int64
			for _, x := range xs {
				for _, y := range ys {
					tile := widget.Tile{Z: z, X: x, Y: y}
					aLo, aHi, oLo, oHi := tileBounds(tile)
					tiles++
					total += check(tile.String(), aLo, aHi, oLo, oHi)
				}
			}
			if tiles == 0 || total != rows {
				t.Fatalf("encode=%v z=%d: %d tiles hold %d rows, want all %d exactly once", encode, z, tiles, total, rows)
			}
		}

		rng := rand.New(rand.NewSource(9))
		for trial := 0; trial < 60; trial++ {
			i, j := rng.Intn(rows), rng.Intn(rows)
			aLo, aHi := lat.Float(i), lat.Float(j)
			oLo, oHi := lng.Float(i), lng.Float(j)
			if aLo > aHi {
				aLo, aHi = aHi, aLo
			}
			if oLo > oHi {
				oLo, oHi = oHi, oLo
			}
			check("row-edged box", aLo, aHi, oLo, oHi)
			// Row i alone decides these: its own coordinates as the lower
			// edges include it, as an upper edge exclude it.
			la, ln := lat.Float(i), lng.Float(i)
			in := check("lower edges on a row", la, math.Nextafter(la, math.Inf(1)), ln, math.Nextafter(ln, math.Inf(1)))
			if in < 1 {
				t.Fatalf("encode=%v: row %d is not inside the box that starts at it", encode, i)
			}
			if out := check("upper edge on a row", math.Nextafter(la, math.Inf(-1)), la, ln, math.Nextafter(ln, math.Inf(1))); out != 0 {
				t.Fatalf("encode=%v: box ending at row %d's latitude holds %d rows", encode, i, out)
			}
			check("empty box", la, la, ln, ln)
			check("inverted box", aHi, aLo, oLo, oHi)
			check("negative box", -la, -aLo, -ln, oHi)
		}
		sub := math.SmallestNonzeroFloat64
		check("subnormal box", -sub, sub, -sub, sub)
		check("subnormal-edged world", -sub, math.MaxFloat64, sub, 1e308)
		check("negative-zero box", math.Copysign(0, -1), latHi, math.Copysign(0, -1), lonHi)
	}
	t.Logf("%d box statements, each on the engine and at S = 1, 2, 4", checked)
}

// getTile fetches one tile, which must answer 200, as its raw body and
// decoded.
func getTile(t *testing.T, url, key string) ([]byte, TileResponse) {
	t.Helper()
	resp, err := http.Get(url + "/v1/tiles?session=s1&key=" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("tile %s: status %d %v: %s", key, resp.StatusCode, err, body)
	}
	var tr TileResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	return body, tr
}

// tileCached reports whether srv's tile cache holds tile key.
func tileCached(srv *Server, key string) bool {
	srv.tileMu.Lock()
	defer srv.tileMu.Unlock()
	_, hit := srv.tileCache.Get(srv.tiles.Name + "|" + key)
	return hit
}

// TestTileMissCutShortCachesNothing: a cold tile whose count the budget
// cuts short — every backend execution stalls past the deadline — is
// answered degraded from the sample partition and leaves the tile cache
// untouched, so the next fetch is a miss again; healed, the same tile is
// exact, byte-identical to a plain server's body, and cached.
func TestTileMissCutShortCachesNothing(t *testing.T) {
	const rows = 40_000 // more than the sample holds: the estimate is scaled
	leakcheck.Check(t)
	stall := fault.New(fault.Profile{Name: "wedge", StallProb: 1, StallDelay: 5 * time.Second}, 3)
	srv, ts := shardTestServer(t, rows, 1, nil, Config{
		Workers: 1, Deadlines: true, DegradeAfter: 80 * time.Millisecond, Fault: stall,
	})
	_, plain := shardTestServer(t, rows, 1, nil, Config{Workers: 1})
	const key = "0/0/0"
	fetch := func(url string) ([]byte, TileResponse) { return getTile(t, url, key) }
	cached := func() bool { return tileCached(srv, key) }

	for i := 0; i < 2; i++ {
		_, tr := fetch(ts.URL)
		if !tr.Degraded || tr.SampleFraction != srv.sampleFrac || srv.sampleFrac >= 1 {
			t.Fatalf("stalled fetch %d: %+v, want degraded at the sample's fraction %g", i, tr, srv.sampleFrac)
		}
		if cached() {
			t.Fatalf("stalled fetch %d: a cut-short count was cached", i)
		}
	}
	if st := srv.Stats(); st.TileCacheMiss != 2 || st.TileCacheHits != 0 || st.Degraded != 2 {
		t.Fatalf("stalled: tile misses %d hits %d degraded %d, want 2, 0, 2", st.TileCacheMiss, st.TileCacheHits, st.Degraded)
	}

	stall.SetProfile(fault.Profile{})
	want, _ := fetch(plain.URL)
	for i := 0; i < 2; i++ { // a miss, then a hit from the cache
		if got, _ := fetch(ts.URL); string(got) != string(want) {
			t.Fatalf("healed fetch %d: %s, want the plain server's %s", i, got, want)
		}
	}
	if st := srv.Stats(); !cached() || st.TileCacheHits != 1 || st.TileCacheMiss != 3 {
		t.Fatalf("healed: cached=%v, tile hits %d misses %d, want true, 1, 3", cached(), st.TileCacheHits, st.TileCacheMiss)
	}
}

// FuzzBoxQuery: for any finite box, the statement a tile miss runs parses,
// is histogram-shaped, and counts exactly what the per-row loop counts
// over a table whose rows sit on the box's edges and one ULP to either
// side of them, raw and frozen.
func FuzzBoxQuery(f *testing.F) {
	negZero := math.Copysign(0, -1)
	sub := math.SmallestNonzeroFloat64
	f.Add(56.9, 57.4, 8.2, 10.5)
	f.Add(negZero, 0.0, negZero, 1.0)
	f.Add(-sub, sub, sub, 2*sub)
	f.Add(-1e308, 1e308, -math.MaxFloat64, math.MaxFloat64)
	f.Add(3.0, 3.0, -2.0, -7.0)
	f.Add(-85.05112877980659, 85.05112877980659, -180.0, 180.0)
	f.Fuzz(func(t *testing.T, latLo, latHi, lngLo, lngHi float64) {
		for _, v := range []float64{latLo, latHi, lngLo, lngHi} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("bounds are finite")
			}
		}
		edges := func(lo, hi float64) []float64 {
			var vs []float64
			for _, v := range []float64{lo, hi, 0} {
				vs = append(vs, math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1)))
			}
			return append(vs, lo/2+hi/2)
		}
		tbl := storage.NewTable("box", storage.Schema{{Name: "lat", Type: storage.Float64}, {Name: "lng", Type: storage.Float64}})
		for _, la := range edges(latLo, latHi) {
			for _, ln := range edges(lngLo, lngHi) {
				if err := tbl.AppendRow(storage.NewFloat(la), storage.NewFloat(ln)); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := oracle.BoxCount(tbl.Column("lat"), tbl.Column("lng"), latLo, latHi, lngLo, lngHi)
		q := boxQuery(tbl.Name, "lat", "lng", latLo, latHi, lngLo, lngHi)
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		frozen, err := colstore.Freeze(tbl, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, table := range []*storage.Table{tbl, frozen} {
			eng := engine.New(engine.ProfileMemory)
			eng.Register(table)
			if !eng.IsHistogramShaped(stmt) {
				t.Fatalf("not histogram-shaped: %s", q)
			}
			res, err := eng.Execute(stmt)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if got := boxTotal(res); got != want || len(res.Rows) > 1 {
				t.Fatalf("frozen=%v %s: counts %d over %d rows, per-row loop %d", table == frozen, q, got, len(res.Rows), want)
			}
		}
	})
}
