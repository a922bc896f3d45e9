package serve

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/widget"
)

// scalarBoxCount is the per-row loop the tile miss path ran before it rode
// the kernels — two Column.Float reads and the half-open test per row —
// kept as boxCount's oracle.
func scalarBoxCount(lat, lng *storage.Column, latLo, latHi, lngLo, lngHi float64) int64 {
	var count int64
	for i, n := 0, lat.Len(); i < n; i++ {
		la, ln := lat.Float(i), lng.Float(i)
		if la >= latLo && la < latHi && ln >= lngLo && ln < lngHi {
			count++
		}
	}
	return count
}

// countingCtx reports cancellation from its (live+1)-th Err call on: a
// scan that checks once per morsel is cut after live morsels.
type countingCtx struct {
	context.Context
	live int
}

func (c *countingCtx) Err() error {
	if c.live--; c.live < 0 {
		return context.Canceled
	}
	return nil
}

// TestTileCountKernelMatchesScalar: the kernel tile count equals the old
// per-row loop on the raw and on the EncodeBackends table, for every
// z 6–9 tile touching the road bounds (whose counts must also partition
// the table at each zoom) and for boxes whose edges sit exactly on a row's
// coordinates, where >= lo / < hi decides that row. A ctx cancelled
// mid-scan aborts at a morsel boundary and leaves the cache untouched.
func TestTileCountKernelMatchesScalar(t *testing.T) {
	const rows = 40_000 // three morsels, the last one partial
	lonLo, lonHi, latLo, latHi, _, _ := dataset.RoadBounds()
	ctx := context.Background()
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
		srv, err := New(backends, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		lat, lng := backends.Tiles.Column("y"), backends.Tiles.Column("x")
		check := func(label string, aLo, aHi, oLo, oHi float64) int64 {
			t.Helper()
			got, err := srv.boxCount(ctx, aLo, aHi, oLo, oHi)
			if err != nil {
				t.Fatalf("encode=%v %s: %v", encode, label, err)
			}
			if want := scalarBoxCount(lat, lng, aLo, aHi, oLo, oHi); got != want {
				t.Fatalf("encode=%v %s: kernel count %d, per-row count %d", encode, label, got, want)
			}
			return got
		}

		for z := 6; z <= 9; z++ {
			var tiles int
			var total int64
			for x := 0; x < 1<<z; x++ {
				for y := 0; y < 1<<z; y++ {
					tile := widget.Tile{Z: z, X: x, Y: y}
					aLo, aHi, oLo, oHi := tileBounds(tile)
					if aHi <= latLo || aLo > latHi || oHi <= lonLo || oLo > lonHi {
						continue
					}
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
		}

		// Cancelled after two of three morsels: no count, nothing cached.
		tile := widget.Tile{Z: 0}
		key := backends.Tiles.Name + "|" + tile.String()
		if _, err := srv.scanTile(&countingCtx{Context: ctx, live: 2}, tile, key); err != context.Canceled {
			t.Fatalf("encode=%v: cut scan returned %v, want context.Canceled", encode, err)
		}
		if _, hit := srv.tileCache.Get(key); hit {
			t.Fatalf("encode=%v: a cut scan wrote a cache entry", encode)
		}
		if n, err := srv.scanTile(ctx, tile, key); err != nil || n != rows {
			t.Fatalf("encode=%v: world tile = %d, %v", encode, n, err)
		}
		if v, hit := srv.tileCache.Get(key); !hit || v.(int64) != rows {
			t.Fatalf("encode=%v: completed scan cached %v (hit=%v)", encode, v, hit)
		}

		dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		if err := srv.Drain(dctx); err != nil {
			t.Fatal(err)
		}
		cancel()
	}
}
