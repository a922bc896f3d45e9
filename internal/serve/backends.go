package serve

import (
	"fmt"

	"repro/internal/colstore"
	"repro/internal/crossfilter"
	"repro/internal/datacube"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/opt"
	"repro/internal/storage"
)

// EncodeBackends freezes the backends' table into colstore's compressed
// columnar form and rewires everything that serves from it: the frozen
// table replaces Tiles, and the engine's registration is swapped so SQL
// queries scan the encoded columns through the vectorized kernels. The
// cube is left alone — its cells are counts, identical either way — and
// sharded serving picks the encoding up automatically (shard.New re-freezes
// partitions of a frozen source). Idempotent: freezing a frozen table is a
// pass-through.
func EncodeBackends(b Backends) (Backends, error) {
	if b.Tiles == nil {
		return b, fmt.Errorf("serve: encode: backends have no table")
	}
	frozen, err := colstore.Freeze(b.Tiles, nil)
	if err != nil {
		return b, fmt.Errorf("serve: encode: %w", err)
	}
	b.Tiles = frozen
	if b.Engine != nil {
		b.Engine.Register(frozen)
	}
	return b, nil
}

// RoadBackends builds the full road-dataset serving stack: the table
// registered in an engine with the given cost profile, a 20³ cube over
// x/y/z, and the table itself as tile backend (y/x are latitude and
// longitude). rows <= 0 means the paper's full cardinality.
func RoadBackends(seed int64, rows int, prof engine.Profile) (Backends, error) {
	if rows <= 0 {
		rows = dataset.RoadCount
	}
	table := dataset.Roads(seed, rows)
	eng := engine.New(prof)
	eng.Register(table)
	cube, err := datacube.Build(table, RoadCubeDims())
	if err != nil {
		return Backends{}, err
	}
	return Backends{Engine: eng, Cube: cube, Tiles: table, TileLat: "y", TileLng: "x"}, nil
}

// RoadCubeDims returns the road cube's dimensions in serving order.
func RoadCubeDims() []datacube.Dim {
	lonLo, lonHi, latLo, latHi, altLo, altHi := dataset.RoadBounds()
	return []datacube.Dim{
		{Name: "x", Lo: lonLo, Hi: lonHi, Bins: crossfilter.DefaultBins},
		{Name: "y", Lo: latLo, Hi: latHi, Bins: crossfilter.DefaultBins},
		{Name: "z", Lo: altLo, Hi: altHi, Bins: crossfilter.DefaultBins},
	}
}

// ListingsCubeDims returns the listings cube's dimensions in serving order,
// their domains the whole table's min/max: global domains cannot come from
// one partition, so whoever partitions the table derives them first.
func ListingsCubeDims(table *storage.Table) ([]datacube.Dim, error) {
	dims := make([]datacube.Dim, 0, 3)
	for _, name := range []string{"lat", "lng", "price"} {
		lo, hi, ok := table.MinMax(name)
		if !ok {
			return nil, fmt.Errorf("serve: listings table lacks column %q", name)
		}
		dims = append(dims, datacube.Dim{Name: name, Lo: lo, Hi: hi, Bins: crossfilter.DefaultBins})
	}
	return dims, nil
}

// RoadLoadDims returns the road dimensions in opt's workload form, the
// shape LoadConfig wants.
func RoadLoadDims() []opt.CrossfilterDim {
	var out []opt.CrossfilterDim
	for _, d := range RoadCubeDims() {
		out = append(out, opt.CrossfilterDim{Column: d.Name, Lo: d.Lo, Hi: d.Hi})
	}
	return out
}

// ListingsBackends builds the accommodation-search serving stack: listings
// in an engine, a cube over lat/lng/price, and lat/lng tiles.
func ListingsBackends(seed int64, rows int, prof engine.Profile) (Backends, error) {
	if rows <= 0 {
		rows = dataset.DefaultListingCount
	}
	table := dataset.Listings(seed, rows)
	eng := engine.New(prof)
	eng.Register(table)
	dims, err := ListingsCubeDims(table)
	if err != nil {
		return Backends{}, err
	}
	cube, err := datacube.Build(table, dims)
	if err != nil {
		return Backends{}, err
	}
	return Backends{Engine: eng, Cube: cube, Tiles: table, TileLat: "lat", TileLng: "lng"}, nil
}
