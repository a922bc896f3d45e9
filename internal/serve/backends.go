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
	var d ListingsDomain
	if err := d.Add(table); err != nil {
		return nil, err
	}
	return d.Dims()
}

// listingsCubeColumns are the listings cube's dimensions in serving order.
var listingsCubeColumns = [...]string{"lat", "lng", "price"}

// ListingsDomain is the listings cube's dimensions over rows added a table
// or a block at a time: each domain is the min/max of every value added,
// the first one seeding it. ListingsCubeDims is one Add of the whole
// table, so a build that streams the table and adds every block, kept or
// not, gets the same bin edges.
type ListingsDomain struct {
	lo, hi [len(listingsCubeColumns)]float64
	rows   int
}

// Add folds every row of t, a listings table or a block of one, into the
// domains.
func (d *ListingsDomain) Add(t *storage.Table) error {
	for i, name := range listingsCubeColumns {
		col := t.Column(name)
		if col == nil || col.Type == storage.String {
			return fmt.Errorf("serve: listings table lacks column %q", name)
		}
		for row := range col.Len() {
			switch v := col.Float(row); {
			case d.rows+row == 0:
				d.lo[i], d.hi[i] = v, v
			case v < d.lo[i]:
				d.lo[i] = v
			case v > d.hi[i]:
				d.hi[i] = v
			}
		}
	}
	d.rows += t.NumRows()
	return nil
}

// Dims returns the cube's dimensions over every row added.
func (d *ListingsDomain) Dims() ([]datacube.Dim, error) {
	if d.rows == 0 {
		return nil, fmt.Errorf("serve: listings table has no rows")
	}
	dims := make([]datacube.Dim, len(listingsCubeColumns))
	for i, name := range listingsCubeColumns {
		dims[i] = datacube.Dim{Name: name, Lo: d.lo[i], Hi: d.hi[i], Bins: crossfilter.DefaultBins}
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
