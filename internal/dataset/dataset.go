// Package dataset generates the synthetic datasets standing in for the
// paper's proprietary or external data sources:
//
//   - Movies: an IMDB-like table of top-rated movies (paper: top 4,000
//     IMDB tuples with 6 attributes) used by the inertial-scrolling case
//     study, plus the split movie/rating pair used by its streaming-join
//     query Q2.
//   - Roads: a 3D road network (paper: UCI dataset, 434,874 tuples with
//     longitude, latitude, altitude) used by the crossfiltering case study.
//     Generated as a spatially correlated random walk so histograms are
//     realistically non-uniform.
//   - Listings: an Airbnb-like accommodation table used by the
//     composite-interface case study (location, price, room type, guests).
//
// All generators are deterministic under their seed. Each draws its rows
// into typed column slices sized up front, so generation boxes no value and
// grows no slice. Roads and Listings are each one walk that hands its rows
// out a block at a time: RoadBlocks and ListingsBlocks stream them to a
// reader that keeps only some, and Roads and Listings take the walk as one
// block, which is the table itself.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/storage"
)

// MovieCount matches the paper's inertial-scrolling corpus size.
const MovieCount = 4000

// RoadCount matches the UCI 3D road-network cardinality the paper uses.
const RoadCount = 434874

// DefaultListingCount sizes the synthetic accommodation table.
const DefaultListingCount = 20000

var (
	genres     = []string{"Drama", "Comedy", "Action", "Thriller", "Sci-Fi", "Romance", "Horror", "Documentary", "Animation", "Crime"}
	firstNames = []string{"Ava", "Liam", "Noah", "Emma", "Mia", "Ethan", "Sofia", "Lucas", "Iris", "Hugo", "Nora", "Felix", "Clara", "Oscar", "Ruth", "Jonas"}
	lastNames  = []string{"Kim", "Garcia", "Okafor", "Novak", "Rossi", "Tanaka", "Muller", "Silva", "Haddad", "Larsen", "Petrov", "Dubois", "Mori", "Iyer", "Weber", "Costa"}
	nouns      = []string{"Shadow", "River", "Empire", "Garden", "Signal", "Harbor", "Winter", "Echo", "Meridian", "Lantern", "Orchard", "Static", "Velvet", "Quarry", "Summit", "Cipher"}
	adjectives = []string{"Silent", "Broken", "Golden", "Distant", "Hidden", "Burning", "Final", "Electric", "Paper", "Hollow", "Crimson", "Restless", "Quiet", "Savage", "Pale", "Iron"}
	roomTypes  = []string{"Entire home/apt", "Private room", "Shared room", "Hotel room"}
)

// Movies generates n movie tuples with the six attributes the case study
// scrolls through: poster, title, year, director, genre, plot, rating.
// Ratings descend with rank (it is a "top rated" list) with noise, so the
// table arrives pre-sorted the way the study presented it.
func Movies(seed int64, n int) *storage.Table {
	rng := rand.New(rand.NewSource(seed))
	t := storage.NewTable("imdb", storage.Schema{
		{Name: "id", Type: storage.Int64},
		{Name: "poster", Type: storage.String},
		{Name: "title", Type: storage.String},
		{Name: "year", Type: storage.Int64},
		{Name: "director", Type: storage.String},
		{Name: "genre", Type: storage.String},
		{Name: "plot", Type: storage.String},
		{Name: "rating", Type: storage.Float64},
	})
	ids, years, ratings := make([]int64, 0, n), make([]int64, 0, n), make([]float64, 0, n)
	posters, titles, directors := make([]string, 0, n), make([]string, 0, n), make([]string, 0, n)
	genreCol, plots := make([]string, 0, n), make([]string, 0, n)
	for i := 0; i < n; i++ {
		title := fmt.Sprintf("%s %s", pick(rng, adjectives), pick(rng, nouns))
		if rng.Intn(4) == 0 {
			title = "The " + title
		}
		director := pick(rng, firstNames) + " " + pick(rng, lastNames)
		genre := pick(rng, genres)
		year := 1950 + rng.Intn(70)
		// Top-rated list: rating decays from ~9.3 to ~7.0 with rank.
		rating := 9.3 - 2.3*float64(i)/float64(n) + rng.NormFloat64()*0.05
		rating = math.Round(rating*10) / 10
		plot := fmt.Sprintf("A %s tale of %s and %s in %d.",
			pick(rng, adjectives), pick(rng, nouns), pick(rng, nouns), year)
		ids = append(ids, int64(i))
		posters = append(posters, fmt.Sprintf("poster_%04d.jpg", i))
		titles = append(titles, title)
		years = append(years, int64(year))
		directors = append(directors, director)
		genreCol = append(genreCol, genre)
		plots = append(plots, plot)
		ratings = append(ratings, rating)
	}
	c := t.Columns
	c[0].Ints, c[1].Strings, c[2].Strings, c[3].Ints = ids, posters, titles, years
	c[4].Strings, c[5].Strings, c[6].Strings, c[7].Floats = directors, genreCol, plots, ratings
	return t
}

// MovieRatingSplit splits a movie table into the two tables joined by the
// scrolling case study's streaming-join query Q2: imdbrating(id, rating)
// and movie(id, poster, title, year, director, genre, plot). movies is a
// table Movies returned; its raw columns are copied, never shared, so each
// table is its own.
func MovieRatingSplit(movies *storage.Table) (ratings, details *storage.Table) {
	ratings = storage.NewTable("imdbrating", storage.Schema{
		{Name: "id", Type: storage.Int64},
		{Name: "rating", Type: storage.Float64},
	})
	details = storage.NewTable("movie", storage.Schema{
		{Name: "id", Type: storage.Int64},
		{Name: "poster", Type: storage.String},
		{Name: "title", Type: storage.String},
		{Name: "year", Type: storage.Int64},
		{Name: "director", Type: storage.String},
		{Name: "genre", Type: storage.String},
		{Name: "plot", Type: storage.String},
	})
	m := movies.Columns
	ratings.Columns[0].Ints = slices.Clone(m[0].Ints)
	ratings.Columns[1].Floats = slices.Clone(m[7].Floats)
	details.Columns[0].Ints = slices.Clone(m[0].Ints)
	details.Columns[3].Ints = slices.Clone(m[3].Ints)
	for _, c := range []int{1, 2, 4, 5, 6} {
		details.Columns[c].Strings = slices.Clone(m[c].Strings)
	}
	return ratings, details
}

// Roads generates an n-tuple 3D road network: dataroad(x, y, z) holding
// longitude, latitude, and altitude. The paper's dataset covers Jutland,
// Denmark (lon ≈ 8.15–11.26, lat ≈ 56.58–57.77, alt ≈ −8.6–137.4); the
// generator walks road segments inside the same bounding box so that the
// crossfilter histograms and query predicates match the case study's.
func Roads(seed int64, n int) *storage.Table {
	var t *storage.Table
	walkRoads(seed, n, max(n, 1), func(b *storage.Table) bool { t = b; return true })
	return t
}

// RoadBlocks hands out the rows of Roads(seed, n) block rows at a time.
func RoadBlocks(seed int64, n, block int) storage.Blocks {
	return storage.Blocks{Rows: n, Each: func(yield func(*storage.Table) bool) {
		walkRoads(seed, n, block, yield)
	}}
}

// walkRoads draws the road table and yields it block rows at a time, every
// block in one table whose columns are refilled in place.
func walkRoads(seed int64, n, block int, yield func(*storage.Table) bool) {
	const (
		lonLo, lonHi = 8.146, 11.2616367163
		latLo, latHi = 56.582, 57.774
		altLo, altHi = -8.608, 137.361
	)
	rng := rand.New(rand.NewSource(seed))
	t := storage.NewTable("dataroad", storage.Schema{
		{Name: "x", Type: storage.Float64}, // longitude
		{Name: "y", Type: storage.Float64}, // latitude
		{Name: "z", Type: storage.Float64}, // altitude
	})
	// Roads come in segments: pick a town center, walk along it. Towns are
	// themselves clustered, producing the multiscale non-uniformity real
	// road networks have.
	centers := make([][3]float64, 40)
	for i := range centers {
		centers[i] = [3]float64{
			lonLo + rng.Float64()*(lonHi-lonLo),
			latLo + rng.Float64()*(latHi-latLo),
			altLo + math.Pow(rng.Float64(), 2)*(altHi-altLo), // altitude skews low
		}
	}
	size := max(min(n, block), 0)
	xs, ys, zs := make([]float64, 0, size), make([]float64, 0, size), make([]float64, 0, size)
	emitted := 0
	for emitted < n {
		c := centers[rng.Intn(len(centers))]
		segLen := 20 + rng.Intn(400)
		if emitted+segLen > n {
			segLen = n - emitted
		}
		x := c[0] + rng.NormFloat64()*0.15
		y := c[1] + rng.NormFloat64()*0.08
		z := c[2] + rng.NormFloat64()*5
		heading := rng.Float64() * 2 * math.Pi
		for j := 0; j < segLen; j++ {
			heading += rng.NormFloat64() * 0.2
			sin, cos := math.Sincos(heading)
			x += cos * 0.0004
			y += sin * 0.0002
			z += rng.NormFloat64() * 0.4
			xs = append(xs, clamp(x, lonLo, lonHi))
			ys = append(ys, clamp(y, latLo, latHi))
			zs = append(zs, clamp(z, altLo, altHi))
			if len(xs) == block || emitted+j == n-1 {
				t.Columns[0].Floats, t.Columns[1].Floats, t.Columns[2].Floats = xs, ys, zs
				if !yield(t) {
					return
				}
				xs, ys, zs = xs[:0], ys[:0], zs[:0]
			}
		}
		emitted += segLen
	}
	if n <= 0 {
		yield(t)
	}
}

// RoadBounds returns the bounding box the road generator uses, needed by
// callers constructing range predicates over the full domain.
func RoadBounds() (lonLo, lonHi, latLo, latHi, altLo, altHi float64) {
	return 8.146, 11.2616367163, 56.582, 57.774, -8.608, 137.361
}

// Listings generates an Airbnb-like table: listings(id, lat, lng, price,
// room_type, guests, rating, reviews). Locations cluster around a handful
// of city centers inside a continental-US-like box; price is log-normal.
func Listings(seed int64, n int) *storage.Table {
	var t *storage.Table
	walkListings(seed, n, max(n, 1), func(b *storage.Table) bool { t = b; return true })
	return t
}

// ListingsBlocks hands out the rows of Listings(seed, n) block rows at a
// time.
func ListingsBlocks(seed int64, n, block int) storage.Blocks {
	return storage.Blocks{Rows: n, Each: func(yield func(*storage.Table) bool) {
		walkListings(seed, n, block, yield)
	}}
}

// walkListings draws the listings table and yields it block rows at a
// time, every block in one table whose columns are refilled in place.
func walkListings(seed int64, n, block int, yield func(*storage.Table) bool) {
	rng := rand.New(rand.NewSource(seed))
	t := storage.NewTable("listings", storage.Schema{
		{Name: "id", Type: storage.Int64},
		{Name: "lat", Type: storage.Float64},
		{Name: "lng", Type: storage.Float64},
		{Name: "price", Type: storage.Float64},
		{Name: "room_type", Type: storage.String},
		{Name: "guests", Type: storage.Int64},
		{Name: "rating", Type: storage.Float64},
		{Name: "reviews", Type: storage.Int64},
	})
	type city struct{ lat, lng, weight float64 }
	cities := []city{
		{40.71, -74.00, 0.22}, {34.05, -118.24, 0.18}, {41.88, -87.63, 0.12},
		{29.76, -95.37, 0.09}, {33.45, -112.07, 0.07}, {47.61, -122.33, 0.08},
		{25.76, -80.19, 0.10}, {39.74, -104.99, 0.06}, {36.16, -86.78, 0.08},
	}
	size := max(min(n, block), 0)
	ids, guestCol, reviewCol := make([]int64, 0, size), make([]int64, 0, size), make([]int64, 0, size)
	lats, lngs, prices, ratings := make([]float64, 0, size), make([]float64, 0, size), make([]float64, 0, size), make([]float64, 0, size)
	rooms := make([]string, 0, size)
	for i := 0; i < n; i++ {
		r := rng.Float64()
		var c city
		for _, cand := range cities {
			if r < cand.weight {
				c = cand
				break
			}
			r -= cand.weight
		}
		if c.lat == 0 {
			c = cities[len(cities)-1]
		}
		lat := c.lat + rng.NormFloat64()*0.35
		lng := c.lng + rng.NormFloat64()*0.45
		price := math.Exp(4.2 + rng.NormFloat64()*0.6) // median ≈ $67
		guests := 1 + rng.Intn(8)
		rating := clamp(4.7+rng.NormFloat64()*0.4, 1, 5)
		reviews := int64(math.Floor(math.Exp(rng.Float64() * 6)))
		ids = append(ids, int64(i))
		lats = append(lats, lat)
		lngs = append(lngs, lng)
		prices = append(prices, math.Round(price))
		rooms = append(rooms, pick(rng, roomTypes))
		guestCol = append(guestCol, int64(guests))
		ratings = append(ratings, math.Round(rating*10)/10)
		reviewCol = append(reviewCol, reviews)
		if len(ids) == block || i == n-1 {
			cols := t.Columns
			cols[0].Ints, cols[1].Floats, cols[2].Floats, cols[3].Floats = ids, lats, lngs, prices
			cols[4].Strings, cols[5].Ints, cols[6].Floats, cols[7].Ints = rooms, guestCol, ratings, reviewCol
			if !yield(t) {
				return
			}
			ids, lats, lngs, prices = ids[:0], lats[:0], lngs[:0], prices[:0]
			rooms, guestCol, ratings, reviewCol = rooms[:0], guestCol[:0], ratings[:0], reviewCol[:0]
		}
	}
	if n <= 0 {
		yield(t)
	}
}

func pick(rng *rand.Rand, xs []string) string { return xs[rng.Intn(len(xs))] }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
