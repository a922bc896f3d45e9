package shard

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/crossfilter"
	"repro/internal/datacube"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/opt"
)

// shardCounts is the differential matrix: S=1 is the degenerate self-check
// (a one-shard coordinator must also equal the oracle), the rest exercise
// real partitioning.
var shardCounts = []int{1, 2, 4, 8}

// roadDims returns the road cube dimensions with global domains — the same
// shape serve.RoadCubeDims produces, duplicated here to keep shard free of
// a serve import.
func roadDims() []datacube.Dim {
	lonLo, lonHi, latLo, latHi, altLo, altHi := dataset.RoadBounds()
	return []datacube.Dim{
		{Name: "x", Lo: lonLo, Hi: lonHi, Bins: crossfilter.DefaultBins},
		{Name: "y", Lo: latLo, Hi: latHi, Bins: crossfilter.DefaultBins},
		{Name: "z", Lo: altLo, Hi: altHi, Bins: crossfilter.DefaultBins},
	}
}

// randomFilters draws a filter set mixing nil, interior, bin-edge-aligned,
// degenerate, inverted, and domain-clamped ranges — the same boundary
// classes the datacube differential tests cover.
func randomFilters(rng *rand.Rand, dims []datacube.Dim) []*datacube.Range {
	if rng.Intn(6) == 0 {
		return nil
	}
	filters := make([]*datacube.Range, len(dims))
	for i, d := range dims {
		switch rng.Intn(6) {
		case 0: // unfiltered
		case 1: // interior range
			lo := d.Lo + rng.Float64()*(d.Hi-d.Lo)
			filters[i] = &datacube.Range{Lo: lo, Hi: lo + rng.Float64()*(d.Hi-lo)}
		case 2: // bin-edge aligned
			w := (d.Hi - d.Lo) / float64(d.Bins)
			a := rng.Intn(d.Bins)
			b := a + rng.Intn(d.Bins-a) + 1
			filters[i] = &datacube.Range{Lo: d.Lo + float64(a)*w, Hi: d.Lo + float64(b)*w}
		case 3: // degenerate width-zero brush
			v := d.Lo + rng.Float64()*(d.Hi-d.Lo)
			filters[i] = &datacube.Range{Lo: v, Hi: v}
		case 4: // inverted (empty)
			filters[i] = &datacube.Range{Lo: d.Hi, Hi: d.Lo}
		default: // domain-edge clamped
			filters[i] = &datacube.Range{Lo: d.Lo - 1, Hi: d.Hi + 1}
		}
	}
	return filters
}

// TestPartitionDisjointCover proves the partitioning invariant the merge
// law rests on: every record lands in exactly one shard, at every shard
// count.
func TestPartitionDisjointCover(t *testing.T) {
	roads := dataset.Roads(31, 5000)
	dims := roadDims()
	for _, s := range shardCounts {
		parts, err := Partition(roads, dims, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != s {
			t.Fatalf("S=%d: %d partitions", s, len(parts))
		}
		total := 0
		for _, p := range parts {
			total += p.NumRows()
		}
		if total != roads.NumRows() {
			t.Fatalf("S=%d: partitions cover %d of %d rows", s, total, roads.NumRows())
		}
		// Per-dimension histogram sums must reconstruct the unsharded
		// histogram exactly — the addition law at the cube level.
		oracle, err := datacube.BuildPrefix(roads, dims, 1)
		if err != nil {
			t.Fatal(err)
		}
		for target := range dims {
			want, err := oracle.Histogram(target, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]int64, dims[target].Bins)
			for _, p := range parts {
				pc, err := datacube.BuildPrefix(p, dims, 1)
				if err != nil {
					t.Fatal(err)
				}
				h, err := pc.Histogram(target, nil)
				if err != nil {
					t.Fatal(err)
				}
				for b, v := range h {
					got[b] += v
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("S=%d target %d: summed %v want %v", s, target, got, want)
			}
		}
	}
}

// TestShardedMatchesUnsharded is the tentpole proof: for randomized brushes
// and filters, the sharded scatter-gather merge is byte-identical to the
// unsharded oracle on both backends — prefix cube and SQL engine — at
// S ∈ {1, 2, 4, 8}.
func TestShardedMatchesUnsharded(t *testing.T) {
	const rows = 6000
	roads := dataset.Roads(47, rows)
	dims := roadDims()

	// Unsharded oracles.
	oraclePrefix, err := datacube.BuildPrefix(roads, dims, 1)
	if err != nil {
		t.Fatal(err)
	}
	oracleEng := engine.New(engine.ProfileMemory)
	oracleEng.Register(roads)
	loadDims := make([]opt.CrossfilterDim, len(dims))
	for i, d := range dims {
		loadDims[i] = opt.CrossfilterDim{Column: d.Name, Lo: d.Lo, Hi: d.Hi}
	}

	for _, s := range shardCounts {
		t.Run(fmt.Sprintf("hash/S%d", s), func(t *testing.T) {
			coord, err := New(roads, dims, Options{
				Shards: s, WithEngine: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			rng := rand.New(rand.NewSource(int64(100 * s)))
			ctx := context.Background()

			// Prefix-cube path: histograms plus corner counts.
			for trial := 0; trial < 40; trial++ {
				filters := randomFilters(rng, dims)
				g, err := coord.ScatterBrush(ctx, "", filters)
				if err != nil {
					t.Fatal(err)
				}
				got := g.MergeBrush(dims)
				if got.Covered != s || got.Fraction() != 1 {
					t.Fatalf("trial %d: coverage %d/%d fraction %g", trial, got.Covered, s, got.Fraction())
				}
				wantTotal, err := oraclePrefix.Count(filters)
				if err != nil {
					t.Fatal(err)
				}
				if got.Total != wantTotal {
					t.Fatalf("trial %d: total %d want %d (filters %+v)", trial, got.Total, wantTotal, filters)
				}
				for target := range dims {
					want, err := oraclePrefix.Histogram(target, filters)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Histograms[target], want) {
						t.Fatalf("trial %d target %d: %v want %v", trial, target, got.Histograms[target], want)
					}
				}
			}

			// Engine path: histogram-shaped SQL scatters and merges to
			// the exact unsharded fast-path result, rows and values.
			for trial := 0; trial < 20; trial++ {
				ranges := make([][2]float64, len(dims))
				for i, d := range dims {
					lo := d.Lo + rng.Float64()*(d.Hi-d.Lo)
					ranges[i] = [2]float64{lo, lo + rng.Float64()*(d.Hi-lo)}
				}
				stmt, err := opt.HistogramQuery(roads.Name, loadDims, ranges, rng.Intn(len(dims)), crossfilter.DefaultBins)
				if err != nil {
					t.Fatal(err)
				}
				query := stmt.String()
				want, err := oracleEng.QueryCtx(ctx, query)
				if err != nil {
					t.Fatal(err)
				}
				got, frac, ok, err := coord.QueryHistogram(ctx, query)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("trial %d: query not histogram-shaped: %s", trial, query)
				}
				if frac != 1 {
					t.Fatalf("trial %d: fraction %g", trial, frac)
				}
				if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Fatalf("trial %d: sharded rows %v want %v (query %s)", trial, got.Rows, want.Rows, query)
				}
				if got.Stats.TuplesScanned != want.Stats.TuplesScanned {
					t.Fatalf("trial %d: scanned %d want %d", trial, got.Stats.TuplesScanned, want.Stats.TuplesScanned)
				}
				if !got.Stats.UsedFastPath {
					t.Fatalf("trial %d: merged result not marked fast-path", trial)
				}
			}

		})
	}
}

// TestOptionDefaults pins Options normalization.
func TestOptionDefaults(t *testing.T) {
	var o Options
	o.normalize()
	if o.Shards != 1 || o.Parallelism < 1 {
		t.Errorf("normalized zero options: %+v", o)
	}
	if o.Profile.Name != engine.ProfileMemory.Name {
		t.Errorf("default profile %q", o.Profile.Name)
	}
}

// TestPartitionErrors pins the validation surface.
func TestPartitionErrors(t *testing.T) {
	roads := dataset.Roads(1, 200)
	dims := roadDims()
	if _, err := Partition(roads, dims, 0); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := Partition(roads, nil, 2); err == nil {
		t.Error("no dims accepted")
	}
	if _, err := Partition(roads, []datacube.Dim{{Name: "nope"}}, 2); err == nil {
		t.Error("missing column accepted")
	}
}
