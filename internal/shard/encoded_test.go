package shard

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/colstore"
	"repro/internal/crossfilter"
	"repro/internal/dataset"
	"repro/internal/opt"
)

// TestEncodedShardsMatchPlain proves encoding commutes with sharding: a
// coordinator whose replicas build over frozen (compressed columnar)
// partitions answers every scatter-gathered request byte-identically to a
// coordinator over raw partitions, at S ∈ {1, 2, 4}. It also pins the two
// ways encoding is requested — Options.Encode on a raw source, and
// automatic propagation when the source table is itself frozen.
func TestEncodedShardsMatchPlain(t *testing.T) {
	const rows = 6000
	roads := dataset.Roads(53, rows)
	frozenSrc, err := colstore.Freeze(roads, nil)
	if err != nil {
		t.Fatal(err)
	}
	dims := roadDims()
	loadDims := make([]opt.CrossfilterDim, len(dims))
	for i, d := range dims {
		loadDims[i] = opt.CrossfilterDim{Column: d.Name, Lo: d.Lo, Hi: d.Hi}
	}

	for _, s := range []int{1, 2, 4} {
		for _, auto := range []bool{false, true} {
			t.Run(fmt.Sprintf("S%d/auto=%v", s, auto), func(t *testing.T) {
				plain, err := New(roads, dims, Options{
					Shards: s, WithEngine: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer plain.Close()
				// auto=false asks for encoding explicitly on the raw source;
				// auto=true hands New an already-frozen table and relies on
				// the coordinator noticing and re-freezing partitions.
				src, opts := roads, Options{Shards: s, WithEngine: true, Encode: true}
				if auto {
					src, opts.Encode = frozenSrc, false
				}
				enc, err := New(src, dims, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer enc.Close()
				for i := 0; i < enc.NumShards(); i++ {
					if !colstore.IsFrozen(enc.Replica(i).Table) {
						t.Fatalf("shard %d: replica table not frozen", i)
					}
					if colstore.IsFrozen(plain.Replica(i).Table) {
						t.Fatalf("shard %d: plain replica table unexpectedly frozen", i)
					}
				}

				rng := rand.New(rand.NewSource(int64(10*s) + 1))
				ctx := context.Background()

				// Prefix-cube brushes.
				for trial := 0; trial < 25; trial++ {
					filters := randomFilters(rng, dims)
					wantG, err := plain.ScatterBrush(ctx, "", filters)
					if err != nil {
						t.Fatal(err)
					}
					gotG, err := enc.ScatterBrush(ctx, "", filters)
					if err != nil {
						t.Fatal(err)
					}
					want, got := wantG.MergeBrush(dims), gotG.MergeBrush(dims)
					if got.Total != want.Total || !reflect.DeepEqual(got.Histograms, want.Histograms) {
						t.Fatalf("trial %d: brush diverged: %+v want %+v", trial, got, want)
					}
				}

				// Engine histogram queries: identical rows and scan counts
				// (the encoded fast path must not change tuple accounting).
				for trial := 0; trial < 15; trial++ {
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
					want, _, ok, err := plain.QueryHistogram(ctx, query)
					if err != nil || !ok {
						t.Fatalf("trial %d: plain query: ok=%v err=%v", trial, ok, err)
					}
					got, frac, ok, err := enc.QueryHistogram(ctx, query)
					if err != nil || !ok {
						t.Fatalf("trial %d: encoded query: ok=%v err=%v", trial, ok, err)
					}
					if frac != 1 {
						t.Fatalf("trial %d: fraction %g", trial, frac)
					}
					if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) {
						t.Fatalf("trial %d: rows %v want %v (query %s)", trial, got.Rows, want.Rows, query)
					}
					if got.Stats.TuplesScanned != want.Stats.TuplesScanned || !got.Stats.UsedFastPath {
						t.Fatalf("trial %d: stats %+v want %+v", trial, got.Stats, want.Stats)
					}
				}

				// Roads columns are dense random-walk floats, which freeze
				// to plain passthrough — encoding must never cost more than
				// the raw form, and the stats must stay internally coherent.
				var encBytes, plainBytes int64
				for i := 0; i < enc.NumShards(); i++ {
					st := colstore.StatsOf(enc.Replica(i).Table)
					encBytes += st.EncodedBytes
					plainBytes += st.PlainBytes
				}
				if encBytes > plainBytes || plainBytes == 0 {
					t.Fatalf("encoded replicas grew: %d vs %d plain bytes", encBytes, plainBytes)
				}
			})
		}
	}
}
