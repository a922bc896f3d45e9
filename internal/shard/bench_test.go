package shard

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/datacube"
	"repro/internal/dataset"
)

// BenchmarkBrushScatter times one full scatter-gather brush merge against
// the coordinator — the serving layer's exact-tier cost per shard count.
func BenchmarkBrushScatter(b *testing.B) {
	roads := dataset.Roads(1, 30000)
	dims := roadDims()
	for _, s := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("S%d", s), func(b *testing.B) {
			coord, err := New(roads, dims, Options{Shards: s})
			if err != nil {
				b.Fatal(err)
			}
			defer coord.Close()
			filters := []*datacube.Range{{Lo: -50, Hi: 50}, nil, nil}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coord.Brush(ctx, filters); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPartition times the full two-shard split of 500k road rows —
// assignment, layout order and column gather — the setup cost every
// sharded server pays once. Reported per input row.
func BenchmarkPartition(b *testing.B) {
	roads := dataset.Roads(1, 500000)
	dims := roadDims()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(roads, dims, 2); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*roads.NumRows()), "ns/row")
}

// BenchmarkPartitionOne times one shard's cold rebuild at the paper's road
// cardinality: what a restarting router child pays before it serves.
func BenchmarkPartitionOne(b *testing.B) {
	roads := dataset.Roads(1, dataset.RoadCount)
	dims := roadDims()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PartitionOne(roads, dims, 2, 0); err != nil {
			b.Fatal(err)
		}
	}
}
