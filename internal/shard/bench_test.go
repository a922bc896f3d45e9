package shard

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/colstore"
	"repro/internal/datacube"
	"repro/internal/dataset"
	"repro/internal/opt"
	"repro/internal/storage"
)

// BenchmarkBrushScatter times one full scatter-gather brush merge against
// the coordinator — the serving layer's exact-tier cost per shard count —
// with its allocations: one spawned leg per shard beyond the first.
func BenchmarkBrushScatter(b *testing.B) {
	roads := dataset.Roads(1, 30000)
	dims := roadDims()
	for _, s := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("S%d", s), func(b *testing.B) {
			b.ReportAllocs()
			coord, err := New(roads, dims, Options{Shards: s})
			if err != nil {
				b.Fatal(err)
			}
			defer coord.Close()
			filters := []*datacube.Range{{Lo: -50, Hi: 50}, nil, nil}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, err := coord.ScatterBrush(ctx, "", filters)
				if err != nil {
					b.Fatal(err)
				}
				g.MergeBrush(dims)
			}
		})
	}
}

// BenchmarkPartition times the full two-shard split of 500k road rows —
// assignment, layout order and column gather — the setup cost every
// sharded server pays once: from a raw table, and from the frozen one every
// -encode server partitions. Reported per input row.
func BenchmarkPartition(b *testing.B) {
	raw := dataset.Roads(1, 500000)
	frozen, err := colstore.Freeze(raw, nil)
	if err != nil {
		b.Fatal(err)
	}
	dims := roadDims()
	for _, src := range []struct {
		name string
		t    *storage.Table
	}{{"raw", raw}, {"frozen", frozen}} {
		b.Run(src.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Partition(src.t, dims, 2); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*src.t.NumRows()), "ns/row")
		})
	}
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

// BenchmarkReplicaHistogram times scan_shards' request body below HTTP: a
// filtered 20-bin histogram statement scatter-gathered over two encoded
// partitions of 500k road rows. The statements are a fixed draw of
// opt.HistogramQuery slider states — each dimension unfiltered or cut to
// a random 10–90% of its domain, the bin on a rotating dimension — so
// runs and commits compare like for like. Reported per statement.
func BenchmarkReplicaHistogram(b *testing.B) {
	dims := roadDims()
	coord, err := New(dataset.Roads(1, 500000), dims, Options{Shards: 2, Encode: true, WithEngine: true})
	if err != nil {
		b.Fatal(err)
	}
	defer coord.Close()
	var load []opt.CrossfilterDim
	for _, d := range dims {
		load = append(load, opt.CrossfilterDim{Column: d.Name, Lo: d.Lo, Hi: d.Hi})
	}
	rng := rand.New(rand.NewSource(34))
	stmts := make([]string, 48)
	for i := range stmts {
		ranges := make([][2]float64, len(dims))
		for j, d := range dims {
			ranges[j] = [2]float64{d.Lo, d.Hi}
			if rng.Intn(3) > 0 {
				w := (d.Hi - d.Lo) * (0.1 + 0.8*rng.Float64())
				lo := d.Lo + rng.Float64()*(d.Hi-d.Lo-w)
				ranges[j] = [2]float64{lo, lo + w}
			}
		}
		stmt, err := opt.HistogramQuery("dataroad", load, ranges, i%len(dims), 20)
		if err != nil {
			b.Fatal(err)
		}
		stmts[i] = stmt.String()
	}
	ctx := context.Background()
	decided, kernelRows := replicaCounts(coord)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := coord.QueryHistogram(ctx, stmts[i%len(stmts)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/stmt")
	d, k := replicaCounts(coord)
	b.ReportMetric(float64(d-decided)/float64(b.N), "decisions/stmt")
	b.ReportMetric(float64(k-kernelRows)/float64(b.N), "kernel-rows/stmt")
}

// replicaCounts sums over coord's partitions the runs histogram statements
// decided one by one, and the rows of the 64-row words the range kernels
// were handed (zone words skipped, filled or evaluated, times 64).
func replicaCounts(coord *Coordinator) (decided, kernelRows int64) {
	for i := range coord.NumShards() {
		st := colstore.StatsOf(coord.Replica(i).Table)
		decided += st.RunsDecided
		for _, c := range st.Columns {
			kernelRows += 64 * (c.ZoneWordsSkipped + c.ZoneWordsFilled + c.ZoneWordsEvaluated)
		}
	}
	return decided, kernelRows
}
