package router

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/leakcheck"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/storage"
)

// TestColdPartitionMatchesPartition: a child's cold build streams the
// dataset and keeps its own rows, and must come out cell for cell the
// partition Partition cuts from the whole table, over the bin edges an
// in-process server derives from that table — for road and for listings,
// whose domains the parent and the child stream from every row.
func TestColdPartitionMatchesPartition(t *testing.T) {
	const rows = 3*coldBlock + 17
	for _, ds := range []string{"road", "listings"} {
		full := dataset.Roads(7, rows)
		wantDims := serve.RoadCubeDims()
		if ds == "listings" {
			full = dataset.Listings(7, rows)
			var err error
			if wantDims, err = serve.ListingsCubeDims(full); err != nil {
				t.Fatal(err)
			}
		}
		for _, of := range []int{1, 3} {
			parts, err := shard.Partition(full, wantDims, of)
			if err != nil {
				t.Fatal(err)
			}
			for s := range of {
				c := &child{spec: ChildSpec{Dataset: ds, Rows: rows, Seed: 7, Shard: s, Of: of}}
				if err := c.build(); err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(c.dims) != fmt.Sprint(wantDims) {
					t.Fatalf("%s: dims %v, the whole table's %v", ds, c.dims, wantDims)
				}
				requireSameTable(t, parts[s], c.rep.Table)
			}
		}
	}
}

// TestDatasetDimsListingsMatchTable: the parent streams listings for its
// global domains, one block at a time, and must land on the bin edges the
// whole table gives, bit for bit.
func TestDatasetDimsListingsMatchTable(t *testing.T) {
	for _, rows := range []int{1, coldBlock, coldBlock + 1, dataset.DefaultListingCount} {
		got, err := DatasetDims("listings", 3, rows)
		if err != nil {
			t.Fatal(err)
		}
		want, err := serve.ListingsCubeDims(dataset.Listings(3, rows))
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Bins != want[i].Bins ||
				math.Float64bits(got[i].Lo) != math.Float64bits(want[i].Lo) ||
				math.Float64bits(got[i].Hi) != math.Float64bits(want[i].Hi) {
				t.Fatalf("rows %d dim %d: streamed %+v, whole table %+v", rows, i, got[i], want[i])
			}
		}
	}
}

// TestColdPartitionNeverHoldsTheTable guards what a child's cold rebuild
// of its partition allocates: less than one full-table column plus twice
// the partition. Generating the whole table first, as the child once did,
// allocates three full columns (listings: eight) before it keeps a row.
func TestColdPartitionNeverHoldsTheTable(t *testing.T) {
	const rows = 200000
	for _, ds := range []string{"road", "listings"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		part, _, err := coldPartition(ChildSpec{Dataset: ds, Rows: rows, Seed: 1, Shard: 0, Of: 2})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		partBytes := 0
		for _, col := range part.Columns {
			partBytes += part.NumRows() * 8
			if col.Type == storage.String {
				partBytes += part.NumRows() * 8 // a string header is two words
			}
		}
		alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(8*rows+2*partBytes)
		t.Logf("%s: allocated %d bytes for a %d-byte partition (bound %d)", ds, alloc, partBytes, bound)
		if alloc >= bound {
			t.Errorf("%s: a cold build allocated %d bytes, want < %d (one %d-row column plus twice the %d-byte partition)",
				ds, alloc, bound, rows, partBytes)
		}
	}
}

// TestFleetProbesWhenChildSaysReady: a child writes its ready pipe once it
// serves and the supervisor probes it then, so with a HealthInterval far
// longer than a build no probe may land while a child is still building
// (it would answer 503 and count as a failed probe), and every replica
// still comes up well inside one interval.
func TestFleetProbesWhenChildSaysReady(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	leakcheck.Check(t)
	leakcheck.CheckChildren(t)
	const interval = 5 * time.Second
	f, err := New(Config{Shards: 2, Rows: 100000, Seed: 1, HealthInterval: interval, ChildStderr: os.Stderr})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	start := time.Now()
	for {
		ready, detail := f.Health()
		for _, h := range detail.([]ReplicaHealth) {
			if h.ConsecutiveFails > 0 || h.LastError != "" {
				t.Fatalf("shard %d probed before it said it was ready: %+v", h.Shard, h)
			}
		}
		if ready {
			break
		}
		if time.Since(start) > interval {
			t.Fatalf("not ready after %v", interval)
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Logf("ready after %v", time.Since(start))
}

// requireSameTable fails unless a and b hold the same schema and the same
// value, bit for bit, in every cell.
func requireSameTable(t *testing.T, a, b *storage.Table) {
	t.Helper()
	if fmt.Sprint(a.Schema) != fmt.Sprint(b.Schema) || a.NumRows() != b.NumRows() {
		t.Fatalf("shape: %v × %d vs %v × %d", a.Schema, a.NumRows(), b.Schema, b.NumRows())
	}
	for c, col := range a.Columns {
		for row := range a.NumRows() {
			va, vb := col.Value(row), b.Columns[c].Value(row)
			if va.Type != vb.Type || va.I != vb.I || va.S != vb.S || math.Float64bits(va.F) != math.Float64bits(vb.F) {
				t.Fatalf("row %d column %d: %v vs %v", row, c, va, vb)
			}
		}
	}
}
