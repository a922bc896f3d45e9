package shard

import (
	"fmt"
	"testing"

	"repro/internal/colstore"
	"repro/internal/dataset"
	"repro/internal/storage"
)

// TestPartitionOneMatchesPartition proves the single-shard build is the
// full build's slice: for every (shards, mode) combination, PartitionOne(i)
// must be row-for-row identical to Partition(...)[i] — the property a
// restarting child's cold rebuild depends on to re-fence onto exactly the
// records its dead predecessor owned, without materializing every sibling.
func TestPartitionOneMatchesPartition(t *testing.T) {
	roads := dataset.Roads(83, 4000)
	dims := roadDims()
	for _, shards := range []int{1, 2, 4, 7} {
		for _, mode := range []Mode{Hash, Range} {
			t.Run(fmt.Sprintf("S%d-%s", shards, mode), func(t *testing.T) {
				parts, err := Partition(roads, dims, shards, mode, "")
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < shards; i++ {
					one, err := PartitionOne(roads, dims, shards, i, mode, "")
					if err != nil {
						t.Fatal(err)
					}
					requireSameRows(t, parts[i], one)
				}
			})
		}
	}
}

func TestPartitionOneIndexOutOfRange(t *testing.T) {
	roads := dataset.Roads(1, 100)
	for _, idx := range []int{-1, 2, 99} {
		if _, err := PartitionOne(roads, roadDims(), 2, idx, Hash, ""); err == nil {
			t.Fatalf("index %d of 2 accepted", idx)
		}
	}
}

func requireSameRows(t *testing.T, a, b *storage.Table) {
	t.Helper()
	if a.NumRows() != b.NumRows() {
		t.Fatalf("rows: %d vs %d", a.NumRows(), b.NumRows())
	}
	for row := 0; row < a.NumRows(); row++ {
		ra, rb := a.Row(row), b.Row(row)
		for c := range ra {
			if ra[c].Compare(rb[c]) != 0 {
				t.Fatalf("row %d column %d: %v vs %v", row, c, ra[c], rb[c])
			}
		}
	}
}

// TestPartitionsKeepRoadRowsClustered guards the input property the zone
// maps live on: road rows arrive segment by segment and both partitioners
// keep row order, so most 64-row words of a partition sit wholly inside or
// outside a brush-sized range. At the benchmark's size and split, a
// predicate keeping the middle 40% of a dimension's domain must leave
// fewer than half of the words to the row kernel (measured: 32–36% under
// hash, 13–21% under range); a generator or partitioner change that
// shuffles rows fails here, not as a silent return of scan_shards to full
// scans.
func TestPartitionsKeepRoadRowsClustered(t *testing.T) {
	roads := dataset.Roads(1, 500000)
	dims := roadDims()
	for _, mode := range []Mode{Hash, Range} {
		parts, err := Partition(roads, dims, 2, mode, "")
		if err != nil {
			t.Fatal(err)
		}
		for i, part := range parts {
			frozen, err := colstore.Freeze(part, nil)
			if err != nil {
				t.Fatal(err)
			}
			n := frozen.NumRows()
			dst := colstore.NewBitmap(n)
			for _, d := range dims {
				col, _ := colstore.Of(frozen.Column(d.Name))
				w := d.Hi - d.Lo
				col.FilterRange(d.Lo+0.3*w, d.Lo+0.7*w, 0, n, dst, false)
				skipped, filled, evaluated := colstore.ZonesOf(col).Words()
				if total := skipped + filled + evaluated; 2*evaluated >= total {
					t.Errorf("%s shard %d dim %s: %d of %d words undecided (skipped %d, filled %d)",
						mode, i, d.Name, evaluated, total, skipped, filled)
				}
			}
		}
	}
}
