package shard

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/colstore"
	"repro/internal/datacube"
	"repro/internal/dataset"
	"repro/internal/storage"
)

// TestPartitionOneMatchesPartition proves the single-shard build is the
// full build's slice: for every shard count, PartitionOne(i)
// must be row-for-row identical to Partition(...)[i] — the property a
// restarting child's cold rebuild depends on to re-fence onto exactly the
// records its dead predecessor owned, without materializing every sibling.
func TestPartitionOneMatchesPartition(t *testing.T) {
	roads := dataset.Roads(83, 4000)
	dims := roadDims()
	for _, shards := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("S%d-hash", shards), func(t *testing.T) {
			parts, err := Partition(roads, dims, shards)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < shards; i++ {
				one, err := PartitionOne(roads, dims, shards, i)
				if err != nil {
					t.Fatal(err)
				}
				requireSameRows(t, parts[i], one)
			}
		})
	}
}

func TestPartitionOneIndexOutOfRange(t *testing.T) {
	roads := dataset.Roads(1, 100)
	for _, idx := range []int{-1, 2, 99} {
		if _, err := PartitionOne(roads, roadDims(), 2, idx); err == nil {
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
// maps live on: each partition lays its rows out along a Z-order curve over
// the histogram-bin cells, in table order inside a cell, so most 64-row
// words sit wholly inside or outside a brush-sized range, and most lie
// inside one ROUND bin of the histogram fast path. At the benchmark's size
// and split, a predicate keeping the middle 40% of a dimension's domain
// must leave fewer than 20% of the words to the row kernel (measured
// 8–12%; table order left 32–36%), and at least 60% of each
// dimension's words must fall inside one bin (measured 0.66/0.74/0.83;
// table order 0.44/0.42/0.13). A layout change that loses the bin
// alignment fails here, not as a silent slowdown of scan_shards.
func TestPartitionsKeepRoadRowsClustered(t *testing.T) {
	roads := dataset.Roads(1, 500000)
	dims := roadDims()
	parts, err := Partition(roads, dims, 2)
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
			total := skipped + filled + evaluated
			if share := float64(evaluated) / float64(total); share >= 0.20 {
				t.Errorf("shard %d dim %s: %.2f of %d words undecided (skipped %d, filled %d), want < 0.20",
					i, d.Name, share, total, skipped, filled)
			}
			if one := oneBinZoneShare(part.Column(d.Name), d); one < 0.60 {
				t.Errorf("shard %d dim %s: %.2f of zones inside one ROUND bin, want >= 0.60", i, d.Name, one)
			}
		}
	}
}

// oneBinZoneShare is the share of col's 64-row zones whose values all
// round to the same histogram bin, ROUND((v − Lo)/step) with step the
// dimension's bin width — the zones a histogram binning pass decides whole.
func oneBinZoneShare(col *storage.Column, d datacube.Dim) float64 {
	step := (d.Hi - d.Lo) / float64(d.Bins)
	n := col.Len()
	zones, one := 0, 0
	for lo := 0; lo < n; lo += 64 {
		bin := math.Round((col.Float(lo) - d.Lo) / step)
		same := true
		for r := lo + 1; r < min(lo+64, n); r++ {
			if math.Round((col.Float(r)-d.Lo)/step) != bin {
				same = false
				break
			}
		}
		zones++
		if same {
			one++
		}
	}
	return float64(one) / float64(zones)
}

// TestPartitionLayoutEdgeCases drives the layout key through every corner
// on a small table: NaN, ±Inf and out-of-domain values, a dimension with
// Hi ≤ Lo, bin counts needing more bits than a dimension's share of the
// key, and 1, 3 or 6 dimensions. Whatever the key does, each shard must be
// a permutation of exactly the rows assignRows gave it, two calls must
// build identical tables, and PartitionOne must still be Partition's slice.
func TestPartitionLayoutEdgeCases(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f"}
	schema := storage.Schema{{Name: "id", Type: storage.Int64}}
	for _, name := range names {
		schema = append(schema, storage.ColumnDef{Name: name, Type: storage.Float64})
	}
	tbl := storage.NewTable("edge", schema)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e300, 1e300, -0.0, 0.5, 1}
	for r := 0; r < 700; r++ {
		row := []storage.Value{storage.NewInt(int64(r))}
		for c := range names {
			v := math.Mod(float64(r*(2*c+7)+c)*0.013, 1.3) - 0.15 // a little past [0, 1] both ways
			if (r+c)%11 == 0 {
				v = specials[(r/11+c)%len(specials)]
			}
			row = append(row, storage.NewFloat(v))
		}
		tbl.MustAppendRow(row...)
	}
	dims := []datacube.Dim{
		{Name: "a", Lo: 0, Hi: 1, Bins: 20},
		{Name: "b", Lo: 0, Hi: 1, Bins: 1 << 20}, // 21 bin bits: more than a 6-dim share
		{Name: "c", Lo: 1, Hi: 1, Bins: 20},      // Hi ≤ Lo
		{Name: "d", Lo: 0, Hi: 1, Bins: 1},
		{Name: "e", Lo: 2, Hi: -2, Bins: 20}, // Hi < Lo
		{Name: "f", Lo: -0.5, Hi: 0.5, Bins: 1000},
	}
	for _, k := range []int{1, 3, 6} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("dims%d-hash-S%d", k, shards), func(t *testing.T) {
				use := dims[:k]
				assign, err := assignRows(tbl, use, shards)
				if err != nil {
					t.Fatal(err)
				}
				parts, err := Partition(tbl, use, shards)
				if err != nil {
					t.Fatal(err)
				}
				again, err := Partition(tbl, use, shards)
				if err != nil {
					t.Fatal(err)
				}
				for s, part := range parts {
					requireSameRows(t, part, again[s])
					one, err := PartitionOne(tbl, use, shards, s)
					if err != nil {
						t.Fatal(err)
					}
					requireSameRows(t, part, one)
					var want, got []int
					for row, owner := range assign {
						if owner == s {
							want = append(want, row)
						}
					}
					for r := 0; r < part.NumRows(); r++ {
						got = append(got, int(part.Column("id").Ints[r]))
					}
					slices.Sort(got)
					if !slices.Equal(got, want) {
						t.Fatalf("shard %d holds rows %v, assignRows gave it %v", s, got, want)
					}
				}
			})
		}
	}
}

// TestPartitionLayoutTiesKeepTableOrder: when every row has the same key —
// here, every dimension has Hi ≤ Lo — the layout is table order.
func TestPartitionLayoutTiesKeepTableOrder(t *testing.T) {
	roads := dataset.Roads(5, 3000)
	dims := roadDims()
	for i := range dims {
		dims[i].Hi = dims[i].Lo
	}
	parts, err := Partition(roads, dims, 2)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := assignRows(roads, dims, 2)
	if err != nil {
		t.Fatal(err)
	}
	for s, part := range parts {
		var rows []int
		for row, owner := range assign {
			if owner == s {
				rows = append(rows, row)
			}
		}
		requireSameRows(t, part, roads.Take(rows))
	}
}

// TestReplicaRunsOnlyWhereRowsCluster: NewReplica keeps a cell-run
// directory over a laid-out partition, raw or encoded — one run per
// non-empty layout cell, so layout left every cell contiguous — and none
// over the same table in generation order, whose cells change every few
// rows (the serving layer's sample replica is such a table).
func TestReplicaRunsOnlyWhereRowsCluster(t *testing.T) {
	roads := dataset.Roads(1, 200000)
	dims := roadDims()
	parts, err := Partition(roads, dims, 2)
	if err != nil {
		t.Fatal(err)
	}
	cells := map[[3]uint64]bool{}
	for row := 0; row < parts[0].NumRows(); row++ {
		var c [3]uint64
		for i, d := range dims {
			q := newQuantizer(d, 64/len(dims))
			c[i] = q.key(parts[0].Column(d.Name).Float(row))
		}
		cells[c] = true
	}
	for _, encode := range []bool{false, true} {
		rep, err := NewReplica(0, parts[0], dims, nil, Options{Encode: encode})
		if err != nil {
			t.Fatal(err)
		}
		if runs := colstore.RunsOf(rep.Table); runs == nil || runs.Len() != len(cells) {
			t.Fatalf("encode=%v: directory %v over %d non-empty cells", encode, runs, len(cells))
		}
	}
	rep, err := NewReplica(0, roads, dims, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if runs := colstore.RunsOf(rep.Table); runs != nil {
		t.Fatalf("table order kept a directory of %d runs over %d rows", runs.Len(), roads.NumRows())
	}
	if n := len(cellStarts(roads, dims)); n <= (roads.NumRows()+63)/64 {
		t.Fatalf("table order has only %d cell runs over %d rows; the guard went untested", n, roads.NumRows())
	}
}
