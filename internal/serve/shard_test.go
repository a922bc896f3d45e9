package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/datacube"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/leakcheck"
	"repro/internal/opt"
	reforacle "repro/internal/oracle"
	"repro/internal/shard"
)

// partitioned hands cfg a coordinator over s hash partitions of b's table,
// built as idevald -shards builds it, through the Gatherer door, and takes
// the cube out of b. faults (len s; nil entries inject nothing) gate single
// shards. At s ≤ 1 b and cfg come back unchanged: the server's own
// one-replica gather over the served table.
func partitioned(t *testing.T, b Backends, cfg Config, s int, faults []*fault.Injector) (Backends, Config) {
	t.Helper()
	if s <= 1 {
		return b, cfg
	}
	dims := b.Cube.Dims()
	coord, err := shard.New(b.Tiles, dims, shard.Options{Shards: s, WithEngine: true, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close) // idempotent: the server's Drain closes it first
	cfg.Gatherer, cfg.GatherDims, b.Cube = coord, dims, nil
	return b, cfg
}

// shardTestServer builds a road server over s partitions (see partitioned)
// and its httptest frontend, draining both on cleanup.
func shardTestServer(t *testing.T, rows, s int, faults []*fault.Injector, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	backends, err := RoadBackends(1, rows, engine.ProfileMemory)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(partitioned(t, backends, cfg, s, faults))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Error(err)
		}
	})
	return srv, ts
}

// filtersOf turns a brush request's ranges into datacube filters.
func filtersOf(ranges []*[2]float64) []*datacube.Range {
	filters := make([]*datacube.Range, len(ranges))
	for i, rg := range ranges {
		if rg != nil {
			filters[i] = &datacube.Range{Lo: rg[0], Hi: rg[1]}
		}
	}
	return filters
}

// histPairs reads a histogram statement's JSON rows as the (bin, count)
// pairs reforacle.Histogram returns.
func histPairs(t *testing.T, rows [][]any) [][2]int64 {
	t.Helper()
	out := make([][2]int64, 0, len(rows))
	for _, r := range rows {
		bin, ok1 := r[0].(float64)
		count, ok2 := r[1].(float64)
		if len(r) != 2 || !ok1 || !ok2 {
			t.Fatalf("row %v is not a (bin, count) pair", r)
		}
		out = append(out, [2]int64{int64(bin), int64(count)})
	}
	return out
}

// TestShardedServerMatchesUnsharded is the serving-layer end of the
// differential proof: the same randomized brush and histogram-query
// traffic against a sharded server and an unsharded oracle server built
// from the same dataset. Brush responses must be byte-identical on the
// wire; query responses must agree on every row (model cost legitimately
// differs — S parallel partial scans are not one full scan). Both must also
// equal internal/oracle's row-at-a-time answers over the served table.
func TestShardedServerMatchesUnsharded(t *testing.T) {
	leakcheck.Check(t)
	const rows = 20000
	_, oracle := shardTestServer(t, rows, 1, nil, Config{Workers: 2})
	dims := RoadCubeDims()
	loadDims := RoadLoadDims()
	served := dataset.Roads(1, rows) // the table RoadBackends serves

	for _, s := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("hash/S%d", s), func(t *testing.T) {
			_, sharded := shardTestServer(t, rows, s, nil, Config{Workers: 2})
			rng := rand.New(rand.NewSource(int64(1000 * s)))
			session := fmt.Sprintf("diff-hash-%d", s)

			brush := func(seq int64, ranges []*[2]float64) {
				t.Helper()
				req := BrushRequest{Session: session, Seq: seq, Ranges: ranges}
				st1, body1 := postJSON(t, oracle.URL+"/v1/brush", req)
				st2, body2 := postJSON(t, sharded.URL+"/v1/brush", req)
				if st1.StatusCode != http.StatusOK || st2.StatusCode != http.StatusOK {
					t.Fatalf("seq %d: status %d vs %d", seq, st1.StatusCode, st2.StatusCode)
				}
				if !bytes.Equal(body1, body2) {
					t.Fatalf("seq %d: sharded brush body differs:\n%s\nvs oracle:\n%s", seq, body2, body1)
				}
				// Both servers bin through datacube; the row-at-a-time
				// reference shares no code with either.
				got := decodeBrush(t, body2)
				total, hists := reforacle.Brush(served, dims, filtersOf(ranges))
				if got.Total != total || !reflect.DeepEqual(got.Histograms, hists) {
					t.Fatalf("seq %d: total %d %v, reference oracle %d %v", seq, got.Total, got.Histograms, total, hists)
				}
			}
			for seq := int64(0); seq < 15; seq++ {
				ranges := make([]*[2]float64, len(dims))
				for i, d := range dims {
					if rng.Intn(4) == 0 {
						continue
					}
					lo := d.Lo + rng.Float64()*(d.Hi-d.Lo)
					ranges[i] = &[2]float64{lo, lo + rng.Float64()*(d.Hi-lo)}
				}
				brush(seq, ranges)
			}
			// Bounds on bin edges, where the binning rules decide: a bound
			// on bin k's lower edge keeps bin k as Lo and stops short of it
			// as Hi. Random bounds never land there.
			for step := 0; step < 5; step++ {
				ranges := make([]*[2]float64, len(dims))
				for i, d := range dims {
					edge := func(k int) float64 { return d.Lo + (d.Hi-d.Lo)*float64(k)/float64(d.Bins) }
					k := (3*step + 5*i) % (d.Bins - 4)
					ranges[i] = &[2]float64{edge(k), edge(k + 2 + step%3)}
				}
				brush(int64(15+step), ranges)
			}

			for seq := int64(0); seq < 8; seq++ {
				// Each statement's ranges hold one served row's values, so
				// it keeps at least that row: a statement that matches
				// nothing compares two empty answers.
				row := rng.Intn(served.NumRows())
				ranges := make([][2]float64, len(dims))
				for i, d := range dims {
					v := served.Column(d.Name).Floats[row]
					ranges[i] = [2]float64{v - rng.Float64()*(v-d.Lo), v + rng.Float64()*(d.Hi-v)}
				}
				target := rng.Intn(len(dims))
				stmt, err := opt.HistogramQuery("dataroad", loadDims, ranges, target, dims[0].Bins)
				if err != nil {
					t.Fatal(err)
				}
				req := QueryRequest{Session: session, Seq: seq, SQL: stmt.String()}
				st1, body1 := postJSON(t, oracle.URL+"/v1/query", req)
				st2, body2 := postJSON(t, sharded.URL+"/v1/query", req)
				if st1.StatusCode != http.StatusOK || st2.StatusCode != http.StatusOK {
					t.Fatalf("query seq %d: status %d vs %d", seq, st1.StatusCode, st2.StatusCode)
				}
				var want, got QueryResponse
				if err := json.Unmarshal(body1, &want); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(body2, &got); err != nil {
					t.Fatal(err)
				}
				if got.Degraded || got.SampleFraction != 0 {
					t.Fatalf("query seq %d: degraded sharded answer with no fault injected", seq)
				}
				if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Fatalf("query seq %d: rows differ\nsharded: %v\noracle:  %v", seq, got.Rows, want.Rows)
				}
				if len(got.Rows) == 0 {
					t.Fatalf("query seq %d: no rows, though its ranges hold row %d", seq, row)
				}
				if ref := reforacle.Histogram(served, dims, ranges, target, dims[0].Bins); !reflect.DeepEqual(histPairs(t, got.Rows), ref) {
					t.Fatalf("query seq %d: rows %v, reference oracle %v", seq, got.Rows, ref)
				}
			}
		})
	}
}

// TestShardedBrushDegradesOnStalledShard is the serving-layer chaos proof:
// with one of four shards wedged and deadlines on, a brush comes back 200
// within the budget as a Degraded partial whose SampleFraction is exactly
// the covered shards' record share, with the request's own applied_seq
// preserved. Shard 0 and shard 2 each take a turn as the wedged one: shard
// 0's leg runs on the serving worker itself, so its stall ends the gather
// with the other legs' answers already waiting, and they must still count.
func TestShardedBrushDegradesOnStalledShard(t *testing.T) {
	for _, stalled := range []int{0, 2} {
		t.Run(fmt.Sprintf("stalled=%d", stalled), func(t *testing.T) {
			leakcheck.Check(t)
			faults := make([]*fault.Injector, 4)
			faults[stalled] = fault.New(fault.Profile{Name: "wedge", StallProb: 1, StallDelay: 5 * time.Second}, 11)
			srv, ts := shardTestServer(t, 8000, 4, faults, Config{
				Workers:        2,
				Deadlines:      true,
				DegradeAfter:   80 * time.Millisecond,
				BrushCacheSize: -1, // force the partial tier; the cache tier would win
			})

			coord := srv.coord.(*shard.Coordinator)
			wantFrac := float64(0)
			for i := 0; i < coord.NumShards(); i++ {
				if i != stalled {
					wantFrac += float64(coord.Replica(i).Table.NumRows())
				}
			}
			wantFrac /= float64(coord.Records())

			req := BrushRequest{Session: "chaos", Seq: 5, Ranges: make([]*[2]float64, 3)}
			start := time.Now()
			st, body := postJSON(t, ts.URL+"/v1/brush", req)
			if el := time.Since(start); el > 2*time.Second {
				t.Fatalf("brush took %v with a wedged shard", el)
			}
			if st.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", st.StatusCode, body)
			}
			var resp BrushResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if !resp.Degraded || resp.Tier != "partial" {
				t.Fatalf("tier %q degraded=%v, want a degraded partial", resp.Tier, resp.Degraded)
			}
			if resp.SampleFraction != wantFrac {
				t.Fatalf("sample fraction %g, want %g", resp.SampleFraction, wantFrac)
			}
			if resp.AppliedSeq != 5 {
				t.Fatalf("applied seq %d, want 5", resp.AppliedSeq)
			}
			// The scaled total estimates the full dataset from the covered share.
			if resp.Total <= 0 {
				t.Fatalf("partial total %d", resp.Total)
			}
			if st := srv.Stats(); st.Degraded == 0 || st.Deadlines == 0 {
				t.Fatalf("registry degraded=%d deadlines=%d, want both > 0", st.Degraded, st.Deadlines)
			}

			// Heal the shard: the next brush is exact again and sequence order
			// holds across the tier change.
			faults[stalled].SetProfile(fault.Profile{})
			req.Seq = 6
			st, body = postJSON(t, ts.URL+"/v1/brush", req)
			if st.StatusCode != http.StatusOK {
				t.Fatalf("healed status %d: %s", st.StatusCode, body)
			}
			var healed BrushResponse
			if err := json.Unmarshal(body, &healed); err != nil {
				t.Fatal(err)
			}
			if healed.Degraded || healed.Tier != "exact" {
				t.Fatalf("healed tier %q degraded=%v", healed.Tier, healed.Degraded)
			}
			if healed.AppliedSeq != 6 {
				t.Fatalf("healed applied seq %d", healed.AppliedSeq)
			}
			if srv.Stats().Regressions != 0 {
				t.Fatal("sequence regression across tier change")
			}
		})
	}
}

// TestShardedQueryDegradesOnStalledShard is the query twin of the brush
// test above, by the same rules: with one of four shards wedged and
// deadlines on, a histogram query comes back 200 within the budget as a
// degraded partial whose SampleFraction is exactly the covered shards'
// record share, counted as degraded and as a blown deadline; healed, it is
// exact and its rows are the unsharded oracle's.
func TestShardedQueryDegradesOnStalledShard(t *testing.T) {
	for _, stalled := range []int{0, 2} {
		t.Run(fmt.Sprintf("stalled=%d", stalled), func(t *testing.T) {
			leakcheck.Check(t)
			const rows = 8000
			faults := make([]*fault.Injector, 4)
			faults[stalled] = fault.New(fault.Profile{Name: "wedge", StallProb: 1, StallDelay: 5 * time.Second}, 11)
			srv, ts := shardTestServer(t, rows, 4, faults, Config{
				Workers:      2,
				Deadlines:    true,
				DegradeAfter: 80 * time.Millisecond,
			})
			_, oracle := shardTestServer(t, rows, 1, nil, Config{Workers: 2})

			coord := srv.coord.(*shard.Coordinator)
			wantFrac := float64(0)
			for i := 0; i < coord.NumShards(); i++ {
				if i != stalled {
					wantFrac += float64(coord.Replica(i).Table.NumRows())
				}
			}
			wantFrac /= float64(coord.Records())

			req := QueryRequest{Session: "chaos", Seq: 5,
				SQL: "SELECT ROUND((y - 56) / 0.05), COUNT(*) FROM dataroad WHERE x >= 8.2 AND x <= 10.5 GROUP BY ROUND((y - 56) / 0.05) ORDER BY ROUND((y - 56) / 0.05)"}
			query := func(url string) QueryResponse {
				t.Helper()
				st, body := postJSON(t, url+"/v1/query", req)
				if st.StatusCode != http.StatusOK {
					t.Fatalf("status %d: %s", st.StatusCode, body)
				}
				var resp QueryResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatal(err)
				}
				resp.ModelMS = 0 // parallel partial scans are not one full scan
				return resp
			}
			want := query(oracle.URL)
			start := time.Now()
			resp := query(ts.URL)
			if el := time.Since(start); el > 2*time.Second {
				t.Fatalf("query took %v with a wedged shard", el)
			}
			if !resp.Degraded || resp.SampleFraction != wantFrac {
				t.Fatalf("degraded=%v sample fraction %g, want a degraded partial covering %g", resp.Degraded, resp.SampleFraction, wantFrac)
			}
			if len(resp.Rows) == 0 || len(want.Rows) == 0 {
				t.Fatalf("partial has %d bins, the oracle %d", len(resp.Rows), len(want.Rows))
			}
			if st := srv.Stats(); st.Degraded == 0 || st.Deadlines == 0 || st.Executed != 1 {
				t.Fatalf("registry degraded=%d deadlines=%d executed=%d, want > 0, > 0 and 1", st.Degraded, st.Deadlines, st.Executed)
			}
			if rec := srv.reg.tracer.Recent(); len(rec) != 1 || rec[0].Tier != "partial" {
				t.Fatalf("trace carries no budget verdict: %+v", rec)
			}
			if srv.brk.isOpen(time.Now()) || srv.Stats().BreakerTrips != 0 {
				t.Fatal("a served partial counted against the breaker")
			}

			// Heal the shard: the same statement is exact again, and byte-identical
			// to the unsharded oracle.
			faults[stalled].SetProfile(fault.Profile{})
			if healed := query(ts.URL); !reflect.DeepEqual(healed, want) {
				t.Fatalf("healed answer %+v, want the oracle's %+v", healed, want)
			}
		})
	}
}

// TestShardedTileDegradesOnStalledShard is the tile twin of the query test
// above: a cold tile's count scatters to the partitions like any histogram
// statement, so with one of four shards wedged and deadlines on it comes
// back 200 as a degraded estimate whose SampleFraction is exactly the
// covered shards' record share, and the cache keeps nothing. Healed, the
// same tile is exact, byte-identical to the unsharded server's body, and
// cached.
func TestShardedTileDegradesOnStalledShard(t *testing.T) {
	for _, stalled := range []int{0, 2} {
		t.Run(fmt.Sprintf("stalled=%d", stalled), func(t *testing.T) {
			leakcheck.Check(t)
			const rows = 8000
			const key = "6/33/19" // inside the road bounds
			faults := make([]*fault.Injector, 4)
			faults[stalled] = fault.New(fault.Profile{Name: "wedge", StallProb: 1, StallDelay: 5 * time.Second}, 11)
			srv, ts := shardTestServer(t, rows, 4, faults, Config{
				Workers:      2,
				Deadlines:    true,
				DegradeAfter: 80 * time.Millisecond,
			})
			_, oracle := shardTestServer(t, rows, 1, nil, Config{Workers: 2})

			coord := srv.coord.(*shard.Coordinator)
			wantFrac := float64(0)
			for i := 0; i < coord.NumShards(); i++ {
				if i != stalled {
					wantFrac += float64(coord.Replica(i).Table.NumRows())
				}
			}
			wantFrac /= float64(coord.Records())
			cached := func() bool { return tileCached(srv, key) }

			want, exact := getTile(t, oracle.URL, key)
			if exact.Count == 0 {
				t.Fatalf("tile %s holds no rows; pick one inside the road bounds", key)
			}
			start := time.Now()
			_, partial := getTile(t, ts.URL, key)
			if el := time.Since(start); el > 2*time.Second {
				t.Fatalf("tile took %v with a wedged shard", el)
			}
			if !partial.Degraded || partial.SampleFraction != wantFrac || partial.Count <= 0 {
				t.Fatalf("tile %+v, want a degraded estimate covering %g", partial, wantFrac)
			}
			if cached() {
				t.Fatal("a degraded count was cached")
			}
			if st := srv.Stats(); st.Degraded != 1 || st.Deadlines != 1 || st.TileCacheMiss != 1 {
				t.Fatalf("registry degraded=%d deadlines=%d tile misses=%d, want 1 each", st.Degraded, st.Deadlines, st.TileCacheMiss)
			}
			if rec := srv.reg.tracer.Recent(); len(rec) != 1 || rec[0].Tier != "partial" {
				t.Fatalf("trace carries no budget verdict: %+v", rec)
			}

			faults[stalled].SetProfile(fault.Profile{})
			for i := 0; i < 2; i++ { // a miss, then a hit from the cache
				if got, _ := getTile(t, ts.URL, key); !bytes.Equal(got, want) {
					t.Fatalf("healed fetch %d: %s, want the unsharded server's %s", i, got, want)
				}
			}
			if st := srv.Stats(); !cached() || st.TileCacheHits != 1 || st.TileCacheMiss != 2 {
				t.Fatalf("healed: cached=%v, tile hits %d misses %d, want true, 1, 2", cached(), st.TileCacheHits, st.TileCacheMiss)
			}
		})
	}
}

// TestShardLoadgenRace drives 32 concurrent synthetic users through the
// full HTTP stack of a 4-shard server (run under -race in CI): every
// request answered, applied sequences monotonic, every session ends on its
// latest state — the same invariants as the unsharded loadgen proof, now
// with scatter-gather underneath.
func TestShardLoadgenRace(t *testing.T) {
	if testing.Short() {
		t.Skip("loadgen integration in -short mode")
	}
	leakcheck.Check(t)
	srv, ts := shardTestServer(t, 50000, 4, nil, Config{
		Workers: 4, QueueDepth: 8, ExecDelay: 2 * time.Millisecond,
	})

	report, err := RunLoad(LoadConfig{
		BaseURL:     ts.URL,
		Users:       32,
		Adjustments: 4,
		MaxEvents:   40,
		Seed:        7,
		TimeScale:   0.02,
		Dims:        RoadLoadDims(),
		SQLEvery:    10,
		Table:       "dataroad",
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Issued < 1000 {
		t.Errorf("issued %d queries, want >= 1000", report.Issued)
	}
	if report.Responded != report.Issued {
		t.Errorf("dropped responses: issued %d, responded %d", report.Issued, report.Responded)
	}
	if report.Errors != 0 {
		t.Errorf("errors = %d, want 0", report.Errors)
	}
	if report.Server.Regressions != 0 {
		t.Errorf("per-session sequence regressions = %d, want 0", report.Server.Regressions)
	}
	for _, u := range report.Users {
		if !u.GotLatest {
			t.Errorf("%s: final applied seq %d < latest issued %d", u.Session, u.FinalSeq, u.MaxSeq)
		}
	}
	if report.Server.Coalesced == 0 {
		t.Error("coalesced counter is zero")
	}
	t.Logf("sharded: issued=%d executed=%d coalesced=%d shed=%d lcv=%d p95=%.1fms wall=%v",
		report.Issued, report.Server.Executed, report.Server.Coalesced, report.Server.Shed,
		report.Server.LCV, report.P95MS, report.Wall)
	_ = srv
}
