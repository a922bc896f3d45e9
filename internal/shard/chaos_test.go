package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/datacube"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/leakcheck"
)

// alwaysStall is a fault profile that stalls every operation well past any
// test deadline — the deterministic "one shard wedged" scenario.
var alwaysStall = fault.Profile{Name: "wedge", StallProb: 1, StallDelay: 5 * time.Second}

// TestStalledShardPartialGather wedges one of four shards and proves the
// coordinator returns within the deadline with exactly the other shards'
// records covered — the partial answer the serving ladder degrades to,
// with the sample fraction the paper's DSD metric needs to be honest.
// Every shard takes a turn as the wedged one: shard 0's leg runs on the
// scatter's own goroutine, so when it is wedged it returns at the deadline
// with the other legs' answers already waiting, and they must still count.
func TestStalledShardPartialGather(t *testing.T) {
	roads := dataset.Roads(63, 4000)
	dims := roadDims()
	oracle, err := datacube.BuildPrefix(roads, dims, 1)
	if err != nil {
		t.Fatal(err)
	}
	filters := []*datacube.Range{nil, {Lo: dims[1].Lo, Hi: (dims[1].Lo + dims[1].Hi) / 2}, nil}
	for stalled := 0; stalled < 4; stalled++ {
		t.Run(fmt.Sprintf("stalled=%d", stalled), func(t *testing.T) {
			leakcheck.Check(t)
			faults := make([]*fault.Injector, 4)
			faults[stalled] = fault.New(alwaysStall, 7)
			coord, err := New(roads, dims, Options{Shards: 4, Faults: faults})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
			defer cancel()
			start := time.Now()
			g, err := coord.ScatterBrush(ctx, "", filters)
			if err != nil {
				t.Fatal(err)
			}
			if el := time.Since(start); el > time.Second {
				t.Fatalf("gather took %v, deadline ignored", el)
			}
			if g.Covered() == len(g.Answers) {
				t.Fatal("gather complete despite a wedged shard")
			}
			if g.Covered() != 3 {
				t.Fatalf("covered %d shards, want 3", g.Covered())
			}
			if g.Errs[stalled] == nil || !errors.Is(g.Errs[stalled], context.DeadlineExceeded) {
				t.Fatalf("stalled shard error = %v", g.Errs[stalled])
			}

			// The fraction is record-weighted over the covered shards.
			wantCovered := 0
			for i := 0; i < 4; i++ {
				if i != stalled {
					wantCovered += coord.Replica(i).Table.NumRows()
				}
			}
			wantFrac := float64(wantCovered) / float64(roads.NumRows())
			b := g.MergeBrush(dims)
			if b.Fraction() != wantFrac || g.Fraction() != wantFrac {
				t.Fatalf("fraction %g want %g", b.Fraction(), wantFrac)
			}

			// The partial merge is exactly the oracle minus the wedged
			// shard's own contribution — no double counting, no invented
			// records.
			missing := coord.Replica(stalled).Prefix
			for target := range dims {
				want, err := oracle.Histogram(target, filters)
				if err != nil {
					t.Fatal(err)
				}
				miss, err := missing.Histogram(target, filters)
				if err != nil {
					t.Fatal(err)
				}
				for bin := range want {
					if b.Histograms[target][bin] != want[bin]-miss[bin] {
						t.Fatalf("target %d bin %d: partial %d want %d-%d",
							target, bin, b.Histograms[target][bin], want[bin], miss[bin])
					}
				}
			}

			// Clearing the fault heals the fleet: the next full-deadline
			// gather is complete and byte-identical to the oracle again.
			faults[stalled].SetProfile(fault.Profile{})
			hg, err := coord.ScatterBrush(context.Background(), "", filters)
			if err != nil {
				t.Fatal(err)
			}
			healed := hg.MergeBrush(dims)
			if healed.Covered != 4 || healed.Fraction() != 1 {
				t.Fatalf("healed coverage %d fraction %g", healed.Covered, healed.Fraction())
			}
			wantTotal, err := oracle.Count(filters)
			if err != nil {
				t.Fatal(err)
			}
			if healed.Total != wantTotal {
				t.Fatalf("healed total %d want %d", healed.Total, wantTotal)
			}
		})
	}
}

// TestCoordinatorShutdown proves Close is idempotent, leaves no leg
// goroutine behind (leakcheck), and fails scatters issued afterwards
// instead of hanging or panicking — including concurrently with in-flight
// work.
func TestCoordinatorShutdown(t *testing.T) {
	leakcheck.Check(t)
	roads := dataset.Roads(65, 2000)
	dims := roadDims()
	coord, err := New(roads, dims, Options{Shards: 4, WithEngine: true})
	if err != nil {
		t.Fatal(err)
	}

	// Hammer brushes from several goroutines while Close races in.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				g, err := coord.ScatterBrush(context.Background(), "", nil)
				if err != nil {
					return // closed underneath us — expected
				}
				g.MergeBrush(dims)
			}
		}()
	}
	time.Sleep(time.Millisecond)
	coord.Close()
	coord.Close() // idempotent
	wg.Wait()

	if _, err := coord.ScatterBrush(context.Background(), "", nil); err == nil {
		t.Fatal("scatter accepted after Close")
	}
	// A histogram-shaped statement scatters, so it fails like a brush; any
	// other statement never reaches the shards: ok=false, err=nil.
	hist := "SELECT ROUND((x - 8) / 0.5), COUNT(*) FROM dataroad GROUP BY ROUND((x - 8) / 0.5)"
	if _, _, ok, err := coord.QueryHistogram(context.Background(), hist); !ok || err == nil {
		t.Fatalf("histogram statement after Close: ok=%v err=%v, want ok and an error", ok, err)
	}
	if _, _, ok, err := coord.QueryHistogram(context.Background(), "SELECT x FROM dataroad LIMIT 1"); ok || err != nil {
		t.Fatalf("unshaped statement after Close: ok=%v err=%v, want neither", ok, err)
	}
}

// TestExpiredContextSkipsWork proves a task whose deadline passed while
// queued is answered with the context error without touching the backends.
func TestExpiredContextSkipsWork(t *testing.T) {
	leakcheck.Check(t)
	roads := dataset.Roads(66, 1000)
	coord, err := New(roads, roadDims(), Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g, err := coord.ScatterBrush(ctx, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Covered() != 0 {
		t.Fatalf("covered %d with a dead context", g.Covered())
	}
	for i, e := range g.Errs {
		if !errors.Is(e, context.Canceled) {
			t.Fatalf("shard %d error %v", i, e)
		}
	}
	if g.Fraction() != 0 {
		t.Fatalf("fraction %g", g.Fraction())
	}
}
