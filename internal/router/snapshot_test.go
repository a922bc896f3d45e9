package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/leakcheck"
	"repro/internal/serve"
	"repro/internal/shard"
)

// TestFleetSnapshotWarmStartMatchesRebuild is the tentpole differential: a
// fleet whose children warm-start from mmap'd snapshots must answer every
// brush byte-identical to the rebuild-path fleet that wrote those
// snapshots, at S ∈ {2, 4}. The first fleet cold-builds (no snapshots
// exist yet) and persists them on the way up; the second fleet maps them,
// and so must the generation restarted after one of its children is killed.
func TestFleetSnapshotWarmStartMatchesRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	leakcheck.Check(t)
	leakcheck.CheckChildren(t)
	for _, s := range []int{2, 4} {
		t.Run(fmt.Sprintf("S%d", s), func(t *testing.T) {
			dir := t.TempDir()
			cold, coldTS := fleetServer(t,
				Config{Shards: s, Encode: true, SnapshotDir: dir},
				serve.Config{Workers: 2})
			if got := cold.Stats().WarmStarts; got != 0 {
				t.Fatalf("first fleet warm-started %d children with no snapshots on disk", got)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != s {
				t.Fatalf("cold fleet left %d snapshot files, want %d", len(entries), s)
			}
			for _, e := range entries {
				if !strings.HasSuffix(e.Name(), ".snap") {
					t.Fatalf("unexpected file in snapshot dir: %s", e.Name())
				}
			}

			warm, warmTS := fleetServer(t,
				Config{Shards: s, Encode: true, SnapshotDir: dir},
				serve.Config{Workers: 2})
			if got := warm.Stats().WarmStarts; got != int64(s) {
				t.Fatalf("warm fleet warm-started %d of %d children", got, s)
			}
			_, detail := warm.Health()
			for _, h := range detail.([]ReplicaHealth) {
				if !h.WarmStart {
					t.Fatalf("replica health does not report warm start: %+v", h)
				}
			}

			rng := rand.New(rand.NewSource(int64(7100 + s)))
			session := fmt.Sprintf("warm-%d", s)
			sameBrush := func(seq int64) {
				t.Helper()
				req := serve.BrushRequest{Session: session, Seq: seq, Ranges: randomRanges(rng)}
				st1, body1 := postJSON(t, coldTS.URL+"/v1/brush", req)
				st2, body2 := postJSON(t, warmTS.URL+"/v1/brush", req)
				if st1 != http.StatusOK || st2 != http.StatusOK {
					t.Fatalf("seq %d: status %d vs %d (%s)", seq, st1, st2, body2)
				}
				if !bytes.Equal(body1, body2) {
					t.Fatalf("seq %d: warm-start brush differs:\n%s\nvs rebuild:\n%s", seq, body2, body1)
				}
			}
			for seq := int64(0); seq < 12; seq++ {
				sameBrush(seq)
			}
			// A warm-started child registers the mapped table with its engine
			// the way a rebuilt one registers its partition: same rows.
			sameQuery := func(seq int64, sql string) {
				t.Helper()
				st1, body1 := postQuery(t, coldTS.URL, session, seq, sql)
				st2, body2 := postQuery(t, warmTS.URL, session, seq, sql)
				if st1 != http.StatusOK || st2 != http.StatusOK {
					t.Fatalf("%s: status %d vs %d (%s)", sql, st1, st2, body2)
				}
				if !bytes.Equal(body1, body2) {
					t.Fatalf("%s: warm-start rows differ:\n%s\nvs rebuild:\n%s", sql, body2, body1)
				}
			}
			sameQuery(20, oneSidedHistogram)
			if _, body := postQuery(t, warmTS.URL, session, 20, oneSidedHistogram); bytes.Contains(body, []byte(`"rows":[]`)) {
				t.Fatalf("warm-started children answered no rows: %s", body)
			}
			for seq := int64(21); seq < 25; seq++ {
				sameQuery(seq, randomHistogram(t, rng))
			}

			// Kill a child whose snapshot is on disk: the generation the
			// supervisor restarts must map it too, not rebuild.
			if err := syscall.Kill(warm.ReplicaPID(0, 0), syscall.SIGKILL); err != nil {
				t.Fatal(err)
			}
			waitState(t, warm, 0, 0, func(st State) bool { return st != StateReady })
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if err := warm.WaitReady(ctx); err != nil {
				t.Fatal(err)
			}
			if h := warm.reps[0][0].health(); !h.WarmStart || h.Generation != 2 {
				t.Fatalf("restarted replica did not warm-start: %+v", h)
			}
			if st := warm.Stats(); st.WarmStarts != int64(s)+1 || st.RestartWindows != 1 {
				t.Fatalf("after one kill: warm starts %d (want %d), restart windows %d (want 1)",
					st.WarmStarts, s+1, st.RestartWindows)
			}
			sameBrush(12)
			sameQuery(25, oneSidedHistogram)
		})
	}
}

// TestFleetSnapshotCorruptionFallsBack flips one byte in a shard's
// snapshot: that child must refuse the file, fall back to the rebuild
// path, and still serve answers byte-identical to an untouched fleet —
// while the sibling shard still warm-starts.
func TestFleetSnapshotCorruptionFallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	leakcheck.Check(t)
	leakcheck.CheckChildren(t)
	dir := t.TempDir()
	cold, coldTS := fleetServer(t,
		Config{Shards: 2, SnapshotDir: dir},
		serve.Config{Workers: 2})
	_ = cold

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("want 2 snapshots, got %d", len(entries))
	}
	// Corrupt the middle of the first shard's file — deep in column data,
	// where only the checksum can catch it.
	victim := filepath.Join(dir, entries[0].Name())
	buf, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x01
	if err := os.WriteFile(victim, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	mixed, mixedTS := fleetServer(t,
		Config{Shards: 2, SnapshotDir: dir},
		serve.Config{Workers: 2})
	if got := mixed.Stats().WarmStarts; got != 1 {
		t.Fatalf("warm starts = %d, want exactly 1 (corrupted shard must rebuild)", got)
	}

	rng := rand.New(rand.NewSource(55))
	for seq := int64(0); seq < 8; seq++ {
		req := serve.BrushRequest{Session: "corrupt", Seq: seq, Ranges: randomRanges(rng)}
		st1, body1 := postJSON(t, coldTS.URL+"/v1/brush", req)
		st2, body2 := postJSON(t, mixedTS.URL+"/v1/brush", req)
		if st1 != http.StatusOK || st2 != http.StatusOK {
			t.Fatalf("seq %d: status %d vs %d", seq, st1, st2)
		}
		if !bytes.Equal(body1, body2) {
			t.Fatalf("seq %d: fallback fleet diverged", seq)
		}
	}

	// The rebuild must also have healed the snapshot on disk: the rewritten
	// file has to verify again.
	healed, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(healed, buf) {
		t.Fatal("corrupted snapshot was not rewritten by the rebuild path")
	}
}

// TestFleetSnapshotFenceMismatchRebuilds: snapshots written under one seed
// must be refused by a fleet running another — the fence, not the
// filename, is the authority. (Distinct seeds get distinct filenames, so
// this test forges the name collision by renaming.)
func TestFleetSnapshotFenceMismatchRebuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	leakcheck.Check(t)
	leakcheck.CheckChildren(t)
	dir := t.TempDir()
	_, _ = fleetServer(t,
		Config{Shards: 2, Seed: 1, SnapshotDir: dir},
		serve.Config{Workers: 2})

	// Rename every seed-1 snapshot to the name a seed-2 fleet will look
	// for, simulating a stale-but-plausible file.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		from := filepath.Join(dir, e.Name())
		to := filepath.Join(dir, strings.Replace(e.Name(), "seed1", "seed2", 1))
		if from == to {
			t.Fatalf("snapshot name %q does not embed the seed", e.Name())
		}
		if err := os.Rename(from, to); err != nil {
			t.Fatal(err)
		}
	}

	stale, _ := fleetServer(t,
		Config{Shards: 2, Seed: 2, SnapshotDir: dir},
		serve.Config{Workers: 2})
	if got := stale.Stats().WarmStarts; got != 0 {
		t.Fatalf("fleet warm-started %d children from another seed's snapshots", got)
	}
}

// TestFirstProbeImmediate is the regression test for the first-probe
// latency bug: the supervisor used to wait a full HealthInterval before
// the first /readyz probe, so a child that built in milliseconds still
// took HealthInterval to become routable. With a deliberately huge
// interval, the fleet must still be ready almost immediately.
func TestFirstProbeImmediate(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	leakcheck.Check(t)
	leakcheck.CheckChildren(t)
	interval := 10 * time.Second
	start := time.Now()
	f, err := New(Config{Shards: 1, Rows: 2000, Seed: 1, HealthInterval: interval, ChildStderr: os.Stderr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= interval {
		t.Fatalf("ready took %v with HealthInterval %v — first probe waited out the tick", elapsed, interval)
	}
}

// TestProbeSurfacesHTTPStatus: a probe hitting a non-200 must report the
// status (and body) as the failure detail — not a JSON decode error from
// reading the body first — and a 200 with a garbage body must name the
// decode failure.
func TestProbeSurfacesHTTPStatus(t *testing.T) {
	serveWith := func(status int, body string) *replica {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(status)
			fmt.Fprint(w, body)
		}))
		t.Cleanup(ts.Close)
		f := &Fleet{
			cfg:          Config{HealthTimeout: time.Second},
			ctx:          context.Background(),
			healthClient: ts.Client(),
		}
		return &replica{fleet: f, shard: 0, addr: strings.TrimPrefix(ts.URL, "http://")}
	}

	ok, _, errMsg := serveWith(http.StatusServiceUnavailable, "<html>overloaded</html>").probe()
	if ok {
		t.Fatal("503 probe reported ready")
	}
	if !strings.Contains(errMsg, "readyz 503") || !strings.Contains(errMsg, "overloaded") {
		t.Fatalf("503 error detail %q does not surface the status", errMsg)
	}
	if strings.Contains(errMsg, "decode") {
		t.Fatalf("503 with non-JSON body misreported as decode failure: %q", errMsg)
	}

	ok, _, errMsg = serveWith(http.StatusOK, "not json").probe()
	if ok {
		t.Fatal("garbage-body probe reported ready")
	}
	if !strings.Contains(errMsg, "decode") {
		t.Fatalf("garbage 200 body error %q does not name the decode failure", errMsg)
	}

	// The failure detail must land in last_error via noteFail.
	rep := serveWith(http.StatusServiceUnavailable, "building")
	_, _, errMsg = rep.probe()
	rep.noteFail(errMsg)
	if h := rep.health(); !strings.Contains(h.LastError, "readyz 503") {
		t.Fatalf("last_error = %q, want probe status detail", h.LastError)
	}
}

// TestBackoffWaitClamp: an explicit zero or negative BackoffBase must not
// panic the jitter draw, and the cap must hold at any crash count.
func TestBackoffWaitClamp(t *testing.T) {
	for _, base := range []time.Duration{0, -time.Second, time.Millisecond} {
		for _, cap := range []time.Duration{0, -time.Second, 40 * time.Millisecond} {
			for crashes := 0; crashes < 70; crashes++ {
				w := backoffWait(base, cap, crashes)
				if w <= 0 {
					t.Fatalf("backoffWait(%v, %v, %d) = %v", base, cap, crashes, w)
				}
			}
		}
	}
	for crashes := 0; crashes < 70; crashes++ {
		if w := backoffWait(10*time.Millisecond, 40*time.Millisecond, crashes); w >= 80*time.Millisecond {
			t.Fatalf("crashes=%d: wait %v exceeds 2×cap", crashes, w)
		}
	}
}

// TestConfigValidation: negative durations are config bugs and must be
// rejected up front; zero still means "use the default".
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Shards: 1, BackoffBase: -time.Second}); err == nil {
		t.Fatal("negative BackoffBase accepted")
	}
	if _, err := New(Config{Shards: 1, HealthInterval: -1}); err == nil {
		t.Fatal("negative HealthInterval accepted")
	}
	c := Config{Shards: 1}
	if err := c.normalize(); err != nil {
		t.Fatal(err)
	}
	if c.BackoffBase != 100*time.Millisecond || c.HealthInterval != 50*time.Millisecond {
		t.Fatalf("zero knobs not defaulted: %+v", c)
	}
}

// TestChildFenceRefusesOldLayout: a snapshot whose fence differs from the
// current one — it predates the row layout key (what a build laid out in
// table order wrote), or it still carries the partitioning mode key that
// range sharding needed — is refused like any stale run shape, rebuilt, and
// rewritten under the current fence, so the slot's next restart is warm
// again in the current layout.
func TestChildFenceRefusesOldLayout(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stale func(fence map[string]string)
	}{
		{"no-layout", func(fence map[string]string) { delete(fence, "layout") }},
		{"mode-key", func(fence map[string]string) { fence["mode"] = "hash" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := ChildSpec{Dataset: "road", Rows: 3000, Seed: 1, Shard: 1, Of: 2,
				Encode: true, SnapshotDir: t.TempDir()}
			path := snapshotPath(spec.SnapshotDir, spec)

			cold := &child{spec: spec}
			if err := cold.build(); err != nil {
				t.Fatal(err)
			}
			if cold.warm {
				t.Fatal("first build warm-started with no snapshot on disk")
			}
			oldFence := childFence(spec)
			if oldFence["layout"] != shard.Layout {
				t.Fatalf("fence layout %q, want %q", oldFence["layout"], shard.Layout)
			}
			tc.stale(oldFence)
			dimsJSON, err := json.Marshal(cold.dims)
			if err != nil {
				t.Fatal(err)
			}
			if err := colstore.WriteSnapshot(path, cold.rep.Table, oldFence, []colstore.SnapshotSection{
				{Name: snapDimsSection, JSON: dimsJSON},
				{Name: snapPrefixSection, Int64s: cold.rep.Prefix.Sums()},
			}); err != nil {
				t.Fatal(err)
			}

			rebuilt := &child{spec: spec}
			if err := rebuilt.build(); err != nil {
				t.Fatal(err)
			}
			if rebuilt.warm {
				t.Fatalf("a snapshot fenced %v was warm-started", oldFence)
			}
			snap, err := colstore.OpenSnapshot(path)
			if err != nil {
				t.Fatal(err)
			}
			got := snap.Fence()
			snap.Close()
			if !reflect.DeepEqual(got, childFence(spec)) {
				t.Fatalf("rebuild left a snapshot fenced %v, want %v", got, childFence(spec))
			}

			warm := &child{spec: spec}
			if err := warm.build(); err != nil {
				t.Fatal(err)
			}
			defer warm.snap.Close()
			if !warm.warm {
				t.Fatal("the rewritten snapshot was not warm-started")
			}
			if w, r := warm.rep.Table.NumRows(), rebuilt.rep.Table.NumRows(); w != r {
				t.Fatalf("warm start holds %d records, rebuild %d", w, r)
			}
		})
	}
}
