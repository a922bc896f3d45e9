package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/datacube"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/leakcheck"
	"repro/internal/obsv"
	"repro/internal/opt"
	"repro/internal/oracle"
	"repro/internal/serve"
	"repro/internal/shard"
)

// TestMain is the child hook: when the supervisor re-execs this test binary
// with ChildEnv set, the process is a shard child, not a test run. This is
// what lets the whole fleet — parent and children — run under one -race
// build with no external binary to compile.
func TestMain(m *testing.M) {
	if ok, err := RunChildFromEnv(); ok {
		if err != nil {
			fmt.Fprintln(os.Stderr, "router child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const testRows = 20000

// One scatter contract, checked by the compiler: both transports are the
// serving layer's Gatherer.
var (
	_ serve.Gatherer = (*shard.Coordinator)(nil)
	_ serve.Gatherer = (*Fleet)(nil)
)

// oracleServer builds a single-process road server: at shards ≤ 1 the S=1
// server every differential test compares against, else one handed a
// coordinator over that many in-process partitions, as idevald -shards is.
func oracleServer(t *testing.T, shards int, scfg serve.Config) *httptest.Server {
	t.Helper()
	backends, err := serve.RoadBackends(1, testRows, engine.ProfileMemory)
	if err != nil {
		t.Fatal(err)
	}
	if shards > 1 {
		dims := backends.Cube.Dims()
		coord, err := shard.New(backends.Tiles, dims, shard.Options{Shards: shards, WithEngine: true})
		if err != nil {
			t.Fatal(err)
		}
		scfg.Gatherer, scfg.GatherDims, backends.Cube = coord, dims, nil
	}
	srv, err := serve.New(backends, scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		drain(t, srv)
	})
	return ts
}

// fleetServer builds a fleet and the serving frontend routed through it.
// Drain (via cleanup) closes the fleet, which kills and reaps the children;
// CheckChildren then asserts none leaked.
func fleetServer(t *testing.T, fcfg Config, scfg serve.Config) (*Fleet, *httptest.Server) {
	t.Helper()
	if fcfg.Rows == 0 {
		fcfg.Rows = testRows
	}
	if fcfg.Seed == 0 {
		fcfg.Seed = 1
	}
	fcfg.ChildStderr = os.Stderr
	f, err := New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := f.WaitReady(ctx); err != nil {
		f.Close()
		t.Fatal(err)
	}
	scfg.Gatherer = f
	scfg.GatherDims = f.Dims()
	srv, err := serve.New(serve.Backends{}, scfg)
	if err != nil {
		f.Close()
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		drain(t, srv) // Drain closes the Gatherer, i.e. the fleet
	})
	return f, ts
}

func drain(t *testing.T, srv *serve.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Error(err)
	}
}

func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// postQuery posts one /v1/query and returns the status and the body with
// model_ms zeroed: the one field that legitimately differs between an
// unsharded scan and S parallel partial scans.
func postQuery(t *testing.T, url, session string, seq int64, sql string) (int, []byte) {
	t.Helper()
	st, body := postJSON(t, url+"/v1/query", serve.QueryRequest{Session: session, Seq: seq, SQL: sql})
	if st != http.StatusOK {
		return st, body
	}
	var resp serve.QueryResponse
	err := json.Unmarshal(body, &resp)
	if err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	resp.ModelMS = 0
	if body, err = json.Marshal(resp); err != nil {
		t.Fatal(err)
	}
	return st, body
}

// histPairs reads a /v1/query body's rows as the (bin, count) pairs
// oracle.Histogram returns.
func histPairs(t *testing.T, body []byte) [][2]int64 {
	t.Helper()
	var resp serve.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	out := make([][2]int64, 0, len(resp.Rows))
	for _, r := range resp.Rows {
		bin, ok1 := r[0].(float64)
		count, ok2 := r[1].(float64)
		if len(r) != 2 || !ok1 || !ok2 {
			t.Fatalf("row %v is not a (bin, count) pair", r)
		}
		out = append(out, [2]int64{int64(bin), int64(count)})
	}
	return out
}

// randomHistogram draws one statement of the shape scan_shards replays: the
// paper's filtered histogram over a random target dimension.
func randomHistogram(t *testing.T, rng *rand.Rand) string {
	stmt, _, _ := drawHistogram(t, rng)
	return stmt
}

// drawHistogram is randomHistogram with the ranges and target it drew, the
// arguments oracle.Histogram answers the statement from.
func drawHistogram(t *testing.T, rng *rand.Rand) (string, [][2]float64, int) {
	t.Helper()
	dims := serve.RoadLoadDims()
	ranges := make([][2]float64, len(dims))
	for i, d := range dims {
		lo := d.Lo + rng.Float64()*(d.Hi-d.Lo)
		ranges[i] = [2]float64{lo, lo + rng.Float64()*(d.Hi-lo)}
	}
	target := rng.Intn(len(dims))
	stmt, err := opt.HistogramQuery("dataroad", dims, ranges, target, histBins)
	if err != nil {
		t.Fatal(err)
	}
	return stmt.String(), ranges, target
}

const (
	histBins          = 20
	emptyHistogram    = "SELECT ROUND((y - 56) / 0.05), COUNT(*) FROM dataroad WHERE x >= 1000 AND x <= 1001 GROUP BY ROUND((y - 56) / 0.05) ORDER BY ROUND((y - 56) / 0.05)"
	oneSidedHistogram = "SELECT ROUND((x - 8.146) / 0.2), COUNT(*) FROM dataroad WHERE y >= 57.1 GROUP BY ROUND((x - 8.146) / 0.2)"
	noMergeLaw        = "SELECT x, y FROM dataroad ORDER BY x, y LIMIT 5"
)

// randomRanges draws one brush filter state over the road dims.
func randomRanges(rng *rand.Rand) []*[2]float64 {
	dims := serve.RoadCubeDims()
	ranges := make([]*[2]float64, len(dims))
	for i, d := range dims {
		if rng.Intn(4) == 0 {
			continue
		}
		lo := d.Lo + rng.Float64()*(d.Hi-d.Lo)
		ranges[i] = &[2]float64{lo, lo + rng.Float64()*(d.Hi-lo)}
	}
	return ranges
}

// TestFleetMatchesSingleProcessOracle is the acceptance differential: the
// multi-process router at S ∈ {1, 2, 4} must answer every brush
// byte-identical to the single-process S=1 oracle, and every histogram-shaped
// /v1/query with the oracle's rows (and the rows -shards S answers) — full
// coverage is the exact answer, and merge-by-addition across process
// boundaries is the same merge as in-process. The random statements' rows
// must also equal internal/oracle's row-at-a-time answers, which share no
// binning code with any server. A statement with no merge law is the one
// thing the router, holding no unsharded table, cannot answer.
func TestFleetMatchesSingleProcessOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	leakcheck.Check(t)
	leakcheck.CheckChildren(t)
	single := oracleServer(t, 1, serve.Config{Workers: 2})
	served := dataset.Roads(1, testRows) // the table serve.RoadBackends serves

	for _, s := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("S%d", s), func(t *testing.T) {
			_, routed := fleetServer(t, Config{Shards: s}, serve.Config{Workers: 2})
			sharded := oracleServer(t, s, serve.Config{Workers: 2})
			rng := rand.New(rand.NewSource(int64(9000 + s)))
			session := fmt.Sprintf("diff-%d", s)
			for seq := int64(0); seq < 12; seq++ {
				req := serve.BrushRequest{Session: session, Seq: seq, Ranges: randomRanges(rng)}
				st1, body1 := postJSON(t, single.URL+"/v1/brush", req)
				st2, body2 := postJSON(t, routed.URL+"/v1/brush", req)
				if st1 != http.StatusOK || st2 != http.StatusOK {
					t.Fatalf("seq %d: status %d vs %d (%s)", seq, st1, st2, body2)
				}
				if !bytes.Equal(body1, body2) {
					t.Fatalf("seq %d: routed brush differs:\n%s\nvs oracle:\n%s", seq, body2, body1)
				}
			}

			stmts := []string{emptyHistogram, oneSidedHistogram}
			refs := map[string][][2]int64{} // the random statements' reference rows
			for i := 0; i < 8; i++ {
				stmt, ranges, target := drawHistogram(t, rng)
				stmts, refs[stmt] = append(stmts, stmt), oracle.Histogram(served, serve.RoadCubeDims(), ranges, target, histBins)
			}
			for i, sql := range stmts {
				seq := int64(100 + i)
				st1, want := postQuery(t, single.URL, session, seq, sql)
				st2, got := postQuery(t, routed.URL, session, seq, sql)
				st3, inproc := postQuery(t, sharded.URL, session, seq, sql)
				if st1 != http.StatusOK || st2 != http.StatusOK || st3 != http.StatusOK {
					t.Fatalf("%s: status %d (oracle) %d (routed: %s) %d (-shards)", sql, st1, st2, got, st3)
				}
				if !bytes.Equal(got, want) || !bytes.Equal(inproc, want) {
					t.Fatalf("%s:\nrouted   %s\n-shards  %s\noracle   %s", sql, got, inproc, want)
				}
				// The three servers share binning code; the reference shares none.
				if ref, ok := refs[sql]; ok && !reflect.DeepEqual(histPairs(t, got), ref) {
					t.Fatalf("%s:\nrouted    %s\nreference %v", sql, got, ref)
				}
			}
			if _, body := postQuery(t, single.URL, session, 200, emptyHistogram); !bytes.Contains(body, []byte(`"rows":[]`)) {
				t.Fatalf("the empty-result statement has rows: %s", body)
			}

			st1, want := postQuery(t, single.URL, session, 201, noMergeLaw)
			st2, got := postQuery(t, routed.URL, session, 201, noMergeLaw)
			st3, inproc := postQuery(t, sharded.URL, session, 201, noMergeLaw)
			if st1 != http.StatusOK || st3 != http.StatusOK || !bytes.Equal(inproc, want) {
				t.Fatalf("non-histogram statement: oracle %d %s, -shards %d %s", st1, want, st3, inproc)
			}
			if st2 != http.StatusNotImplemented || !bytes.Contains(got, []byte("no merge law")) {
				t.Fatalf("non-histogram statement on the router: %d %s, want 501 saying why", st2, got)
			}
			if st, body := postJSON(t, routed.URL+"/v1/query", serve.QueryRequest{Session: session, Seq: 202, SQL: "SELEC x"}); st != http.StatusBadRequest {
				t.Fatalf("unparsable statement on the router: %d %s, want 400", st, body)
			}
			resp, err := http.Get(routed.URL + "/v1/tiles?session=" + session + "&key=7/66/38")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotImplemented {
				t.Fatalf("/v1/tiles on the router: %d, want 501", resp.StatusCode)
			}
		})
	}
}

// TestFleetKillPartialThenRestartExact is the robustness acceptance: kill a
// shard child mid-run and the very next brush is a degraded partial whose
// covered fraction is exactly the surviving shard's record share — not
// approximately, exactly, because coverage accounting is record-based. When
// the supervisor restarts the child and it re-fences onto its partition,
// the next brush is exact again.
func TestFleetKillPartialThenRestartExact(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	leakcheck.Check(t)
	leakcheck.CheckChildren(t)
	f, ts := fleetServer(t,
		Config{Shards: 2, BackoffBase: 20 * time.Millisecond, BackoffCap: 100 * time.Millisecond},
		// BrushCacheSize -1: no cache tier, so a partial gather MUST surface
		// as the partial tier instead of hiding behind a cached exact hit.
		serve.Config{Workers: 2, Deadlines: true, DegradeAfter: 2 * time.Second, BrushCacheSize: -1})

	rng := rand.New(rand.NewSource(42))
	ranges := randomRanges(rng)
	brush := func(seq int64) serve.BrushResponse {
		st, body := postJSON(t, ts.URL+"/v1/brush",
			serve.BrushRequest{Session: "kill", Seq: seq, Ranges: ranges})
		if st != http.StatusOK {
			t.Fatalf("seq %d: status %d: %s", seq, st, body)
		}
		var resp serve.BrushResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	before := brush(0)
	if before.Degraded || before.Tier != "exact" {
		t.Fatalf("healthy fleet answered tier %q degraded=%v", before.Tier, before.Degraded)
	}

	// SIGKILL shard 1's only replica and wait for the supervisor to notice
	// (so the leg is skipped as down, not left to hang in the dead child's
	// listener backlog — that path is the chaos test's job).
	pid := f.ReplicaPID(1, 0)
	if pid == 0 {
		t.Fatal("shard 1 has no pid")
	}
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	waitState(t, f, 1, 0, func(s State) bool { return s != StateReady })

	during := brush(1)
	if !during.Degraded || during.Tier != "partial" {
		t.Fatalf("brush with shard 1 dead: tier %q degraded=%v", during.Tier, during.Degraded)
	}
	want := float64(f.ShardRecords(0)) / float64(f.ShardRecords(0)+f.ShardRecords(1))
	if during.SampleFraction != want {
		t.Fatalf("covered fraction %v, want exactly %v", during.SampleFraction, want)
	}

	// The supervisor restarts the child; the rebuilt partition must be the
	// same records, so the answer snaps back to exact — identical to before.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := f.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	after := brush(2)
	if after.Degraded || after.Tier != "exact" {
		t.Fatalf("post-restart brush: tier %q degraded=%v", after.Tier, after.Degraded)
	}
	if after.Total != before.Total || fmt.Sprint(after.Histograms) != fmt.Sprint(before.Histograms) {
		t.Fatalf("post-restart answer differs from pre-kill exact answer")
	}
	if got := f.Stats().Restarts; got < 1 {
		t.Fatalf("restarts = %d, want >= 1", got)
	}

	// The query leg, by the same rules: a histogram statement with shard 1
	// dead is the surviving shard's rows scaled, degraded with exactly its
	// record share, and exact again — the pre-kill rows — after the restart.
	query := func(seq int64) serve.QueryResponse {
		st, body := postQuery(t, ts.URL, "kill", seq, oneSidedHistogram)
		if st != http.StatusOK {
			t.Fatalf("query seq %d: status %d: %s", seq, st, body)
		}
		var resp serve.QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	qBefore := query(3)
	if qBefore.Degraded || len(qBefore.Rows) == 0 {
		t.Fatalf("healthy fleet answered the query degraded=%v with %d rows", qBefore.Degraded, len(qBefore.Rows))
	}
	if err := syscall.Kill(f.ReplicaPID(1, 0), syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	waitState(t, f, 1, 0, func(s State) bool { return s != StateReady })
	qDuring := query(4)
	if !qDuring.Degraded || qDuring.SampleFraction != want {
		t.Fatalf("query with shard 1 dead: degraded=%v fraction %v, want exactly %v", qDuring.Degraded, qDuring.SampleFraction, want)
	}
	if err := f.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	if qAfter := query(5); qAfter.Degraded || fmt.Sprint(qAfter.Rows) != fmt.Sprint(qBefore.Rows) {
		t.Fatalf("post-restart query (degraded=%v) differs from the pre-kill exact answer:\n%v\nvs\n%v",
			qAfter.Degraded, qAfter.Rows, qBefore.Rows)
	}
}

// TestFleetHedgesAroundSlowReplica: with two replicas per shard, a
// blackholed (alive but unresponsive) affinity replica must not stall the
// gather — after HedgeAfter the leg races a sibling and the answer is still
// exact and arrives while the blackhole is in force. The blackholed replica
// keeps answering its probes, so it stays ready throughout: slow, not dead.
func TestFleetHedgesAroundSlowReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	leakcheck.Check(t)
	leakcheck.CheckChildren(t)
	f, ts := fleetServer(t,
		Config{Shards: 1, Replicas: 2, HedgeAfter: 10 * time.Millisecond, RPCTimeout: 30 * time.Second},
		serve.Config{Workers: 2})
	// WaitReady is per shard — one serving replica is enough — but a hedge
	// needs both: the affinity replica to be routed to and the sibling to
	// hedge to.
	waitAllReady(t, f)

	const session = "hedge"
	aff := f.AffinityReplica(0, session)
	const hold = time.Minute // outlives the test; Close kills the child holding it
	blackhole(t, f, 0, aff, hold)

	rng := rand.New(rand.NewSource(7))
	start := time.Now()
	st, body := postJSON(t, ts.URL+"/v1/brush",
		serve.BrushRequest{Session: session, Seq: 0, Ranges: randomRanges(rng)})
	elapsed := time.Since(start)
	if st != http.StatusOK {
		t.Fatalf("status %d: %s", st, body)
	}
	var br serve.BrushResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Degraded {
		t.Fatalf("hedged gather degraded: %s", body)
	}
	if elapsed >= hold {
		t.Fatalf("hedged gather took %v — waited out the blackhole instead of hedging", elapsed)
	}
	stats := f.Stats()
	if stats.Hedges < 1 || stats.HedgeWins < 1 {
		t.Fatalf("hedges=%d hedge_wins=%d, want both >= 1", stats.Hedges, stats.HedgeWins)
	}
	if got := f.reps[0][aff].getState(); got != StateReady {
		t.Fatalf("blackholed replica is %v, want ready: the blackhole must not starve its probes", got)
	}
	if stats.Restarts != 0 {
		t.Fatalf("restarts = %d: the supervisor killed a replica that was only slow", stats.Restarts)
	}
}

// TestFleetKillInFlightFailsOver: one replica's connection error must never
// fail a gather while a sibling is ready. The affinity replica is SIGKILLed
// with the leg's call in flight on its connection and the hedge timer
// nowhere near firing; the dead connection fails the call at once and the
// leg fails over to the sibling — exact answer, no 5xx.
func TestFleetKillInFlightFailsOver(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	leakcheck.Check(t)
	leakcheck.CheckChildren(t)
	oracle := oracleServer(t, 1, serve.Config{Workers: 2})
	f, ts := fleetServer(t,
		Config{Shards: 1, Replicas: 2, HedgeAfter: time.Hour, RPCTimeout: 30 * time.Second},
		serve.Config{Workers: 2})
	waitAllReady(t, f)

	const session = "killinflight"
	aff := f.AffinityReplica(0, session)
	rng := rand.New(rand.NewSource(21))
	// A first brush establishes the affinity replica's data connection, so
	// the next call rides a connection the doomed child has accepted.
	req := serve.BrushRequest{Session: session, Seq: 0, Ranges: randomRanges(rng)}
	if st, body := postJSON(t, ts.URL+"/v1/brush", req); st != http.StatusOK {
		t.Fatalf("warm-up brush: status %d: %s", st, body)
	}
	blackhole(t, f, 0, aff, time.Minute)
	killed := make(chan error, 1)
	go func() { killed <- killWhenInFlight(f, 0, aff) }()

	req = serve.BrushRequest{Session: session, Seq: 1, Ranges: randomRanges(rng)}
	st, body := postJSON(t, ts.URL+"/v1/brush", req)
	if err := <-killed; err != nil {
		t.Fatal(err)
	}
	if st != http.StatusOK {
		t.Fatalf("brush with its primary killed in flight: status %d: %s", st, body)
	}
	if _, want := postJSON(t, oracle.URL+"/v1/brush", req); !bytes.Equal(body, want) {
		t.Fatalf("failed-over brush differs:\n%s\nvs oracle:\n%s", body, want)
	}
	stats := f.Stats()
	if stats.Hedges < 1 || stats.HedgeWins < 1 {
		t.Fatalf("hedges=%d hedge_wins=%d, want both >= 1", stats.Hedges, stats.HedgeWins)
	}

	// The query leg: the same failure with a histogram call in flight, once
	// the supervisor has seen the first kill and brought that replica back
	// (its state may still read ready for a moment after the SIGKILL). Its
	// affinity is by statement, so the doomed replica is the statement's.
	if err := waitFor(f, "the killed replica's next generation", func() bool {
		h := f.reps[0][aff].health()
		return h.Generation >= 2 && h.State == StateReady.String()
	}); err != nil {
		t.Fatal(err)
	}
	waitAllReady(t, f)
	aff = f.AffinityReplica(0, oneSidedHistogram)
	if st, body := postQuery(t, ts.URL, session, 2, emptyHistogram); st != http.StatusOK {
		t.Fatalf("warm-up query: status %d: %s", st, body)
	}
	if st, body := postQuery(t, ts.URL, session, 3, oneSidedHistogram); st != http.StatusOK {
		t.Fatalf("warm-up query: status %d: %s", st, body)
	}
	blackhole(t, f, 0, aff, time.Minute)
	go func() { killed <- killWhenInFlight(f, 0, aff) }()
	st, body = postQuery(t, ts.URL, session, 4, oneSidedHistogram)
	if err := <-killed; err != nil {
		t.Fatal(err)
	}
	if st != http.StatusOK {
		t.Fatalf("query with its primary killed in flight: status %d: %s", st, body)
	}
	if _, want := postQuery(t, oracle.URL, session, 4, oneSidedHistogram); !bytes.Equal(body, want) {
		t.Fatalf("failed-over query differs:\n%s\nvs oracle:\n%s", body, want)
	}
	if after := f.Stats(); after.Hedges <= stats.Hedges || after.HedgeWins <= stats.HedgeWins {
		t.Fatalf("hedges %d -> %d, hedge wins %d -> %d: the query leg did not fail over",
			stats.Hedges, after.Hedges, stats.HedgeWins, after.HedgeWins)
	}
}

// TestFleetRedialsAfterKill: SIGKILL fails the dead child's pending calls
// at once (not at their deadline), the supervisor restarts it, and the
// first call afterwards redials the same address and is byte-exact again.
func TestFleetRedialsAfterKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	leakcheck.Check(t)
	leakcheck.CheckChildren(t)
	f, _ := fleetServer(t,
		Config{Shards: 1, BackoffBase: 20 * time.Millisecond, BackoffCap: 100 * time.Millisecond, RPCTimeout: 30 * time.Second},
		serve.Config{Workers: 2})

	filters := randomFilters(rand.New(rand.NewSource(33)))
	scatter := func() (*shard.Answer, error) {
		g, err := f.ScatterBrush(context.Background(), "redial", filters)
		if err != nil {
			return nil, err
		}
		return g.Answers[0], g.Errs[0]
	}
	before, err := scatter()
	if err != nil {
		t.Fatal(err)
	}

	blackhole(t, f, 0, 0, time.Minute)
	killed := make(chan error, 1)
	go func() { killed <- killWhenInFlight(f, 0, 0) }()
	_, err = scatter()
	if kerr := <-killed; kerr != nil {
		t.Fatal(kerr)
	}
	if err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call pending on a killed child: err = %v, want its connection's failure", err)
	}

	waitState(t, f, 0, 0, func(s State) bool { return s != StateReady })
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := f.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	after, err := scatter()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("post-restart answer differs:\n%+v\nvs pre-kill:\n%+v", after, before)
	}
	stats := f.Stats()
	if stats.Redials < 1 || stats.Restarts < 1 {
		t.Fatalf("redials=%d restarts=%d, want both >= 1", stats.Redials, stats.Restarts)
	}
}

// TestFrameMuxConcurrent: many goroutines share one replica's connection;
// each must get its own answer — checked against a serial prefix cube built
// here — and calls abandoned at their deadline are dropped by id, their
// late replies discarded without disturbing the calls that follow.
func TestFrameMuxConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	leakcheck.Check(t)
	leakcheck.CheckChildren(t)
	f, _ := fleetServer(t, Config{Shards: 1, RPCTimeout: 30 * time.Second}, serve.Config{Workers: 2})
	dims := serve.RoadCubeDims()
	oracle, err := datacube.BuildPrefix(dataset.Roads(1, testRows), dims, 1)
	if err != nil {
		t.Fatal(err)
	}
	check := func(ctx context.Context, session string, filters []*datacube.Range) error {
		g, err := f.ScatterBrush(ctx, session, filters)
		if err != nil {
			return err
		}
		if g.Errs[0] != nil {
			return g.Errs[0]
		}
		ans := g.Answers[0]
		total, err := oracle.Count(filters)
		if err != nil {
			return err
		}
		if ans.Total != total || ans.Records != testRows {
			return fmt.Errorf("total %d records %d, want %d and %d", ans.Total, ans.Records, total, testRows)
		}
		for i := range dims {
			want, err := oracle.Histogram(i, filters)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(ans.Histograms[i], want) {
				return fmt.Errorf("dimension %d: got another call's histogram? %v, want %v", i, ans.Histograms[i], want)
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + g)))
			for i := 0; i < 25; i++ {
				if err := check(context.Background(), fmt.Sprintf("mux-%d", g), randomFilters(rng)); err != nil {
					t.Errorf("goroutine %d call %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := f.Stats().RPCs; got != 32*25 {
		t.Fatalf("rpcs = %d, want %d", got, 32*25)
	}

	// Cancellation: every call below gives up while the child still holds
	// its frame; each must leave the pending table as it found it.
	const hold = 300 * time.Millisecond
	blackhole(t, f, 0, 0, hold)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), hold/10)
			defer cancel()
			err := check(ctx, "cancel", randomFilters(rand.New(rand.NewSource(int64(g)))))
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("held call %d: err = %v, want deadline exceeded", g, err)
			}
		}(g)
	}
	wg.Wait()
	if n := pendingCalls(f, 0, 0); n != 0 {
		t.Fatalf("%d calls still pending after every caller gave up", n)
	}
	// The child now answers the eight abandoned ids; the next call's answer
	// arrives behind them on the same connection and must still be its own.
	if err := check(context.Background(), "after", randomFilters(rand.New(rand.NewSource(99)))); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().Redials; got != 0 {
		t.Fatalf("redials = %d: dropped calls must not cost the connection", got)
	}
}

// TestFleetRPCMetricsExposed: the data plane's RPC and child-service
// latencies surface through serve — under "router" in the JSON stats and as
// two histograms in a well-formed Prometheus exposition.
func TestFleetRPCMetricsExposed(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	leakcheck.Check(t)
	leakcheck.CheckChildren(t)
	_, ts := fleetServer(t, Config{Shards: 2, Rows: 5000}, serve.Config{Workers: 2, BrushCacheSize: -1})
	rng := rand.New(rand.NewSource(5))
	const brushes = 6
	for seq := int64(0); seq < brushes; seq++ {
		if st, body := postJSON(t, ts.URL+"/v1/brush",
			serve.BrushRequest{Session: "metrics", Seq: seq, Ranges: randomRanges(rng)}); st != http.StatusOK {
			t.Fatalf("seq %d: status %d: %s", seq, st, body)
		}
	}

	get := func(path string) []byte {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	var st struct {
		Router *Stats `json:"router"`
	}
	if err := json.Unmarshal(get("/metrics"), &st); err != nil {
		t.Fatal(err)
	}
	if st.Router == nil {
		t.Fatal(`JSON stats carry no "router" section`)
	}
	if r := st.Router; r.RPCs != 2*brushes || r.Redials != 0 || r.RPCP50US <= 0 || r.ChildServiceP50US <= 0 {
		t.Fatalf("router stats %+v: want %d rpcs, no redials, positive rpc and child service p50", *r, 2*brushes)
	}

	body := get("/metrics?format=prometheus")
	if err := obsv.ValidateExposition(body); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	for _, want := range []string{
		fmt.Sprintf("idevald_router_rpc_seconds_count %d\n", 2*brushes),
		fmt.Sprintf("idevald_router_child_service_seconds_count %d\n", 2*brushes),
		`idevald_router_rpc_seconds_bucket{le="+Inf"}`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestFleetCrashLoopGoesDark: a replica whose child can never come up must
// stop hot-looping — after DarkAfter consecutive crashes the supervisor
// parks it dark and the fleet reports not-ready instead of burning CPU on
// doomed respawns.
func TestFleetCrashLoopGoesDark(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	leakcheck.Check(t)
	leakcheck.CheckChildren(t)
	f, err := New(Config{
		Shards:      1,
		Rows:        1000,
		Seed:        1,
		ChildArgs:   []string{"/bin/false"}, // exits 1 instantly, every time
		BackoffBase: 2 * time.Millisecond,
		BackoffCap:  10 * time.Millisecond,
		DarkAfter:   3,
		DarkRetry:   time.Hour, // park firmly; the test asserts the parked state
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)

	waitState(t, f, 0, 0, func(s State) bool { return s == StateDark })
	if ready, _ := f.Health(); ready {
		t.Fatal("fleet with a dark shard reports ready")
	}
	if got := f.Stats().Darks; got < 1 {
		t.Fatalf("dark events = %d, want >= 1", got)
	}
	if _, err := f.ScatterBrush(context.Background(), "s", nil); err == nil {
		t.Fatal("ScatterBrush on a never-ready fleet must error, not fabricate coverage")
	}
	h := f.reps[0][0].health()
	if h.State != "dark" || h.LastError == "" {
		t.Fatalf("dark replica health = %+v", h)
	}
}

// TestFleetReadyzPerShardHealth: /readyz on a fleet-backed server embeds
// the per-shard supervision breakdown — state, pid, generation, failure
// counters, last transition — and flips to 503 with status shard_down when
// a shard loses its last serving replica.
func TestFleetReadyzPerShardHealth(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	leakcheck.Check(t)
	leakcheck.CheckChildren(t)
	f, ts := fleetServer(t,
		Config{Shards: 2, Rows: 5000, BackoffBase: 250 * time.Millisecond, BackoffCap: time.Second},
		serve.Config{Workers: 2})

	readyz := func() (int, string, []ReplicaHealth) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Status string          `json:"status"`
			Shards []ReplicaHealth `json:"shards"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body.Status, body.Shards
	}

	st, status, shards := readyz()
	if st != http.StatusOK || status != "ready" {
		t.Fatalf("healthy readyz: %d %q", st, status)
	}
	if len(shards) != 2 {
		t.Fatalf("want 2 replica entries, got %d", len(shards))
	}
	for i, h := range shards {
		if h.Shard != i || h.State != "ready" || h.PID == 0 || h.Generation < 1 ||
			h.Records == 0 || h.LastTransition.IsZero() {
			t.Fatalf("replica %d health incomplete: %+v", i, h)
		}
	}

	// Kill shard 0 and catch readyz while it is down: 503, shard_down, and
	// the breakdown says exactly which replica is out and why.
	if err := syscall.Kill(f.ReplicaPID(0, 0), syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	waitState(t, f, 0, 0, func(s State) bool { return s != StateReady })
	st, status, shards = readyz()
	if st != http.StatusServiceUnavailable || status != "shard_down" {
		t.Fatalf("readyz with shard 0 down: %d %q", st, status)
	}
	if shards[0].State == "ready" {
		t.Fatalf("down replica still reported ready: %+v", shards[0])
	}
}

// TestFleetChaosScheduleRecovers runs the deterministic prockill schedule
// against a live fleet while brush traffic flows: every response must be
// well-formed (exact or honestly degraded, never a hang), and once the
// schedule drains and the supervisor re-fences the children, answers are
// exact again.
func TestFleetChaosScheduleRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	leakcheck.Check(t)
	leakcheck.CheckChildren(t)
	f, ts := fleetServer(t,
		Config{Shards: 2, BackoffBase: 20 * time.Millisecond, BackoffCap: 100 * time.Millisecond},
		serve.Config{Workers: 2, Deadlines: true, DegradeAfter: 300 * time.Millisecond, BrushCacheSize: -1})

	rng := rand.New(rand.NewSource(3))
	ranges := randomRanges(rng)
	exact := func(seq int64) serve.BrushResponse {
		st, body := postJSON(t, ts.URL+"/v1/brush",
			serve.BrushRequest{Session: "chaos", Seq: seq, Ranges: ranges})
		if st != http.StatusOK {
			t.Fatalf("seq %d: status %d: %s", seq, st, body)
		}
		var resp serve.BrushResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	before := exact(0)
	if before.Degraded {
		t.Fatal("healthy fleet degraded")
	}

	profile, ok := fault.ProcProfileByName("prockill")
	if !ok {
		t.Fatal("prockill profile missing")
	}
	events := profile.Schedule(11, 2, 1300*time.Millisecond)
	if len(events) == 0 {
		t.Fatal("empty chaos schedule")
	}
	done := make(chan ChaosReport, 1)
	go func() { done <- f.RunChaos(context.Background(), events) }()

	// Brush through the storm. Some answers are exact, some degraded
	// partials, and a fully-uncovered instant may 500 — but nothing hangs
	// past the deadline budget and nothing panics.
	seq := int64(1)
	deadline := time.Now().Add(1500 * time.Millisecond)
	for time.Now().Before(deadline) {
		st, body := postJSON(t, ts.URL+"/v1/brush",
			serve.BrushRequest{Session: "chaos", Seq: seq, Ranges: ranges})
		if st != http.StatusOK && st < 500 {
			t.Fatalf("seq %d: unexpected status %d: %s", seq, st, body)
		}
		seq++
		time.Sleep(40 * time.Millisecond)
	}
	report := <-done
	if report.Kills < 1 {
		t.Fatalf("chaos report %+v: want at least one kill", report)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := f.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	after := exact(seq)
	if after.Degraded || after.Total != before.Total {
		t.Fatalf("post-chaos answer not exact: degraded=%v total=%d want %d",
			after.Degraded, after.Total, before.Total)
	}
	if got := f.Stats().Restarts; got < 1 {
		t.Fatalf("restarts = %d, want >= 1 after kills", got)
	}
}

// TestFleetChaosStopResumes: RunChaos pairs every SIGSTOP with a SIGCONT
// before it returns, so a frozen child thaws instead of being probed to
// death — the same process (no restart) answers the next brush exactly.
func TestFleetChaosStopResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	leakcheck.Check(t)
	leakcheck.CheckChildren(t)
	f, ts := fleetServer(t, Config{Shards: 2}, serve.Config{Workers: 2})
	req := serve.BrushRequest{Session: "stop", Ranges: randomRanges(rand.New(rand.NewSource(5)))}
	_, before := postJSON(t, ts.URL+"/v1/brush", req)

	report := f.RunChaos(context.Background(), []fault.ProcEvent{{Shard: 0, Kind: fault.ProcStop}})
	if report.Stops != 1 {
		t.Fatalf("chaos report %+v: want one stop", report)
	}
	req.Session = "stop-after" // a fresh session, so applied_seq matches too
	st, after := postJSON(t, ts.URL+"/v1/brush", req)
	if st != http.StatusOK || !bytes.Equal(after, before) {
		t.Fatalf("brush after stop+cont: status %d\n%s\nwant\n%s", st, after, before)
	}
	if got := f.Stats().Restarts; got != 0 {
		t.Fatalf("restarts = %d: the stopped child was not resumed", got)
	}
}

// waitFor blocks until cond holds, re-checking at every supervision
// transition; the ticker covers conditions no transition announces (a call
// becoming pending).
func waitFor(f *Fleet, what string, cond func() bool) error {
	deadline := time.NewTimer(30 * time.Second)
	defer deadline.Stop()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		changed := f.stateChanged()
		if cond() {
			return nil
		}
		select {
		case <-changed:
		case <-tick.C:
		case <-deadline.C:
			return fmt.Errorf("timed out waiting for %s", what)
		}
	}
}

// waitState blocks until a replica's supervision state satisfies cond.
func waitState(t *testing.T, f *Fleet, shard, idx int, cond func(State) bool) {
	t.Helper()
	rep := f.reps[shard][idx]
	if err := waitFor(f, fmt.Sprintf("replica %d/%d", shard, idx), func() bool { return cond(rep.getState()) }); err != nil {
		t.Fatalf("%v: stuck in %v", err, rep.getState())
	}
}

// waitAllReady blocks until every replica of every shard is serving —
// stricter than WaitReady, which is satisfied by one replica per shard.
func waitAllReady(t *testing.T, f *Fleet) {
	t.Helper()
	for s, row := range f.reps {
		for i := range row {
			waitState(t, f, s, i, func(st State) bool { return st == StateReady })
		}
	}
}

// blackhole arms a replica's data-plane hold through its control plane.
func blackhole(t *testing.T, f *Fleet, shard, idx int, hold time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.blackhole(ctx, f.reps[shard][idx], hold); err != nil {
		t.Fatal(err)
	}
}

// pendingCalls counts the calls awaiting a reply on a replica's connection.
func pendingCalls(f *Fleet, shard, idx int) int {
	c := f.reps[shard][idx].data
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// killWhenInFlight SIGKILLs a replica's child once a call is pending on its
// connection. It runs beside the test goroutine that makes the call, so it
// reports instead of failing the test itself.
func killWhenInFlight(f *Fleet, shard, idx int) error {
	if err := waitFor(f, "a call in flight", func() bool { return pendingCalls(f, shard, idx) > 0 }); err != nil {
		return err
	}
	return syscall.Kill(f.ReplicaPID(shard, idx), syscall.SIGKILL)
}

// randomFilters is randomRanges in the gatherer's own form.
func randomFilters(rng *rand.Rand) []*datacube.Range {
	ranges := randomRanges(rng)
	filters := make([]*datacube.Range, len(ranges))
	for i, rg := range ranges {
		if rg != nil {
			filters[i] = &datacube.Range{Lo: rg[0], Hi: rg[1]}
		}
	}
	return filters
}
