package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/leakcheck"
	"repro/internal/obsv"
	"repro/internal/tracefmt"
)

// newChaosServer is newTestServer with a fault injector and robustness
// config under test control.
func newChaosServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServer(t, cfg)
}

// brushRanges builds a 3-dim ranges snapshot brushing only dimension 0.
func brushRanges(lo, hi float64) []*[2]float64 {
	return []*[2]float64{{lo, hi}, nil, nil}
}

// decodeBrush decodes a brush response body.
func decodeBrush(t *testing.T, body []byte) BrushResponse {
	t.Helper()
	var br BrushResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("brush response %s: %v", body, err)
	}
	return br
}

// TestBrushExactWhenBudgetAmple: with deadlines on, no faults, and a
// generous budget, every brush answers from the exact tier and nothing is
// marked degraded.
func TestBrushExactWhenBudgetAmple(t *testing.T) {
	srv, ts := newChaosServer(t, Config{
		Workers:   2,
		Deadlines: true,
		// Default DegradeAfter (constraint/2 = 250ms) dwarfs a 20k-row scan.
	})
	for seq := int64(0); seq < 3; seq++ {
		resp, body := postJSON(t, ts.URL+"/v1/brush", BrushRequest{
			Session: "ample", Seq: seq, Ranges: brushRanges(8.2+float64(seq)*0.01, 10.5),
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seq %d: status %d, body %s", seq, resp.StatusCode, body)
		}
		br := decodeBrush(t, body)
		if br.Tier != "exact" || br.Degraded {
			t.Fatalf("seq %d: tier %q degraded=%v, want exact/false", seq, br.Tier, br.Degraded)
		}
	}
	if st := srv.Stats(); st.Degraded != 0 || st.Deadlines != 0 {
		t.Fatalf("degraded=%d deadlines=%d, want 0/0", st.Degraded, st.Deadlines)
	}
}

// TestBrushDegradesUnderStall: an always-stalling backend blows the budget
// on every brush; the ladder answers with a partial sample marked degraded
// — bounded work inside the deadline instead of a 300ms stall served in
// full — and still carries the applied sequence.
func TestBrushDegradesUnderStall(t *testing.T) {
	stallAll := fault.New(fault.Profile{Name: "stall-all", StallProb: 1, StallDelay: 300 * time.Millisecond}, 11)
	srv, ts := newChaosServer(t, Config{
		Workers:          2,
		Deadlines:        true,
		DegradeAfter:     15 * time.Millisecond,
		Fault:            stallAll,
		BreakerThreshold: -1,
	})
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/brush", BrushRequest{
		Session: "stalled", Seq: 0, Ranges: brushRanges(8.2, 10.5),
	})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	br := decodeBrush(t, body)
	if br.Tier != "partial" || !br.Degraded {
		t.Fatalf("tier %q degraded=%v, want partial/true", br.Tier, br.Degraded)
	}
	if br.SampleFraction <= 0 || br.SampleFraction > 1 {
		t.Fatalf("sample fraction = %v", br.SampleFraction)
	}
	if br.AppliedSeq != 0 {
		t.Fatalf("applied seq = %d, want 0", br.AppliedSeq)
	}
	if br.Total <= 0 {
		t.Fatalf("degraded total = %d, want > 0", br.Total)
	}
	// The stall was cut at the deadline, not served in full.
	if elapsed > 200*time.Millisecond {
		t.Fatalf("degraded brush took %v: stall not cut by deadline", elapsed)
	}
	st := srv.Stats()
	if st.Degraded == 0 || st.Deadlines == 0 {
		t.Fatalf("degraded=%d deadlines=%d, want both > 0", st.Degraded, st.Deadlines)
	}
}

// TestBrushCacheTier: with the budget already blown, a brush whose exact
// ranges were answered before is served from the result cache — exact data,
// not marked degraded — whoever answers brushes; a negative BrushCacheSize
// turns that rung off for every answerer, and the ladder falls through to
// the partial tier.
func TestBrushCacheTier(t *testing.T) {
	leakcheck.Check(t)
	backends, err := RoadBackends(1, testRows, engine.ProfileMemory)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		planner  bool
		size     int
		wantTier string
		wantHits int64
	}{
		{"prefix/default", false, 0, "cache", 1},
		{"prefix/off", false, -1, "partial", 0},
		{"planner/default", true, 0, "cache", 1},
		{"planner/off", true, -1, "partial", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stallAll := fault.New(fault.Profile{Name: "stall-all", StallProb: 1, StallDelay: 300 * time.Millisecond}, 12)
			srv, err := New(backends, Config{
				Workers:          1,
				Deadlines:        true,
				DegradeAfter:     10 * time.Millisecond,
				Fault:            stallAll,
				BreakerThreshold: -1,
				Planner:          tc.planner,
				BrushCacheSize:   tc.size,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer drainForTest(t, srv)

			req := BrushRequest{Session: "cached", Seq: 7, Ranges: brushRanges(8.2, 10.5)}
			srv.cacheBrush(req, &BrushResponse{AppliedSeq: 3, Total: 42, Tier: "exact"})

			// earliest far in the past: the exact tier's budget is already blown.
			resp, err := srv.execBrushLadder(req, time.Now().Add(-time.Second), func(obsv.Stage) {})
			if err != nil {
				t.Fatal(err)
			}
			cached := tc.wantTier == "cache"
			if resp.Tier != tc.wantTier || resp.Degraded == cached {
				t.Fatalf("tier %q degraded=%v, want %s/%v", resp.Tier, resp.Degraded, tc.wantTier, !cached)
			}
			if resp.AppliedSeq != 7 {
				t.Fatalf("applied seq = %d, want the request's own 7", resp.AppliedSeq)
			}
			if cached && resp.Total != 42 {
				t.Fatalf("total = %d, want the cached 42", resp.Total)
			}
			if st := srv.Stats(); st.BrushCacheHits != tc.wantHits {
				t.Fatalf("brush cache hits = %d, want %d", st.BrushCacheHits, tc.wantHits)
			}
		})
	}
}

// TestQueryDegradesUnderStall: a histogram-shaped SQL query under an
// always-stalling backend comes back 200 with a scaled sample estimate
// instead of 503.
func TestQueryDegradesUnderStall(t *testing.T) {
	stallAll := fault.New(fault.Profile{Name: "stall-all", StallProb: 1, StallDelay: 300 * time.Millisecond}, 13)
	srv, ts := newChaosServer(t, Config{
		Workers:          2,
		Deadlines:        true,
		DegradeAfter:     15 * time.Millisecond,
		Fault:            stallAll,
		BreakerThreshold: -1,
	})
	resp, body := postJSON(t, ts.URL+"/v1/query", QueryRequest{
		Session: "sql", Seq: 0,
		SQL: "SELECT ROUND((y - 56) / 0.05), COUNT(*) FROM dataroad WHERE x >= 8.2 AND x <= 10.5 GROUP BY ROUND((y - 56) / 0.05) ORDER BY ROUND((y - 56) / 0.05)",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Degraded || qr.SampleFraction <= 0 {
		t.Fatalf("degraded=%v fraction=%v, want degraded sample", qr.Degraded, qr.SampleFraction)
	}
	if len(qr.Rows) == 0 {
		t.Fatal("degraded query returned no rows")
	}
	// The sample rung is part of the one admitted execution: it ran on the
	// pool worker, inside the execute stage, and was counted once.
	st := srv.Stats()
	if st.Executed != 1 || st.Stages["execute"].Count != 1 || st.Degraded != 1 || st.Deadlines != 1 {
		t.Fatalf("one degraded query: executed=%d execute spans=%d degraded=%d deadlines=%d, want 1 each",
			st.Executed, st.Stages["execute"].Count, st.Degraded, st.Deadlines)
	}
	if rec := srv.reg.tracer.Recent(); len(rec) != 1 || rec[0].Tier != "partial" || !rec[0].Visited(obsv.StageExecute) {
		t.Fatalf("trace of the degraded query: %+v", rec)
	}

	// A non-histogram query has no degraded tier: 503 with a retry hint.
	resp, _ = postJSON(t, ts.URL+"/v1/query", QueryRequest{
		Session: "sql", Seq: 1, SQL: "SELECT x, y FROM dataroad ORDER BY x, y LIMIT 5",
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("non-degradable query status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// TestBreakerOpensAndReadyzReports: consecutive injected errors trip the
// circuit breaker; further requests are rejected 503 + Retry-After at
// admission, /readyz reports not-ready while /healthz stays alive, and the
// half-open probe closes the breaker once the fault clears.
func TestBreakerOpensAndReadyzReports(t *testing.T) {
	errAll := fault.New(fault.Profile{Name: "err-all", ErrProb: 1}, 14)
	srv, ts := newChaosServer(t, Config{
		Workers:          2,
		Fault:            errAll,
		MaxRetries:       -1, // no retries: each request is one failure
		BreakerThreshold: 2,
		BreakerCooldown:  100 * time.Millisecond,
	})
	sql := "SELECT x, y FROM dataroad ORDER BY x, y LIMIT 5" // no degraded tier
	for seq := int64(0); seq < 2; seq++ {
		resp, _ := postJSON(t, ts.URL+"/v1/query", QueryRequest{Session: "trip", Seq: seq, SQL: sql})
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("seq %d: status %d, want 503", seq, resp.StatusCode)
		}
	}

	// Breaker open: rejected at admission with a retry hint.
	resp, body := postJSON(t, ts.URL+"/v1/query", QueryRequest{Session: "trip", Seq: 2, SQL: sql})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, body %s, want 503 from open breaker", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("breaker rejection without Retry-After")
	}
	st := srv.Stats()
	if st.BreakerTrips != 1 || st.BreakerRejects == 0 {
		t.Fatalf("trips=%d rejects=%d, want 1/>0", st.BreakerTrips, st.BreakerRejects)
	}

	// Liveness vs readiness split.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200 while breaker open", hz.StatusCode)
	}
	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rzBody struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(rz.Body).Decode(&rzBody); err != nil {
		t.Fatal(err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable || rzBody.Status != "breaker_open" {
		t.Fatalf("readyz = %d %q, want 503 breaker_open", rz.StatusCode, rzBody.Status)
	}

	// Fault clears; after the cooldown the half-open probe closes the
	// breaker and service resumes.
	errAll.SetProfile(fault.Profile{Name: "clean"})
	time.Sleep(120 * time.Millisecond)
	resp, body = postJSON(t, ts.URL+"/v1/query", QueryRequest{Session: "trip", Seq: 3, SQL: sql})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery status %d, body %s", resp.StatusCode, body)
	}
	rz2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rz2.Body.Close()
	if rz2.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery readyz = %d, want 200", rz2.StatusCode)
	}
}

// TestDrainFlushesPendingBrush: a brush parked behind an in-progress
// execution when Drain starts is flushed — answered 200 with its own seq —
// not dropped with a 503.
func TestDrainFlushesPendingBrush(t *testing.T) {
	srv, ts := newChaosServer(t, Config{Workers: 1, ExecDelay: 80 * time.Millisecond})

	type result struct {
		status int
		br     BrushResponse
	}
	post := func(seq int64) chan result {
		ch := make(chan result, 1)
		go func() {
			resp, body := postJSON(t, ts.URL+"/v1/brush", BrushRequest{
				Session: "flush", Seq: seq, Ranges: brushRanges(8.2+float64(seq)*0.05, 10.5),
			})
			r := result{status: resp.StatusCode}
			if resp.StatusCode == http.StatusOK {
				r.br = decodeBrush(t, body)
			}
			ch <- r
		}()
		return ch
	}

	first := post(0)
	time.Sleep(25 * time.Millisecond) // reaches the worker: session running
	second := post(1)                 // parks behind it, no fresh admission
	time.Sleep(10 * time.Millisecond)

	drainForTest(t, srv)

	r0, r1 := <-first, <-second
	if r0.status != http.StatusOK {
		t.Fatalf("in-flight brush status = %d, want 200", r0.status)
	}
	if r1.status != http.StatusOK {
		t.Fatalf("parked brush status = %d, want 200 (flushed, not dropped)", r1.status)
	}
	if r1.br.AppliedSeq != 1 {
		t.Fatalf("parked brush applied seq = %d, want 1", r1.br.AppliedSeq)
	}
}

// TestChaosLCVBound is the robustness acceptance test: under the stall
// fault profile, a fixed-cadence brushing workload must hold LCV at or
// under 5% with deadline-aware degradation, while the same workload and
// fault seed without deadlines blows past 20% — the paper's argument that
// a bounded-latency degraded answer beats an unbounded exact one.
func TestChaosLCVBound(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos LCV integration in -short mode")
	}
	stall, ok := fault.ProfileByName("stall")
	if !ok {
		t.Fatal("no stall profile")
	}

	const degradeAfter = 15 * time.Millisecond
	run := func(deadlines bool) Stats {
		srv, ts := newChaosServer(t, Config{
			Workers:          4,
			Deadlines:        deadlines,
			DegradeAfter:     degradeAfter,
			Fault:            fault.New(stall, 99),
			BreakerThreshold: -1, // isolate the deadline effect
		})
		const sessions, events = 4, 30
		const gap = 40 * time.Millisecond
		var wg sync.WaitGroup
		for u := 0; u < sessions; u++ {
			wg.Add(1)
			go func(u int) {
				defer wg.Done()
				session := "lcv-" + string(rune('a'+u))
				var rwg sync.WaitGroup
				for i := 0; i < events; i++ {
					req := BrushRequest{
						Session: session, Seq: int64(i),
						Ranges: brushRanges(8.2+float64(i)*0.01+float64(u)*0.002, 10.5),
					}
					rwg.Add(1)
					go func() {
						defer rwg.Done()
						resp, _ := postJSON(t, ts.URL+"/v1/brush", req)
						_ = resp
					}()
					time.Sleep(gap)
				}
				rwg.Wait()
			}(u)
		}
		wg.Wait()
		return srv.Stats()
	}

	withDeadlines := run(true)
	baseline := run(false)

	// Logged, not asserted: a stalled brush should cost its budget plus the
	// sample rung's microseconds, so p99 sits just above degradeAfter.
	t.Logf("deadlines on:  lcv=%d/%d (%.1f%%) degraded=%d deadline_exceeded=%d p99=%.1fms (budget %v)",
		withDeadlines.LCV, withDeadlines.Issued, 100*withDeadlines.LCVFraction,
		withDeadlines.Degraded, withDeadlines.Deadlines, withDeadlines.P99MS, degradeAfter)
	t.Logf("deadlines off: lcv=%d/%d (%.1f%%) p99=%.1fms",
		baseline.LCV, baseline.Issued, 100*baseline.LCVFraction, baseline.P99MS)

	if withDeadlines.LCVFraction > 0.05 {
		t.Errorf("deadline-aware LCV = %.1f%%, want <= 5%%", 100*withDeadlines.LCVFraction)
	}
	if baseline.LCVFraction < 0.20 {
		t.Errorf("baseline LCV = %.1f%%, want > 20%% (stall profile should collapse it)",
			100*baseline.LCVFraction)
	}
	if withDeadlines.Degraded == 0 {
		t.Error("deadline run never degraded: the ladder was not exercised")
	}
}

// drainForTest drains a server the test built directly (no httptest wrapper).
func drainForTest(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestChaosStallAttribution: with the chaos "stall" profile served in full
// (deadlines off — the baseline that eats the whole 900ms), a session
// pacing ahead of its stalled requests racks up LCV violations, and the
// tracer must attribute them to the execute stage: the stall happens
// inside the backend, and lcv_by_stage is what says so. This is the
// attribution acceptance check — before stage tracing, all an operator saw
// was the violation count.
func TestChaosStallAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos integration in -short mode")
	}
	stallProfile := fault.Profiles[2]
	if stallProfile.Name != "stall" {
		t.Fatalf("fault.Profiles[2] = %q, want the stall profile", stallProfile.Name)
	}
	srv, ts := newChaosServer(t, Config{
		// Enough workers that stalled requests occupy workers, not the
		// queue: the violation's time must land in execute, and the test
		// must not manufacture queue-dominant violations of its own.
		Workers:          16,
		QueueDepth:       64,
		Fault:            fault.New(stallProfile, 99),
		BreakerThreshold: -1,
	})
	// One session issues 40 queries 10ms apart: a stalled query (900ms) is
	// still in flight across many subsequent issues, so it is counted as a
	// violation; an unstalled one (~1ms) finishes before the next issue.
	const n = 40
	var wg sync.WaitGroup
	var transportErrs atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(seq int64) {
			defer wg.Done()
			body, _ := json.Marshal(QueryRequest{
				Session: "staller", Seq: seq,
				SQL: "SELECT COUNT(*) FROM dataroad WHERE x >= 9",
			})
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
			if err != nil {
				transportErrs.Add(1)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(int64(i))
		time.Sleep(10 * time.Millisecond)
	}
	wg.Wait()
	if transportErrs.Load() != 0 {
		t.Fatalf("%d transport errors", transportErrs.Load())
	}

	st := srv.Stats()
	if st.LCV == 0 {
		t.Fatal("stall run produced no LCV violations; pacing vs stall delay broke")
	}
	exec, ok := st.LCVByStage["execute"]
	if !ok || exec == 0 {
		t.Fatalf("lcv_by_stage lacks execute: %v", st.LCVByStage)
	}
	for stage, count := range st.LCVByStage {
		if stage != "execute" && count > exec {
			t.Errorf("lcv_by_stage[%s] = %d > execute's %d: stall not attributed to the backend",
				stage, count, exec)
		}
	}
	if es := st.Stages["execute"]; es.MaxMS < 500 {
		t.Errorf("execute stage max %.1fms, want >= 500ms (the stall must appear in the stage histogram)", es.MaxMS)
	}
	t.Logf("lcv=%d lcv_by_stage=%v execute p99=%.1fms", st.LCV, st.LCVByStage, st.Stages["execute"].P99MS)
}

// TestUnshapedStatementTracedAsExecute: a statement with no merge law runs
// on the served table, not on the partitions, so its engine run is the
// execute stage's, never the scatter stage's — whether or not the server is
// sharded. ExecDelay, spent after the run in the stage the run ended in,
// makes the attribution independent of how fast the engine is.
func TestUnshapedStatementTracedAsExecute(t *testing.T) {
	const delay = 20 * time.Millisecond
	for _, shards := range []int{1, 2} {
		_, ts := shardTestServer(t, 4000, shards, nil, Config{Workers: 1, ExecDelay: delay})
		resp, body := postJSON(t, ts.URL+"/v1/query", QueryRequest{
			Session: "s", SQL: "SELECT COUNT(*), SUM(x) FROM dataroad WHERE x >= 9",
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("S=%d: status %d: %s", shards, resp.StatusCode, body)
		}
		r, err := http.Get(ts.URL + "/v1/trace")
		if err != nil {
			t.Fatal(err)
		}
		recs, err := tracefmt.ReadTraceRecords(r.Body)
		r.Body.Close()
		if err != nil || len(recs) != 1 {
			t.Fatalf("S=%d: %d trace records, err %v", shards, len(recs), err)
		}
		st := recs[0].StagesMS
		if st["execute"] < float64(delay.Milliseconds()) || st["execute"] <= st["scatter"] {
			t.Fatalf("S=%d: stages %v: the unsharded run must be charged to execute", shards, st)
		}
	}
}
