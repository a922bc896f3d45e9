package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/leakcheck"
)

// TestBreakerHalfOpenConcurrentProbes pins the half-open single-probe
// contract under contention: with the cooldown elapsed, N goroutines racing
// allow() must admit exactly one probe — a thundering herd through a
// half-open breaker would re-stampede the backend the breaker exists to
// protect. Runs under -race in CI; the loop repeats the transition so the
// race detector sees many interleavings.
func TestBreakerHalfOpenConcurrentProbes(t *testing.T) {
	leakcheck.Check(t)
	const racers = 32
	for round := 0; round < 50; round++ {
		b := newBreaker(1, time.Millisecond)
		now := time.Unix(0, int64(round)*int64(time.Second))
		b.failure(now) // threshold 1: opens immediately
		probeAt := now.Add(2 * time.Millisecond)

		var admitted atomic.Int32
		var start, wg sync.WaitGroup
		start.Add(1)
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				if ok, _ := b.allow(probeAt); ok {
					admitted.Add(1)
				}
			}()
		}
		start.Done()
		wg.Wait()
		if n := admitted.Load(); n != 1 {
			t.Fatalf("round %d: %d probes admitted through the half-open breaker, want exactly 1", round, n)
		}

		// The losing racers must have been turned away with the cooldown as
		// the hint, and a failed probe must swing straight back to open for
		// everyone.
		b.failure(probeAt)
		var rejected atomic.Int32
		wg = sync.WaitGroup{}
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if ok, _ := b.allow(probeAt.Add(100 * time.Microsecond)); !ok {
					rejected.Add(1)
				}
			}()
		}
		wg.Wait()
		if n := rejected.Load(); n != racers {
			t.Fatalf("round %d: reopened breaker admitted %d requests inside cooldown", round, racers-n)
		}

		// A successful probe closes it for everyone.
		secondProbe := probeAt.Add(2 * time.Millisecond)
		if ok, _ := b.allow(secondProbe); !ok {
			t.Fatalf("round %d: second probe rejected", round)
		}
		b.success()
		var closed atomic.Int32
		wg = sync.WaitGroup{}
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if ok, _ := b.allow(secondProbe); ok {
					closed.Add(1)
				}
			}()
		}
		wg.Wait()
		if n := closed.Load(); n != racers {
			t.Fatalf("round %d: closed breaker rejected %d of %d requests", round, racers-int(n), racers)
		}
	}
}

func TestBreakerTripAndRecover(t *testing.T) {
	b := newBreaker(3, 100*time.Millisecond)
	now := time.Unix(0, 0)

	for i := 0; i < 3; i++ {
		if ok, _ := b.allow(now); !ok {
			t.Fatalf("closed breaker rejected request %d", i)
		}
		b.failure(now)
	}
	ok, ra := b.allow(now)
	if ok {
		t.Fatal("breaker did not open after threshold failures")
	}
	if ra < time.Second {
		t.Fatalf("retryAfter = %v, want >= 1s floor", ra)
	}

	// After the cooldown exactly one probe is admitted.
	later := now.Add(150 * time.Millisecond)
	if ok, _ := b.allow(later); !ok {
		t.Fatal("half-open breaker rejected the probe")
	}
	if ok, _ := b.allow(later); ok {
		t.Fatal("half-open breaker admitted a second probe")
	}

	// Probe failure reopens; probe success closes.
	b.failure(later)
	if ok, _ := b.allow(later.Add(50 * time.Millisecond)); ok {
		t.Fatal("reopened breaker admitted a request inside cooldown")
	}
	probe := later.Add(300 * time.Millisecond)
	if ok, _ := b.allow(probe); !ok {
		t.Fatal("second probe rejected")
	}
	b.success()
	if ok, _ := b.allow(probe); !ok {
		t.Fatal("closed breaker rejected after successful probe")
	}
	trips, rejects := b.stats()
	if trips != 2 {
		t.Fatalf("trips = %d, want 2", trips)
	}
	if rejects == 0 {
		t.Fatal("rejects not counted")
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := newBreaker(0, time.Second)
	for i := 0; i < 100; i++ {
		b.failure(time.Unix(0, 0))
	}
	if ok, _ := b.allow(time.Unix(0, 0)); !ok {
		t.Fatal("disabled breaker rejected")
	}
	var nilB *breaker
	if ok, _ := nilB.allow(time.Unix(0, 0)); !ok {
		t.Fatal("nil breaker rejected")
	}
	nilB.success()
	nilB.failure(time.Unix(0, 0))
}

// TestBreakerProbeResolvedOnEveryExit pins the probe-token rule: whichever
// way the half-open probe request ends — with or without a backend execution
// of its own — the breaker is not left waiting for a verdict that can never
// come. Each row trips the breaker on an always-erroring injector, heals it,
// waits out the cooldown and makes the probe one kind of request; afterwards
// the next request on the healthy backend must be served and /readyz must
// read 200. The shed and drain rows ask the breaker itself, while the queue
// is still full (the server still draining): there a later execution already
// in flight could otherwise resolve a leaked probe and mask it.
func TestBreakerProbeResolvedOnEveryExit(t *testing.T) {
	const (
		cooldown = 50 * time.Millisecond
		goodSQL  = "SELECT COUNT(*) FROM dataroad"
		tileURL  = "/v1/tiles?session=probe&key=0/0/0"
	)
	errAll := fault.Profile{Name: "err-all", ErrProb: 1}
	clean := fault.Profile{Name: "clean"}

	type env struct {
		srv *Server
		url string
		inj *fault.Injector
	}
	// do is safe off the test goroutine: it reports, never Fatals.
	do := func(t *testing.T, method, url string, body any) (int, string) {
		var rd io.Reader
		if body != nil {
			b, _ := json.Marshal(body)
			rd = bytes.NewReader(b)
		}
		req, _ := http.NewRequest(method, url, rd)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("%s %s: %v", method, url, err)
			return 0, ""
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	query := func(t *testing.T, e env, session, sql string) (int, string) {
		return do(t, http.MethodPost, e.url+"/v1/query", QueryRequest{Session: session, SQL: sql})
	}
	brush := func(t *testing.T, e env, seq int64) chan int {
		ch := make(chan int, 1)
		go func() {
			status, _ := do(t, http.MethodPost, e.url+"/v1/brush",
				BrushRequest{Session: "rider", Seq: seq, Ranges: brushRanges(8.2+float64(seq)*0.1, 10.5)})
			ch <- status
		}()
		return ch
	}
	waitFor := func(t *testing.T, what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	// block parks one task on the pool until the returned release runs (at
	// the latest in cleanup, ahead of the server's Drain).
	block := func(t *testing.T, e env) (release func()) {
		t.Helper()
		gate := make(chan struct{})
		var once sync.Once
		release = func() { once.Do(func() { close(gate) }) }
		t.Cleanup(release)
		if err := e.srv.admit(func() { <-gate }); err != nil {
			t.Fatalf("admit blocker: %v", err)
		}
		return release
	}
	// cool heals the backend and waits the breaker into half-open.
	cool := func(t *testing.T, e env) {
		t.Helper()
		if trips, _ := e.srv.brk.stats(); trips != 1 {
			t.Fatalf("breaker trips = %d, want 1", trips)
		}
		e.inj.SetProfile(clean)
		time.Sleep(cooldown + 5*time.Millisecond)
	}
	trip := func(t *testing.T, e env) {
		t.Helper()
		e.inj.SetProfile(errAll)
		for i := 0; i < 2; i++ {
			if status, body := query(t, e, "trip", goodSQL); status != http.StatusServiceUnavailable {
				t.Fatalf("tripping query %d: status %d, body %s", i, status, body)
			}
		}
		cool(t, e)
	}
	// nextAllowProbes asserts on the breaker directly that the probe is free
	// again, and puts back the one the assertion itself took.
	nextAllowProbes := func(t *testing.T, e env) {
		t.Helper()
		now := time.Now()
		if ok, _ := e.srv.brk.allow(now); !ok {
			t.Fatal("the probe ended without a verdict and the breaker still holds it in flight: every later request is rejected")
		}
		e.srv.brk.handBack(now)
	}

	for _, row := range []struct {
		name       string
		workers    int
		queueDepth int
		// probe trips the breaker and makes the half-open probe request; it
		// reports whether the server can still serve afterwards.
		probe func(t *testing.T, e env) (serving bool)
	}{
		{"cached tile", 2, 0, func(t *testing.T, e env) bool {
			if status, body := do(t, http.MethodGet, e.url+tileURL, nil); status != http.StatusOK {
				t.Fatalf("tile warm-up: status %d, body %s", status, body)
			}
			trip(t, e)
			if status, body := do(t, http.MethodGet, e.url+tileURL, nil); status != http.StatusOK {
				t.Fatalf("cached tile probe: status %d, body %s", status, body)
			}
			if hits := e.srv.Stats().TileCacheHits; hits != 1 {
				t.Fatalf("tile cache hits = %d, want 1 (the probe must not have executed)", hits)
			}
			return true
		}},
		{"shed 429", 1, 1, func(t *testing.T, e env) bool {
			trip(t, e)
			releaseRunning := block(t, e)
			waitFor(t, "the worker to take the first blocker", func() bool { return e.srv.inflight.Load() == 1 })
			releaseQueued := block(t, e)
			if status, body := query(t, e, "probe", goodSQL); status != http.StatusTooManyRequests {
				t.Fatalf("probe on a full queue: status %d, body %s, want 429", status, body)
			}
			nextAllowProbes(t, e)
			releaseRunning()
			releaseQueued()
			return true
		}},
		{"drain 503", 2, 0, func(t *testing.T, e env) bool {
			trip(t, e)
			drainForTest(t, e.srv)
			status, body := query(t, e, "probe", goodSQL)
			if status != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
				t.Fatalf("probe on a draining server: status %d, body %s, want 503 draining", status, body)
			}
			nextAllowProbes(t, e)
			return false
		}},
		{"coalesced brush rider", 1, 4, func(t *testing.T, e env) bool {
			// Queue [Q1 Q2 blocker B0] behind a running blocker, all admitted
			// with the breaker closed: the two queries trip it, the second
			// blocker holds B0's execution pending across the cooldown, and
			// the probe B1 rides it.
			releaseRunning := block(t, e)
			waitFor(t, "the worker to take the first blocker", func() bool { return e.srv.inflight.Load() == 1 })
			queued := func(n int) func() bool { return func() bool { return len(e.srv.queue) == n } }
			var tripped sync.WaitGroup
			for i := 1; i <= 2; i++ {
				tripped.Add(1)
				go func() {
					defer tripped.Done()
					if status, body := query(t, e, "trip", goodSQL); status != http.StatusServiceUnavailable {
						t.Errorf("tripping query: status %d, body %s", status, body)
					}
				}()
				waitFor(t, "a tripping query to queue", queued(i))
			}
			releaseQueued := block(t, e)
			b0 := brush(t, e, 0)
			waitFor(t, "B0's execution to queue", queued(4))
			e.inj.SetProfile(errAll)
			releaseRunning()
			tripped.Wait()
			cool(t, e)
			b1 := brush(t, e, 1)
			waitFor(t, "the probe to ride B0's pending execution", func() bool { return e.srv.Stats().Coalesced == 1 })
			releaseQueued()
			if s0, s1 := <-b0, <-b1; s0 != http.StatusOK || s1 != http.StatusOK {
				t.Fatalf("brush statuses %d (pending), %d (riding probe), want 200/200", s0, s1)
			}
			return true
		}},
		{"SQL 400", 2, 0, func(t *testing.T, e env) bool {
			trip(t, e)
			if status, body := query(t, e, "probe", "SELECT nope FROM dataroad"); status != http.StatusBadRequest {
				t.Fatalf("bad-SQL probe: status %d, body %s, want 400", status, body)
			}
			return true
		}},
		{"healthy query", 2, 0, func(t *testing.T, e env) bool {
			trip(t, e)
			if status, body := query(t, e, "probe", goodSQL); status != http.StatusOK {
				t.Fatalf("healthy probe: status %d, body %s", status, body)
			}
			return true
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			inj := fault.New(clean, 21)
			srv, ts := newTestServer(t, Config{
				Workers:          row.workers,
				QueueDepth:       row.queueDepth,
				Fault:            inj,
				MaxRetries:       -1, // no retries: each request is one failure
				BreakerThreshold: 2,
				BreakerCooldown:  cooldown,
			})
			e := env{srv: srv, url: ts.URL, inj: inj}
			if !row.probe(t, e) {
				return
			}
			if status, body := query(t, e, "next", goodSQL); status != http.StatusOK {
				t.Fatalf("request after the probe: status %d, body %s, want 200 from a healthy backend", status, body)
			}
			if status, body := do(t, http.MethodGet, e.url+"/readyz", nil); status != http.StatusOK {
				t.Fatalf("readyz after the probe: status %d, body %s", status, body)
			}
		})
	}
}
