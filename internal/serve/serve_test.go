package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datacube"
	"repro/internal/engine"
	"repro/internal/leakcheck"
	"repro/internal/tracefmt"
)

// testRows keeps unit-test datasets small and fast.
const testRows = 20000

// newTestServer builds a road-backed server plus an httptest frontend.
// Every test through here doubles as a goroutine-leak check: leakcheck is
// registered before the server cleanup, so it runs after Drain and asserts
// the worker pool actually exited.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	leakcheck.Check(t)
	backends, err := RoadBackends(1, testRows, engine.ProfileMemory)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(backends, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestQueryHandler(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})

	resp, body := postJSON(t, ts.URL+"/v1/query", QueryRequest{
		Session: "s1", Seq: 0, SQL: "SELECT COUNT(*) FROM dataroad",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 1 || len(qr.Rows[0]) != 1 {
		t.Fatalf("rows = %v", qr.Rows)
	}
	if got := qr.Rows[0][0].(float64); got != testRows {
		t.Errorf("COUNT(*) = %v, want %d", got, testRows)
	}

	// Bad SQL is a 400, not a 500 or a hang.
	resp, _ = postJSON(t, ts.URL+"/v1/query", QueryRequest{Session: "s1", Seq: 1, SQL: "SELECT FROM"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad SQL status = %d", resp.StatusCode)
	}

	st := srv.Stats()
	if st.Issued != 2 || st.Executed != 2 {
		t.Errorf("issued %d executed %d, want 2/2", st.Issued, st.Executed)
	}
	if st.Errors != 1 {
		t.Errorf("errors = %d, want 1", st.Errors)
	}
}

func TestBrushHandlerMatchesCube(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	// The dense-cube oracle: the same dataset the server was built over.
	oracle, err := RoadBackends(1, testRows, engine.ProfileMemory)
	if err != nil {
		t.Fatal(err)
	}
	cube := oracle.Cube

	lo, hi := 9.0, 10.5
	ranges := []*[2]float64{{lo, hi}, nil, nil}
	resp, body := postJSON(t, ts.URL+"/v1/brush", BrushRequest{
		Session: "s1", Seq: 0, Ranges: ranges, Moved: 0,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var br BrushResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.AppliedSeq != 0 || br.Coalesced {
		t.Errorf("applied %d coalesced %v", br.AppliedSeq, br.Coalesced)
	}

	filters := []*datacube.Range{{Lo: lo, Hi: hi}, nil, nil}
	for d := 0; d < cube.NumDims(); d++ {
		want, err := cube.Histogram(d, filters)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(br.Histograms[d]) != fmt.Sprint(want) {
			t.Errorf("dim %d histogram mismatch", d)
		}
	}
	wantTotal, _ := cube.Count(filters)
	if br.Total != wantTotal {
		t.Errorf("total = %d, want %d", br.Total, wantTotal)
	}

	// Wrong arity is rejected up front.
	resp, _ = postJSON(t, ts.URL+"/v1/brush", BrushRequest{Session: "s1", Seq: 1, Ranges: ranges[:1]})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad arity status = %d", resp.StatusCode)
	}
}

func TestTilesHandler(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	// Zoom-0 tile 0/0/0 covers the whole mercator world: every road point.
	resp, err := http.Get(ts.URL + "/v1/tiles?session=s1&seq=3&z=0&x=0&y=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var tr TileResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.Count != testRows {
		t.Errorf("world tile count = %d, want %d", tr.Count, testRows)
	}
	if tr.Key != "0/0/0" || tr.Seq != 3 {
		t.Errorf("key %q seq %d", tr.Key, tr.Seq)
	}

	// A tile on the far side of the planet holds nothing.
	resp2, err := http.Get(ts.URL + "/v1/tiles?session=s1&key=4/1/7")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var tr2 TileResponse
	if err := json.NewDecoder(resp2.Body).Decode(&tr2); err != nil {
		t.Fatal(err)
	}
	if tr2.Count != 0 {
		t.Errorf("antipodal tile count = %d, want 0", tr2.Count)
	}
	if tr2.Seq != 0 {
		t.Errorf("absent seq read as %d, want 0", tr2.Seq)
	}

	// A seq that is present but no integer is the client's mistake, as on the
	// JSON endpoints — not seq 0.
	resp3, err := http.Get(ts.URL + "/v1/tiles?session=s1&seq=abc&key=4/1/7")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("seq=abc status = %d, want 400", resp3.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
	st, err := FetchStats(nil, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.ConstraintMS != 500 {
		t.Errorf("default constraint = %vms, want 500", st.ConstraintMS)
	}
}

// TestShedUnderOverload drives more concurrent queries than worker pool +
// queue can hold: the surplus must shed fast with 429 and count in the
// registry, and every accepted query must still complete.
func TestShedUnderOverload(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, ExecDelay: 30 * time.Millisecond})

	const n = 24
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct sessions: no coalescing, pure admission pressure.
			resp, _ := postJSON(t, ts.URL+"/v1/query", QueryRequest{
				Session: fmt.Sprintf("s%d", i), Seq: 0, SQL: "SELECT COUNT(*) FROM dataroad",
			})
			statuses[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()

	ok, shed := 0, 0
	for _, s := range statuses {
		switch s {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Errorf("unexpected status %d", s)
		}
	}
	if shed == 0 {
		t.Fatal("no requests shed under overload")
	}
	if ok == 0 {
		t.Fatal("no requests served under overload")
	}
	st := srv.Stats()
	if st.Shed != int64(shed) {
		t.Errorf("registry shed = %d, want %d", st.Shed, shed)
	}
	if st.Issued != n {
		t.Errorf("issued = %d, want %d", st.Issued, n)
	}
	if st.Executed != int64(ok) {
		t.Errorf("executed = %d, want %d", st.Executed, ok)
	}
}

// TestBrushCoalescing issues a burst of brushes on one session against a
// slow single worker: the stale ones must be superseded (executed count
// well below issued), every caller must get a response, and every response
// must carry the state of a snapshot at least as new as its own.
func TestBrushCoalescing(t *testing.T) {
	var logBuf bytes.Buffer
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, ExecDelay: 40 * time.Millisecond, Log: &logBuf})

	const n = 10
	type out struct {
		status  int
		applied int64
	}
	outs := make([]out, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lo := 8.2 + 0.1*float64(i)
			resp, body := postJSON(t, ts.URL+"/v1/brush", BrushRequest{
				Session: "brusher", Seq: int64(i),
				Ranges: []*[2]float64{{lo, lo + 1}, nil, nil}, Moved: 0,
			})
			var br BrushResponse
			_ = json.Unmarshal(body, &br)
			outs[i] = out{resp.StatusCode, br.AppliedSeq}
		}(i)
		time.Sleep(5 * time.Millisecond) // stagger issues inside one execution window
	}
	wg.Wait()

	var maxApplied int64 = -1
	for i, o := range outs {
		if o.status != http.StatusOK {
			t.Fatalf("brush %d status = %d", i, o.status)
		}
		if o.applied < int64(i) {
			t.Errorf("brush %d applied stale seq %d", i, o.applied)
		}
		if o.applied > maxApplied {
			maxApplied = o.applied
		}
	}
	if maxApplied != n-1 {
		t.Errorf("latest applied = %d, want %d (session must receive its latest result)", maxApplied, n-1)
	}

	st := srv.Stats()
	if st.Executed >= int64(n) {
		t.Errorf("executed %d of %d issued: nothing coalesced", st.Executed, n)
	}
	if st.Coalesced == 0 {
		t.Error("coalesced counter is zero")
	}
	if st.Regressions != 0 {
		t.Errorf("sequence regressions = %d", st.Regressions)
	}

	// The tracefmt request log must parse and agree with the counters.
	recs, err := tracefmt.ReadServeTrace(strings.NewReader(logBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Errorf("log records = %d, want %d", len(recs), n)
	}
	coalescedLogged := 0
	for _, r := range recs {
		if r.Kind != "brush" || r.Status != http.StatusOK {
			t.Errorf("log record %+v", r)
		}
		if r.Coalesced {
			coalescedLogged++
		}
	}
	if coalescedLogged == 0 {
		t.Error("no coalesced requests in the log")
	}
}

// TestGracefulDrain verifies the SIGTERM path: in-flight work completes
// with 200, new work is refused with 503, and Drain returns once the pool
// is idle.
func TestGracefulDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, ExecDelay: 80 * time.Millisecond})

	var inflightStatus int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postJSON(t, ts.URL+"/v1/brush", BrushRequest{
			Session: "drainer", Seq: 0, Ranges: []*[2]float64{nil, nil, nil},
		})
		inflightStatus = resp.StatusCode
	}()
	// Drain only once the worker holds the brush: a Drain that wins the
	// race refuses the request it is meant to wait for.
	for deadline := time.Now().Add(10 * time.Second); srv.Stats().Inflight != 1; {
		if time.Now().After(deadline) {
			t.Fatal("the brush never reached the worker")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The in-flight brush must have been answered, not dropped.
	wg.Wait()
	if inflightStatus != http.StatusOK {
		t.Errorf("in-flight brush status = %d, want 200", inflightStatus)
	}

	// New work is refused politely.
	resp, _ := postJSON(t, ts.URL+"/v1/brush", BrushRequest{
		Session: "late", Seq: 0, Ranges: []*[2]float64{nil, nil, nil},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain brush = %d, want 503", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/query", QueryRequest{Session: "late", Seq: 0, SQL: "SELECT COUNT(*) FROM dataroad"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain query = %d, want 503", resp.StatusCode)
	}
	// Liveness stays 200 while draining (the process is still up); only
	// readiness flips to 503 so routers stop sending traffic.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hzBody struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&hzBody); err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("post-drain healthz = %d, want 200 (liveness)", hz.StatusCode)
	}
	if hzBody.Status != "draining" {
		t.Errorf("post-drain healthz status = %q, want \"draining\"", hzBody.Status)
	}
	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain readyz = %d, want 503", rz.StatusCode)
	}

	// Drain is idempotent.
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestTileCacheHitMiss: a repeated tile request is served from the LRU
// result cache (skipping the admission queue) and the hit/miss counters
// surface in /metrics.
func TestTileCacheHitMiss(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})

	getTile := func(key string) TileResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/tiles?session=s1&key=" + key)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tile %s status = %d", key, resp.StatusCode)
		}
		var tr TileResponse
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatal(err)
		}
		return tr
	}

	first := getTile("0/0/0")
	again := getTile("0/0/0")
	if again.Count != first.Count {
		t.Errorf("cached count %d != computed %d", again.Count, first.Count)
	}
	other := getTile("4/1/7")
	if other.Count != 0 {
		t.Errorf("antipodal tile count = %d, want 0", other.Count)
	}

	st := srv.Stats()
	if st.TileCacheHits != 1 || st.TileCacheMiss != 2 {
		t.Errorf("cache hits=%d misses=%d, want 1/2", st.TileCacheHits, st.TileCacheMiss)
	}
	// The counters ride the same /metrics endpoint operators already watch.
	remote, err := FetchStats(nil, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if remote.TileCacheHits != 1 || remote.TileCacheMiss != 2 {
		t.Errorf("remote hits=%d misses=%d", remote.TileCacheHits, remote.TileCacheMiss)
	}
}

// TestTilesRejectsBadKeys: a key that is not an existing tile's z/x/y, in
// either form, is the client's mistake — a 400 before the request is
// counted, scanned or cached — and a method other than GET or HEAD is a
// 405, as on the JSON endpoints.
func TestTilesRejectsBadKeys(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	before := srv.Stats()
	for _, q := range []string{
		"key=4/1/7/9", "key=4/1/7abc", "key=-1/0/0", "key=40/0/0", "key=2/9/9", "key=1100/0/0",
		"z=2&x=9&y=9", "z=-1&x=0&y=0", "z=4&x=1", "z=%2B4&x=1&y=7",
	} {
		resp, err := http.Get(ts.URL + "/v1/tiles?session=s1&" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/tiles?session=s1&key=0/0/0", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status %d, want 405", resp.StatusCode)
	}
	after := srv.Stats()
	if after.TileCacheMiss != before.TileCacheMiss || after.TileCacheHits != before.TileCacheHits || after.Issued != before.Issued {
		t.Errorf("rejected tiles counted: misses %d→%d, hits %d→%d, issued %d→%d",
			before.TileCacheMiss, after.TileCacheMiss, before.TileCacheHits, after.TileCacheHits, before.Issued, after.Issued)
	}
}

// TestTileCacheDisabled: a negative TileCacheSize turns the cache off;
// identical requests recompute every time.
func TestTileCacheDisabled(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, TileCacheSize: -1})
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/v1/tiles?session=s1&key=0/0/0")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	st := srv.Stats()
	if st.TileCacheHits != 0 || st.TileCacheMiss != 2 {
		t.Errorf("disabled cache hits=%d misses=%d, want 0/2", st.TileCacheHits, st.TileCacheMiss)
	}
}

// An oversized body is refused with 413 before any of it is decoded into a
// request: nothing is issued, and a body just under the bound still gets
// the handler's own answer.
func testBodyBound(t *testing.T, path string, fits func(pad string) any) {
	t.Helper()
	srv, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+path, fits(strings.Repeat("x", maxBodyBytes)))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized %s: status %d, body %s", path, resp.StatusCode, body)
	}
	if st := srv.Stats(); st.Issued != 0 {
		t.Fatalf("oversized %s was issued (%d)", path, st.Issued)
	}
	resp, body = postJSON(t, ts.URL+path, fits(strings.Repeat("x", maxBodyBytes-1024)))
	if resp.StatusCode == http.StatusRequestEntityTooLarge {
		t.Fatalf("%s refused a body under the bound: %s", path, body)
	}
	resp, body = postJSON(t, ts.URL+path, fits("s1"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s after the refusals: status %d, body %s", path, resp.StatusCode, body)
	}
}

func TestQueryBodyBound(t *testing.T) {
	testBodyBound(t, "/v1/query", func(pad string) any {
		return QueryRequest{Session: pad, SQL: "SELECT COUNT(*) FROM dataroad"}
	})
}

func TestBrushBodyBound(t *testing.T) {
	testBodyBound(t, "/v1/brush", func(pad string) any {
		return BrushRequest{Session: pad, Ranges: []*[2]float64{{9, 10.5}, nil, nil}}
	})
}

// discardWriter is a ResponseWriter that keeps only the status, so a
// benchmark's allocations are the handler's own.
type discardWriter struct {
	h      http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }

// rereadBody is a request body the benchmark rewinds instead of
// reallocating.
type rereadBody struct{ bytes.Reader }

func (*rereadBody) Close() error { return nil }

// BenchmarkBrushHandler times one brush through Server.Handler().ServeHTTP
// over RoadBackends with the default config — decode, session slot, the
// worker pool, the answerer, the reply — with no socket beneath it. Run it
// with -benchmem: allocations per brush are the serve layer's own.
func BenchmarkBrushHandler(b *testing.B) {
	backends, err := RoadBackends(1, testRows, engine.ProfileMemory)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(backends, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = srv.Drain(context.Background()) }()
	raw := []byte(`{"session":"bench","seq":0,"ranges":[[8.2,10.5],null,[0,40]],"moved":0}`)
	body := &rereadBody{}
	r := httptest.NewRequest(http.MethodPost, "/v1/brush", body)
	w := &discardWriter{h: http.Header{}}
	h := srv.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reset(raw)
		r.Body = body
		h.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			b.Fatalf("brush %d: status %d", i, w.status)
		}
	}
}
