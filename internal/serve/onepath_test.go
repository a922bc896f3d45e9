package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/oracle"
	"repro/internal/shard"
)

// answererModes are the three ways New can be told who answers a brush; mk
// completes base for one mode and returns the backends to serve it over.
var answererModes = []struct {
	name string
	mk   func(t *testing.T, b Backends, base Config) (Backends, Config)
}{
	{"unsharded", func(_ *testing.T, b Backends, base Config) (Backends, Config) { return b, base }},
	{"planner", func(_ *testing.T, b Backends, base Config) (Backends, Config) {
		base.Planner, base.PlannerHotStreak = true, 3
		return b, base
	}},
	{"gatherer", func(t *testing.T, b Backends, base Config) (Backends, Config) {
		return partitioned(t, b, base, 2, nil)
	}},
}

// answererServers builds one server per answerer mode over the same dataset.
// base is called per mode so each server gets its own config (and injector).
func answererServers(t *testing.T, base func() Config) []*httptest.Server {
	t.Helper()
	out := make([]*httptest.Server, len(answererModes))
	for i, m := range answererModes {
		backends, err := RoadBackends(1, testRows, engine.ProfileMemory)
		if err != nil {
			t.Fatal(err)
		}
		b, cfg := m.mk(t, backends, base())
		srv, err := New(b, cfg)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ts.Close()
			drainForTest(t, srv)
		})
		out[i] = ts
	}
	return out
}

// postAll sends req to every server and requires 200 and byte-identical
// bodies; it returns the common body.
func postAll(t *testing.T, tag string, servers []*httptest.Server, req BrushRequest) []byte {
	t.Helper()
	var first []byte
	for i, ts := range servers {
		resp, body := postJSON(t, ts.URL+"/v1/brush", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s: status %d: %s", tag, answererModes[i].name, resp.StatusCode, body)
		}
		if i == 0 {
			first = body
		} else if !bytes.Equal(first, body) {
			t.Fatalf("%s: %s differs from %s\n%s\nvs\n%s", tag, answererModes[i].name, answererModes[0].name, body, first)
		}
	}
	return first
}

// queryAll sends one statement to every server and requires 200 and
// identical bodies, model_ms apart (parallel partial scans are not one full
// scan); it returns the common response.
func queryAll(t *testing.T, tag string, servers []*httptest.Server, req QueryRequest) QueryResponse {
	t.Helper()
	var first QueryResponse
	for i, ts := range servers {
		resp, body := postJSON(t, ts.URL+"/v1/query", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s: status %d: %s", tag, answererModes[i].name, resp.StatusCode, body)
		}
		var qr QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		qr.ModelMS = 0
		if i == 0 {
			first = qr
		} else if !reflect.DeepEqual(qr, first) {
			t.Fatalf("%s: %s differs from %s\n%+v\nvs\n%+v", tag, answererModes[i].name, answererModes[0].name, qr, first)
		}
	}
	return first
}

// TestOneBrushPathAcrossAnswerers: whoever answers — the unsharded
// server's one replica, the planner, or two in-process shards handed in as
// Gatherer — the same brush script yields
// byte-identical bodies, each equal to the row-at-a-time oracle over the
// served table, and under a stalled backend with Deadlines on the same
// rungs answer in the same order.
func TestOneBrushPathAcrossAnswerers(t *testing.T) {
	t.Run("exact", func(t *testing.T) {
		servers := answererServers(t, func() Config { return Config{Workers: 2} })
		served := dataset.Roads(1, testRows) // the table RoadBackends serves
		// postAll, then the common body against the oracle: shared code
		// cannot hide a binning fault that every answerer would share.
		post := func(tag string, req BrushRequest) {
			t.Helper()
			got := decodeBrush(t, postAll(t, tag, servers, req))
			total, hists := oracle.Brush(served, RoadCubeDims(), filtersOf(req.Ranges))
			if got.Total != total || !reflect.DeepEqual(got.Histograms, hists) {
				t.Fatalf("%s: total %d %v, oracle %d %v", tag, got.Total, got.Histograms, total, hists)
			}
		}
		const steps = 12
		seq := int64(0)
		for step := 0; step < steps; step++ {
			post(fmt.Sprintf("drag %d", step), BrushRequest{Session: "one", Seq: seq, Ranges: dragBrushRanges(step, steps), Moved: 0})
			seq++
		}
		jump := dragBrushRanges(3, steps)
		jump[2] = nil
		post("jump", BrushRequest{Session: "one", Seq: seq, Ranges: jump, Moved: 1})
		post("unfiltered", BrushRequest{Session: "one", Seq: seq + 1, Ranges: make([]*[2]float64, 3)})
		inverted := []*[2]float64{{10.5, 8.2}, nil, nil}
		post("inverted", BrushRequest{Session: "one", Seq: seq + 2, Ranges: inverted})

		// The query script beside it: the gatherer-backed servers scatter the
		// histogram shapes and merge, the others scan one table; a statement
		// with no merge law runs unsharded everywhere.
		for i, sql := range []string{
			"SELECT ROUND((y - 56) / 0.05), COUNT(*) FROM dataroad WHERE x >= 8.2 AND x <= 10.5 GROUP BY ROUND((y - 56) / 0.05) ORDER BY ROUND((y - 56) / 0.05)",
			"SELECT ROUND((x - 8.146) / 0.2), COUNT(*) FROM dataroad WHERE y >= 57.1 GROUP BY ROUND((x - 8.146) / 0.2)",
			"SELECT ROUND((y - 56) / 0.05), COUNT(*) FROM dataroad WHERE x >= 1000 GROUP BY ROUND((y - 56) / 0.05)",
			"SELECT x, y FROM dataroad ORDER BY x, y LIMIT 5",
		} {
			qr := queryAll(t, sql, servers, QueryRequest{Session: "one", Seq: seq + 3 + int64(i), SQL: sql})
			if qr.Degraded || (len(qr.Rows) == 0) != (i == 2) {
				t.Fatalf("%s: degraded=%v with %d rows", sql, qr.Degraded, len(qr.Rows))
			}
		}
	})

	t.Run("ladder", func(t *testing.T) {
		stall := fault.Profile{Name: "stall-all", StallProb: 1, StallDelay: 300 * time.Millisecond}
		var injectors []*fault.Injector
		servers := answererServers(t, func() Config {
			in := fault.New(fault.Profile{Name: "clean"}, 21)
			injectors = append(injectors, in)
			return Config{
				Workers: 2, Deadlines: true, DegradeAfter: 15 * time.Millisecond,
				Fault: in, BreakerThreshold: -1,
			}
		})
		seen := BrushRequest{Session: "rungs", Seq: 0, Ranges: brushRanges(8.2, 10.5)}
		unseen := BrushRequest{Session: "rungs", Seq: 2, Ranges: brushRanges(8.7, 10.1)}

		exact := decodeBrush(t, postAll(t, "exact", servers, seen))
		if exact.Tier != "exact" || exact.Degraded {
			t.Fatalf("healthy: tier %q degraded=%v, want exact", exact.Tier, exact.Degraded)
		}
		for _, in := range injectors {
			in.SetProfile(stall)
		}
		seen.Seq = 1
		cached := decodeBrush(t, postAll(t, "cache", servers, seen))
		if cached.Tier != "cache" || cached.Degraded || cached.AppliedSeq != 1 {
			t.Fatalf("stalled, seen ranges: tier %q degraded=%v applied=%d, want cache/false/1",
				cached.Tier, cached.Degraded, cached.AppliedSeq)
		}
		if cached.Total != exact.Total || fmt.Sprint(cached.Histograms) != fmt.Sprint(exact.Histograms) {
			t.Fatal("cache rung served different data than the exact answer it cached")
		}
		partial := decodeBrush(t, postAll(t, "partial", servers, unseen))
		if partial.Tier != "partial" || !partial.Degraded || partial.SampleFraction <= 0 || partial.SampleFraction > 1 {
			t.Fatalf("stalled, unseen ranges: tier %q degraded=%v fraction=%g, want a degraded partial",
				partial.Tier, partial.Degraded, partial.SampleFraction)
		}
		// The query path rides the same ladder: stalled, a histogram answers
		// from the same sample rung on every server.
		qr := queryAll(t, "query sample", servers, QueryRequest{Session: "rungs", Seq: 3,
			SQL: "SELECT ROUND((y - 56) / 0.05), COUNT(*) FROM dataroad WHERE x >= 8.2 GROUP BY ROUND((y - 56) / 0.05)"})
		if !qr.Degraded || qr.SampleFraction <= 0 || qr.SampleFraction > 1 || len(qr.Rows) == 0 {
			t.Fatalf("stalled query: degraded=%v fraction=%g rows=%d, want a degraded sample", qr.Degraded, qr.SampleFraction, len(qr.Rows))
		}
	})
}

// TestLostLegWithoutDeadlinesIsDegraded: with Deadlines off a gather that
// loses a shard to an error (not a deadline) still comes back short. It must
// be counted and served as degraded, and must never be stored as if exact.
func TestLostLegWithoutDeadlinesIsDegraded(t *testing.T) {
	const failing = 1
	faults := make([]*fault.Injector, 4)
	faults[failing] = fault.New(fault.Profile{Name: "err-all", ErrProb: 1}, 31)
	srv, ts := shardTestServer(t, 8000, 4, faults, Config{Workers: 2})

	coord := srv.coord.(*shard.Coordinator)
	wantFrac := 1 - float64(coord.Replica(failing).Table.NumRows())/float64(coord.Records())

	req := BrushRequest{Session: "lost", Seq: 0, Ranges: brushRanges(8.2, 10.5)}
	resp, body := postJSON(t, ts.URL+"/v1/brush", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	br := decodeBrush(t, body)
	if !br.Degraded || br.Tier != "partial" || br.SampleFraction != wantFrac {
		t.Fatalf("tier %q degraded=%v fraction=%g, want a degraded partial covering %g",
			br.Tier, br.Degraded, br.SampleFraction, wantFrac)
	}
	if st := srv.Stats(); st.Degraded != 1 {
		t.Fatalf("registry degraded = %d, want 1: a short gather is a degraded answer with or without deadlines", st.Degraded)
	}
	if hit := srv.lookupBrush(req); hit != nil {
		t.Fatalf("scaled partial (fraction %g) was cached as an exact answer", hit.SampleFraction)
	}

	// Healed, the same ranges answer exactly — nothing stale shadows them.
	faults[failing].SetProfile(fault.Profile{})
	req.Seq = 1
	resp, body = postJSON(t, ts.URL+"/v1/brush", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healed status %d: %s", resp.StatusCode, body)
	}
	if healed := decodeBrush(t, body); healed.Degraded || healed.SampleFraction != 0 {
		t.Fatalf("healed answer still degraded (fraction %g)", healed.SampleFraction)
	}
}
