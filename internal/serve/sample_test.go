package serve

import (
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
	"repro/internal/opt"
)

// TestSampleCoveringEveryRowIsExact: a table with fewer rows than the sample
// holds is sampled whole, so the ladder's last rung — every execution stalled
// past the budget, brush cache off — must answer what the exact rung would
// have, marked degraded with sample_fraction 1, and the same bytes whoever
// answers brushes: the sample does not depend on the answerer.
func TestSampleCoveringEveryRowIsExact(t *testing.T) {
	if testRows >= partialRows {
		t.Fatalf("testRows %d must stay below partialRows %d", testRows, partialRows)
	}
	_, exact := newTestServer(t, Config{Workers: 2})
	stalled := answererServers(t, func() Config {
		return Config{
			Workers: 2, Deadlines: true, DegradeAfter: 5 * time.Millisecond, BrushCacheSize: -1, BreakerThreshold: -1,
			Fault: fault.New(fault.Profile{Name: "stall-all", StallProb: 1, StallDelay: 300 * time.Millisecond}, 41),
		}
	})

	dims := RoadCubeDims()
	edge := func(d, bin int) float64 { // the lower edge of dimension d's bin
		return dims[d].Lo + float64(bin)*(dims[d].Hi-dims[d].Lo)/float64(dims[d].Bins)
	}
	for i, ranges := range [][]*[2]float64{
		{{8.2, 10.5}, nil, nil},  // off-edge, wide
		{{9.03, 9.61}, nil, nil}, // off-edge, narrow
		{{edge(0, 3), edge(0, 9)}, nil, nil},
		{{edge(0, 5), edge(0, 5)}, nil, nil},
		{{8.7, 10.1}, {edge(1, 2), edge(1, 15)}, {20, 90}},
		{nil, {57.05, 57.31}, nil},
		{nil, nil, nil},
		{{10.5, 8.2}, nil, nil}, // inverted: selects nothing
	} {
		req := BrushRequest{Session: "whole", Seq: int64(i), Ranges: ranges}
		resp, body := postJSON(t, exact.URL+"/v1/brush", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("exact brush %d: status %d: %s", i, resp.StatusCode, body)
		}
		want := decodeBrush(t, body)
		got := decodeBrush(t, postAll(t, fmt.Sprintf("stalled brush %d", i), stalled, req))
		if got.Tier != "partial" || !got.Degraded || got.SampleFraction != 1 {
			t.Fatalf("brush %d: tier %q degraded=%v fraction=%g, want partial/true/1", i, got.Tier, got.Degraded, got.SampleFraction)
		}
		if got.Total != want.Total || !reflect.DeepEqual(got.Histograms, want.Histograms) {
			t.Fatalf("brush %d: a sample of every row answers total %d, exact %d\n%v\nvs\n%v",
				i, got.Total, want.Total, got.Histograms, want.Histograms)
		}
	}

	for i, sql := range []string{
		"SELECT ROUND((y - 56) / 0.05), COUNT(*) FROM dataroad WHERE x >= 8.2 AND x <= 10.5 GROUP BY ROUND((y - 56) / 0.05) ORDER BY ROUND((y - 56) / 0.05)",
		"SELECT ROUND((x - 8.146) / 0.2), COUNT(*) FROM dataroad WHERE y >= 57.1 AND z < 40 GROUP BY ROUND((x - 8.146) / 0.2)",
	} {
		req := QueryRequest{Session: "whole", Seq: int64(100 + i), SQL: sql}
		resp, body := postJSON(t, exact.URL+"/v1/query", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("exact query: status %d: %s", resp.StatusCode, body)
		}
		var want QueryResponse
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		got := queryAll(t, sql, stalled, req)
		if !got.Degraded || got.SampleFraction != 1 {
			t.Fatalf("%s: degraded=%v fraction=%g, want true/1", sql, got.Degraded, got.SampleFraction)
		}
		if len(want.Rows) == 0 || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("%s: a sample of every row answers\n%v\nexact\n%v", sql, got.Rows, want.Rows)
		}
	}
}

// TestSampleQualityAtPaperScale pins what a degraded answer is worth at the
// paper's cardinality, with no clock involved: an always-failing backend
// sends every request down to the sample rung, and its estimate must land
// within 3% of the exact total and 15% of it summed over every bin's error.
// The sample itself must be a fixed one: drawn without replacement, kept in
// row order, the same rows on every New.
func TestSampleQualityAtPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale dataset in -short mode")
	}
	backends, err := RoadBackends(1, dataset.RoadCount, engine.ProfileMemory)
	if err != nil {
		t.Fatal(err)
	}
	n := backends.Tiles.NumRows()
	in := fault.New(fault.Profile{Name: "clean"}, 43)
	cfg := Config{Workers: 2, Deadlines: true, BrushCacheSize: -1, Fault: in, MaxRetries: -1, BreakerThreshold: -1}
	srv, err := New(backends, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		drainForTest(t, srv)
	})

	rows := sampleRows(n, partialRows)
	if len(rows) != partialRows || srv.sample.Table.NumRows() != partialRows || srv.sampleFrac != float64(partialRows)/float64(n) {
		t.Fatalf("sample holds %d rows (%d picked) at fraction %g, want %d of %d", srv.sample.Table.NumRows(), len(rows), srv.sampleFrac, partialRows, n)
	}
	again, err := New(backends, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer drainForTest(t, again)
	for i, row := range rows {
		if row < 0 || row >= n || (i > 0 && row <= rows[i-1]) {
			t.Fatalf("pick %d is row %d after row %d: not ascending without replacement in [0, %d)", i, row, rows[max(i-1, 0)], n)
		}
		if want := backends.Tiles.Row(row); !reflect.DeepEqual(srv.sample.Table.Row(i), want) || !reflect.DeepEqual(again.sample.Table.Row(i), want) {
			t.Fatalf("sample row %d is not table row %d on both servers", i, row)
		}
	}

	// ask posts one request under a healthy backend, then again under one
	// failing every execution: the exact answer and the sample rung's.
	seq := int64(0)
	ask := func(path string, body func(seq int64) any) (exact, est []byte) {
		for _, step := range []struct {
			profile fault.Profile
			into    *[]byte
		}{{fault.Profile{Name: "clean"}, &exact}, {fault.Profile{Name: "err-all", ErrProb: 1}, &est}} {
			in.SetProfile(step.profile)
			resp, got := postJSON(t, ts.URL+path, body(seq))
			seq++
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s under %s: status %d: %s", path, step.profile.Name, resp.StatusCode, got)
			}
			*step.into = got
		}
		return exact, est
	}
	absErr := func(a, b int64) int64 { return max(a-b, b-a) }
	within := func(what string, degraded bool, frac float64, est, exact, binErr int64) {
		t.Helper()
		if !degraded || frac != srv.sampleFrac {
			t.Fatalf("%s: degraded=%v fraction=%g, want the sample's %g", what, degraded, frac, srv.sampleFrac)
		}
		t.Logf("%s: estimate %d, exact %d (%+.1f%%), Σ|bin error| %d (%.1f%% of exact)", what, est, exact,
			100*float64(est-exact)/float64(exact), binErr, 100*float64(binErr)/float64(exact))
		if 100*absErr(est, exact) > 3*exact || 100*binErr > 15*exact {
			t.Errorf("%s: sample estimate outside 3%% of the total or 15%% summed over bins", what)
		}
	}

	for _, tc := range []struct {
		name   string
		ranges []*[2]float64
	}{
		{"wide brush", brushRanges(8.2, 10.5)},
		{"narrow brush", brushRanges(9.03, 9.61)},
	} {
		exactBody, estBody := ask("/v1/brush", func(seq int64) any {
			return BrushRequest{Session: "q", Seq: seq, Ranges: tc.ranges}
		})
		exact, est := decodeBrush(t, exactBody), decodeBrush(t, estBody)
		var binErr int64
		for d, h := range exact.Histograms {
			for b, v := range h {
				binErr += absErr(est.Histograms[d][b], v)
			}
		}
		within(tc.name, est.Degraded && !exact.Degraded, est.SampleFraction, est.Total, exact.Total, binErr)
	}

	// The scan_shards statement: every dimension ranged, the next one binned.
	dims := RoadLoadDims()
	stmt, err := opt.HistogramQuery("dataroad", dims, [][2]float64{{8.7, 10.1}, {dims[1].Lo, dims[1].Hi}, {dims[2].Lo, dims[2].Hi}}, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	exactBody, estBody := ask("/v1/query", func(seq int64) any {
		return QueryRequest{Session: "q", Seq: seq, SQL: stmt.String()}
	})
	var exact, est QueryResponse
	if err := json.Unmarshal(exactBody, &exact); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(estBody, &est); err != nil {
		t.Fatal(err)
	}
	// Rows are (bin, count), only non-empty bins: a bin either side lacks
	// counts zero there.
	bins := make(map[float64][2]int64)
	var totals [2]int64
	var binErr int64
	for side, qr := range []QueryResponse{exact, est} {
		for _, row := range qr.Rows {
			c := bins[row[0].(float64)]
			c[side] = int64(row[1].(float64))
			bins[row[0].(float64)] = c
			totals[side] += c[side]
		}
	}
	for _, c := range bins {
		binErr += absErr(c[0], c[1])
	}
	within("statement", est.Degraded && !exact.Degraded, est.SampleFraction, totals[1], totals[0], binErr)
}
