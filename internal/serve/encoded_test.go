package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/engine"
	"repro/internal/leakcheck"
	"repro/internal/obsv"
	"repro/internal/storage"
)

// newEncodedPair builds two identical road-backed servers over s partitions
// (see partitioned), one over raw backends and one over EncodeBackends'
// frozen form, partitioned after the freeze.
func newEncodedPair(t *testing.T, s int, cfg Config) (plain, enc *httptest.Server) {
	t.Helper()
	leakcheck.Check(t)
	for _, encode := range []bool{false, true} {
		backends, err := RoadBackends(1, testRows, engine.ProfileMemory)
		if err != nil {
			t.Fatal(err)
		}
		if encode {
			backends, err = EncodeBackends(backends)
			if err != nil {
				t.Fatal(err)
			}
			if !colstore.IsFrozen(backends.Tiles) {
				t.Fatal("EncodeBackends did not freeze the table")
			}
		}
		srv, err := New(partitioned(t, backends, cfg, s, nil))
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
		if encode {
			enc = ts
		} else {
			plain = ts
		}
	}
	return plain, enc
}

// TestEncodedServingMatchesPlain drives the same queries, brushes, and
// tile fetches through a raw-backed server and an encoded-backed one, and
// requires identical response bodies — encoding must be invisible to every
// endpoint.
func TestEncodedServingMatchesPlain(t *testing.T) {
	plain, enc := newEncodedPair(t, 1, Config{Workers: 2})

	both := func(method, path string, body any) (p, e []byte) {
		t.Helper()
		for i, ts := range []*httptest.Server{plain, enc} {
			var resp *http.Response
			var raw []byte
			if method == http.MethodPost {
				resp, raw = postJSON(t, ts.URL+path, body)
			} else {
				r, err := http.Get(ts.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if _, err := buf.ReadFrom(r.Body); err != nil {
					t.Fatal(err)
				}
				r.Body.Close()
				resp, raw = r, buf.Bytes()
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %s: status %d body %s", method, path, resp.StatusCode, raw)
			}
			if i == 0 {
				p = raw
			} else {
				e = raw
			}
		}
		return p, e
	}

	queries := []string{
		"SELECT COUNT(*) FROM dataroad",
		"SELECT ROUND((x - 8.146) / 0.2), COUNT(*) FROM dataroad WHERE y >= 56.9 AND y <= 57.4 GROUP BY 1 ORDER BY 1",
	}
	for seq, q := range queries {
		p, e := both(http.MethodPost, "/v1/query", QueryRequest{Session: "s1", Seq: int64(seq), SQL: q})
		var pr, er QueryResponse
		if err := json.Unmarshal(p, &pr); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(e, &er); err != nil {
			t.Fatal(err)
		}
		if len(pr.Rows) == 0 || len(pr.Rows) != len(er.Rows) {
			t.Fatalf("query %q: %d vs %d rows", q, len(er.Rows), len(pr.Rows))
		}
		for i := range pr.Rows {
			for j := range pr.Rows[i] {
				if pr.Rows[i][j] != er.Rows[i][j] {
					t.Fatalf("query %q row %d col %d: %v vs %v", q, i, j, er.Rows[i][j], pr.Rows[i][j])
				}
			}
		}
	}

	for seq, rg := range [][]*[2]float64{
		{{9, 10.5}, nil, nil},
		{nil, {49.8, 50.2}, {100, 400}},
	} {
		p, e := both(http.MethodPost, "/v1/brush", BrushRequest{Session: "s2", Seq: int64(seq), Ranges: rg})
		var pr, er BrushResponse
		if err := json.Unmarshal(p, &pr); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(e, &er); err != nil {
			t.Fatal(err)
		}
		if pr.Total != er.Total {
			t.Fatalf("brush %d: total %d vs %d", seq, er.Total, pr.Total)
		}
	}

	pTiles, eTiles := both(http.MethodGet, "/v1/tiles?session=s3&z=6&x=36&y=21", nil)
	if !bytes.Equal(pTiles, eTiles) {
		t.Fatalf("tile bodies differ: %s vs %s", eTiles, pTiles)
	}
}

// TestEncodedMetricsStoreSection asserts the encoding breakdown surfaces
// in both /metrics representations — and only on the encoded server.
func TestEncodedMetricsStoreSection(t *testing.T) {
	plain, enc := newEncodedPair(t, 1, Config{Workers: 1})

	get := func(url string) []byte {
		t.Helper()
		r, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(r.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	var st Stats
	if err := json.Unmarshal(get(enc.URL+"/metrics"), &st); err != nil {
		t.Fatal(err)
	}
	if st.Store == nil {
		t.Fatal("encoded server /metrics has no store section")
	}
	if st.Store.Rows != testRows || st.Store.EncodedBytes <= 0 || len(st.Store.Columns) == 0 {
		t.Fatalf("store section implausible: %+v", st.Store)
	}
	var pst Stats
	if err := json.Unmarshal(get(plain.URL+"/metrics"), &pst); err != nil {
		t.Fatal(err)
	}
	if pst.Store != nil {
		t.Fatal("plain server /metrics reports a store section")
	}

	prom := string(get(enc.URL + "/metrics?format=prometheus"))
	for _, series := range []string{
		"idevald_colstore_encoded_bytes",
		"idevald_colstore_plain_bytes",
		"idevald_colstore_compression_ratio",
		`idevald_colstore_column_bytes{column="x"}`,
	} {
		if !strings.Contains(prom, series) {
			t.Fatalf("prometheus exposition lacks %s", series)
		}
	}
	if strings.Contains(string(get(plain.URL+"/metrics?format=prometheus")), "colstore_") {
		t.Fatal("plain server exposes colstore series")
	}
}

// TestServeRejectsStringTileColumns pins the new build-time validation:
// naming a TEXT column as a tile coordinate must fail construction, not
// panic on the first tile request.
func TestServeRejectsStringTileColumns(t *testing.T) {
	tbl := storage.NewTable("t", storage.Schema{
		{Name: "lat", Type: storage.Float64},
		{Name: "name", Type: storage.String},
	})
	if err := tbl.AppendRow(storage.NewFloat(1.5), storage.NewString("a")); err != nil {
		t.Fatal(err)
	}
	_, err := New(Backends{Tiles: tbl, TileLat: "lat", TileLng: "name"}, Config{Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "numeric") {
		t.Fatalf("want numeric-column error, got %v", err)
	}
}

// TestEncodedMetricsZoneCounters: after one range-filtered histogram the
// store section shows the filtered column's zone words accounted for —
// whether the scan ran over the served table or over the in-process
// shards' partitions, frozen or read through views — and the exposition
// stays well-formed. On the plain server, whose store section exists only
// once a scan has built a view, a cold tile then moves the counters of
// both coordinate columns.
func TestEncodedMetricsZoneCounters(t *testing.T) {
	for _, tc := range []struct {
		name   string
		plain  bool
		shards int
	}{{"encoded", false, 0}, {"encoded-shards", false, 2}, {"plain", true, 0}, {"plain-shards", true, 2}} {
		plainTS, ts := newEncodedPair(t, tc.shards, Config{Workers: 1})
		if tc.plain {
			ts = plainTS
		}
		get := func(path string) []byte {
			t.Helper()
			r, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(r.Body); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		// zoneWords returns each store column's decided + evaluated words.
		zoneWords := func() (map[string]int64, Stats) {
			t.Helper()
			var st Stats
			if err := json.Unmarshal(get("/metrics"), &st); err != nil {
				t.Fatal(err)
			}
			words := map[string]int64{}
			if st.Store != nil {
				for _, c := range st.Store.Columns {
					words[c.Name] = c.ZoneWordsSkipped + c.ZoneWordsFilled + c.ZoneWordsEvaluated
				}
			}
			return words, st
		}

		const q = "SELECT ROUND((x - 8.146) / 0.2), COUNT(*) FROM dataroad WHERE y >= 56.9 AND y <= 57.4 " +
			"GROUP BY ROUND((x - 8.146) / 0.2) ORDER BY ROUND((x - 8.146) / 0.2)"
		if resp, raw := postJSON(t, ts.URL+"/v1/query", QueryRequest{Session: "s1", SQL: q}); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: query status %d body %s", tc.name, resp.StatusCode, raw)
		}
		words, st := zoneWords()
		if st.Store == nil {
			t.Fatalf("%s: no store section after a range-filtered histogram", tc.name)
		}
		for name, n := range words {
			if name != "y" && n != 0 {
				t.Fatalf("%s: unfiltered column %q counts %d zone words", tc.name, name, n)
			}
		}
		// One pass over y: every 64-row word of every partition, once.
		lo, hi := int64(testRows/64), int64(testRows/64+2)
		if words["y"] < lo || words["y"] > hi {
			t.Fatalf("%s: column y counts %d zone words, want %d..%d", tc.name, words["y"], lo, hi)
		}

		if tc.plain {
			// A cold tile scans the served table itself: latitude (y) then
			// longitude (x), one pass each.
			if r, err := http.Get(ts.URL + "/v1/tiles?session=s1&key=7/66/38"); err != nil || r.StatusCode != http.StatusOK {
				t.Fatalf("%s: tile: %v %v", tc.name, r, err)
			} else {
				r.Body.Close()
			}
			var after map[string]int64
			after, st = zoneWords()
			if after["y"] != words["y"]+int64(testRows+63)/64 || after["x"] != int64(testRows+63)/64 {
				t.Fatalf("%s: zone words after a cold tile y=%d x=%d, before y=%d", tc.name, after["y"], after["x"], words["y"])
			}
			for _, c := range st.Store.Columns {
				if c.Encoding != "plain" || (c.Bytes > 0 && c.Ratio != 1) {
					t.Fatalf("%s: view column %+v", tc.name, c)
				}
			}
		}
		if st.Store.ZoneBytes <= 0 || st.Store.EncodedBytes > st.Store.PlainBytes {
			t.Fatalf("%s: store bytes implausible: %+v", tc.name, st.Store)
		}
		prom := get("/metrics?format=prometheus")
		if err := obsv.ValidateExposition(prom); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, series := range []string{
			"idevald_colstore_zone_bytes",
			`idevald_colstore_zone_words_skipped_total{column="y"}`,
			`idevald_colstore_zone_words_filled_total{column="y"}`,
			`idevald_colstore_zone_words_evaluated_total{column="y"}`,
		} {
			if !bytes.Contains(prom, []byte(series)) {
				t.Fatalf("%s: prometheus exposition lacks %s", tc.name, series)
			}
		}
	}
}

// TestShardedStoreZoneBytes: on a plain -shards 2 server, which never scans
// its unsharded table for a histogram statement, the store section's zone
// bytes — the table's and each column's — are the partitions' summed, once
// one histogram has built their zone maps.
func TestShardedStoreZoneBytes(t *testing.T) {
	leakcheck.Check(t)
	srv, ts := shardTestServer(t, testRows, 2, nil, Config{Workers: 1})
	const q = "SELECT ROUND((x - 8.146) / 0.2), COUNT(*) FROM dataroad WHERE y >= 56.9 AND y <= 57.4 " +
		"GROUP BY ROUND((x - 8.146) / 0.2)"
	if resp, raw := postJSON(t, ts.URL+"/v1/query", QueryRequest{Session: "s1", SQL: q}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d body %s", resp.StatusCode, raw)
	}
	var want int64
	wantCol := map[string]int64{}
	for _, part := range srv.shardTables {
		ps := colstore.StatsOf(part)
		want += ps.ZoneBytes
		for _, c := range ps.Columns {
			wantCol[c.Name] += c.ZoneBytes
		}
	}
	st := srv.Stats().Store
	if st == nil || want <= 0 || st.ZoneBytes != want {
		t.Fatalf("store zone bytes %+v, want the partitions' %d", st, want)
	}
	for _, c := range st.Columns {
		if c.ZoneBytes != wantCol[c.Name] {
			t.Fatalf("column %q zone bytes %d, want the partitions' %d", c.Name, c.ZoneBytes, wantCol[c.Name])
		}
	}
}

// TestEncodedShardsRunCounters: on a -shards 2 -encode server over enough
// road rows that each partition keeps its cell-run directory, the store
// section shows the directories' bytes before any statement, and one
// filtered histogram on the partitions' own bin grid moves the run
// counters of the two columns it reads — skipping, summing and scanning
// runs — and leaves the third column's at zero; the exposition carries
// them and stays well-formed.
func TestEncodedShardsRunCounters(t *testing.T) {
	leakcheck.Check(t)
	backends, err := RoadBackends(1, 300000, engine.ProfileMemory)
	if err != nil {
		t.Fatal(err)
	}
	if backends, err = EncodeBackends(backends); err != nil {
		t.Fatal(err)
	}
	srv, err := New(partitioned(t, backends, Config{Workers: 1}, 2, nil))
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
	if st := srv.Stats().Store; st == nil || st.RunBytes <= 0 {
		t.Fatalf("no directory bytes on a sharded encoded server: %+v", st)
	}

	x, y := RoadCubeDims()[0], RoadCubeDims()[1]
	bin := fmt.Sprintf("ROUND((x - %v) / %v)", x.Lo, (x.Hi-x.Lo)/float64(x.Bins))
	q := fmt.Sprintf("SELECT %s, COUNT(*) FROM dataroad WHERE y >= %v AND y <= %v GROUP BY %s ORDER BY %s",
		bin, y.Lo+0.3*(y.Hi-y.Lo), y.Lo+0.7*(y.Hi-y.Lo), bin, bin)
	if resp, raw := postJSON(t, ts.URL+"/v1/query", QueryRequest{Session: "s1", SQL: q}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d body %s", resp.StatusCode, raw)
	}
	st := srv.Stats().Store
	var skipped, summed, scanned int64
	for _, c := range st.Columns {
		if c.RunBytes <= 0 {
			t.Fatalf("column %q has no directory bounds: %+v", c.Name, c)
		}
		runs := c.RunsSkipped + c.RunsSummed + c.RunsScanned
		if (c.Name == "z") != (runs == 0) {
			t.Fatalf("column %q counts %d runs after a statement on x and y", c.Name, runs)
		}
		if c.Name == "y" {
			skipped, summed, scanned = c.RunsSkipped, c.RunsSummed, c.RunsScanned
		}
	}
	if skipped == 0 || summed == 0 || scanned == 0 {
		t.Fatalf("runs skipped %d, summed %d, scanned %d: want every decision", skipped, summed, scanned)
	}

	r, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var prom bytes.Buffer
	if _, err := prom.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	if err := obsv.ValidateExposition(prom.Bytes()); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"idevald_colstore_run_bytes",
		`idevald_colstore_runs_skipped_total{column="y"}`,
		`idevald_colstore_runs_summed_total{column="y"}`,
		`idevald_colstore_runs_scanned_total{column="y"}`,
	} {
		if !bytes.Contains(prom.Bytes(), []byte(series)) {
			t.Fatalf("prometheus exposition lacks %s", series)
		}
	}
}
