package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"repro/internal/engine"
	"repro/internal/obsv"
)

// dragBrushRanges is a template-stable drag over the road cube: fixed
// windows on y and z, a sliding quarter-width window on x.
func dragBrushRanges(step, steps int) []*[2]float64 {
	dims := RoadCubeDims()
	ranges := make([]*[2]float64, len(dims))
	for i, d := range dims {
		span := d.Hi - d.Lo
		if i == 0 {
			lo := d.Lo + span*0.75*float64(step%steps)/float64(steps)
			ranges[i] = &[2]float64{lo, lo + span*0.25}
		} else {
			ranges[i] = &[2]float64{d.Lo + span*0.2, d.Lo + span*0.8}
		}
	}
	return ranges
}

// TestPlannerBrushMatchesBaseline: a planner-enabled server and the legacy
// fixed-structure server return byte-identical brush responses across a
// drag (including the mid-session index swap-in), template jumps, and the
// resumed drag.
func TestPlannerBrushMatchesBaseline(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 2})
	planSrv, plan := newTestServer(t, Config{Workers: 2, Planner: true, PlannerHotStreak: 3})

	const steps = 16
	seq := int64(0)
	post := func(tag string, req BrushRequest) {
		t.Helper()
		r1, b1 := postJSON(t, base.URL+"/v1/brush", req)
		r2, b2 := postJSON(t, plan.URL+"/v1/brush", req)
		if r1.StatusCode != http.StatusOK || r2.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d / %d (%s / %s)", tag, r1.StatusCode, r2.StatusCode, b1, b2)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s: planner response differs\nbaseline: %s\nplanner:  %s", tag, b1, b2)
		}
	}
	for step := 0; step < steps; step++ {
		post(fmt.Sprintf("drag %d", step), BrushRequest{
			Session: "drag", Seq: seq, Ranges: dragBrushRanges(step, steps), Moved: 0,
		})
		seq++
		if step == steps/2 {
			// Let the background materialization land so the back half of
			// the drag runs on the swapped-in index.
			planSrv.Planner().WaitBuilds()
		}
	}
	// Template jumps: a different moved dimension, then partial filters.
	jump := dragBrushRanges(3, steps)
	post("jump moved", BrushRequest{Session: "drag", Seq: seq, Ranges: jump, Moved: 1})
	seq++
	partial := append([]*[2]float64(nil), jump...)
	partial[2] = nil // unfiltered dimension
	post("jump partial", BrushRequest{Session: "drag", Seq: seq, Ranges: partial, Moved: 0})
	seq++
	post("resume drag", BrushRequest{Session: "drag", Seq: seq, Ranges: dragBrushRanges(2, steps), Moved: 0})

	st := planSrv.Stats()
	if st.Planner == nil {
		t.Fatal("planner stats missing")
	}
	if st.Planner.Materializations == 0 {
		t.Error("sustained drag never materialized its template")
	}
	if st.Planner.Choices["mat-index"] == 0 {
		t.Error("materialized index never chosen after the swap-in")
	}
}

// TestPlannerStatsExposed: the planner section reaches both /metrics
// representations — the JSON Stats carries the two live structures' choice
// counters and no others, and the Prometheus exposition is valid text
// format 0.0.4 including planner_choice_total and the brush cache-miss
// counter.
func TestPlannerStatsExposed(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Planner: true})

	for step := 0; step < 3; step++ {
		postJSON(t, ts.URL+"/v1/brush", BrushRequest{
			Session: "s", Seq: int64(step), Ranges: dragBrushRanges(step, 8), Moved: 0,
		})
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Planner == nil {
		t.Fatal("JSON stats carry no planner section")
	}
	for _, name := range []string{"prefix-cube", "mat-index"} {
		if _, ok := st.Planner.Choices[name]; !ok {
			t.Errorf("choices missing structure %q (series must be stable)", name)
		}
	}
	if len(st.Planner.Choices) != 2 {
		t.Errorf("choices = %v, want the two live structures only", st.Planner.Choices)
	}
	if st.Planner.BudgetBytes == 0 {
		t.Error("budget bytes unset")
	}

	resp, err = http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := obsv.ValidateExposition(body); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	for _, want := range []string{
		`idevald_planner_choice_total{structure="prefix-cube"}`,
		`idevald_planner_choice_total{structure="mat-index"}`,
		"idevald_planner_materializations_total",
		"idevald_planner_index_bytes",
		"idevald_brush_cache_misses_total",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if bytes.Contains(body, []byte("planner_prefix_builds_total")) {
		t.Error("exposition still carries planner_prefix_builds_total")
	}
}

// TestPlannerConfigRejected: the planner refuses configurations it cannot
// honor — sharded serving owns the brush path, and a cube is required.
func TestPlannerConfigRejected(t *testing.T) {
	backends, err := RoadBackends(1, testRows, engine.ProfileMemory)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(partitioned(t, backends, Config{Planner: true}, 2, nil)); err == nil {
		t.Error("planner + shards accepted")
	}
	noCube := backends
	noCube.Cube = nil
	if _, err := New(noCube, Config{Planner: true}); err == nil {
		t.Error("planner without a cube accepted")
	}
}
