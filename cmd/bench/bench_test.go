package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

func TestMedianOfPassesRejectsOneBurst(t *testing.T) {
	// Four quiet passes and one that caught an interference burst: the
	// run's value must be a quiet pass's value.
	passes := []float64{0.41, 0.39, 26.0, 0.40, 0.42}
	if got := median(passes); got != 0.41 {
		t.Errorf("median = %v, want 0.41", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even-count median = %v, want 2.5", got)
	}
	if got := midMean([]float64{0.27, 0.20, 0.9, 0.20, 0.27, 0.27, 0.19}); math.Abs(got-0.242) > 1e-12 {
		t.Errorf("midMean of seven = %v, want 0.242", got)
	}
	if got := midMean([]float64{3, 1, 2}); got != 2 {
		t.Errorf("midMean of three = %v, want 2", got)
	}
	if got := passSpread([]float64{9, 10, 12}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("passSpread = %v, want 0.3", got)
	}
}

func TestRescaleLeavesTheWakeFloor(t *testing.T) {
	// A brush under the floor is reported as measured however slow the
	// host read; a scan is rescaled beyond the floor only; a host at the
	// reference speed changes nothing.
	if got := rescale(0.18, 1.5); got != 0.18 {
		t.Errorf("rescale(0.18 ms, 1.5) = %v, want 0.18", got)
	}
	if got, want := rescale(6.3, 1.5), 0.3+6.0/1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("rescale(6.3 ms, 1.5) = %v, want %v", got, want)
	}
	if got := rescale(6.3, 1); math.Abs(got-6.3) > 1e-12 {
		t.Errorf("rescale(6.3 ms, 1) = %v, want 6.3", got)
	}
}

func TestQuartileDistanceMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quartileDistance(ten); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("quartileDistance(1..10) = %v, want 1.0", got)
	}
	// statistics.quantiles([10, 12, 11, 13, 9], n=4) == [9.5, 11.0, 12.5]
	five := []float64{10, 12, 11, 13, 9}
	if got := quartileDistance(five); math.Abs(got-3.0/11) > 1e-12 {
		t.Errorf("quartileDistance(five) = %v, want %v", got, 3.0/11)
	}
}

// TestLatencyOriginOnStalledTimeline replays the paced-pass rule over a
// synthetic session: requests due every 5 ms, 0.3 ms of service, a 12 ms
// server stall on request 2, and a generator that wakes 1 ms late for
// request 5.
func TestLatencyOriginOnStalledTimeline(t *testing.T) {
	const (
		interval = 5 * time.Millisecond
		service  = 300 * time.Microsecond
	)
	t0 := time.Unix(1000, 0)
	extra := map[int]time.Duration{2: 12 * time.Millisecond} // server stall
	wakeLate := map[int]time.Duration{5: time.Millisecond}   // generator overshoot
	want := map[int]time.Duration{
		0: service,
		1: service,
		2: service + 12*time.Millisecond,
		3: service + 12*time.Millisecond + service - interval,     // queued behind the stall: charged from its due time
		4: service + 12*time.Millisecond + 2*service - 2*interval, // still draining the backlog
		5: service,                                                // the generator's own lateness is not the server's
		6: service,
	}
	prevDone := t0
	for j := 0; j <= 6; j++ {
		due := t0.Add(time.Duration(j) * interval)
		sent := due.Add(wakeLate[j])
		if prevDone.After(sent) {
			sent = prevDone // the session has one request in flight at a time
		}
		done := sent.Add(service + extra[j])
		origin, late := latencyOrigin(due, prevDone, sent)
		if got := done.Sub(origin); got != want[j] {
			t.Errorf("request %d: latency %v, want %v", j, got, want[j])
		}
		if wantLate := wakeLate[j]; late != wantLate {
			t.Errorf("request %d: generator lateness %v, want %v", j, late, wantLate)
		}
		prevDone = done
	}
}

func TestScriptsAreDeterministic(t *testing.T) {
	const n = 600
	for _, w := range workloads {
		a, b, c := w.script(7, n), w.script(7, n), w.script(8, n)
		if scriptHash(a) != scriptHash(b) {
			t.Errorf("%s: same seed gave different script hashes", w.name)
		}
		for s := range a {
			if len(a[s]) != n {
				t.Fatalf("%s: session %d has %d requests, want %d", w.name, s, len(a[s]), n)
			}
			for i := range a[s] {
				if !bytes.Equal(a[s][i].wire, b[s][i].wire) {
					t.Fatalf("%s: session %d request %d differs between two generations of seed 7", w.name, s, i)
				}
			}
		}
		if scriptHash(a) == scriptHash(c) {
			t.Errorf("%s: seeds 7 and 8 gave the same script", w.name)
		}
		if bytes.Equal(a[0][0].wire, a[1][0].wire) {
			t.Errorf("%s: both sessions send the same first request", w.name)
		}
	}
}

func TestMixIsTenths(t *testing.T) {
	const n = 1000
	for _, w := range workloads {
		counts := map[kind]int{}
		for _, r := range w.script(3, n)[0] {
			counts[r.kind]++
		}
		for k, tenths := range map[kind]int{kindTile: w.tiles, kindSQL: w.sqls, kindBrush: 10 - w.tiles - w.sqls} {
			share := 100 * float64(counts[k]) / n
			if math.Abs(share-float64(10*tenths)) > 1 {
				t.Errorf("%s: %s share %.1f%%, want %d%% ± 1", w.name, k, share, 10*tenths)
			}
		}
	}
}

// TestSQLIsStratified holds the SQL requests to what makes two seeds
// comparable: every block of numStrata consecutive statements of a session
// has one from each selectivity bucket, no statement is sent twice, and two
// seeds share (next to) none.
func TestSQLIsStratified(t *testing.T) {
	w, _ := workloadByName("scan_shards")
	const n = 40 * numStrata
	seen := map[string]int64{}
	for _, seed := range []int64{1, 2} {
		for s, script := range w.script(seed, n) {
			var inBlock [numStrata]bool
			for i, r := range script {
				if r.kind != kindSQL {
					t.Fatalf("seed %d session %d request %d is a %s", seed, s, i, r.kind)
				}
				if i%numStrata == 0 {
					inBlock = [numStrata]bool{}
				}
				b := stratumOf(r.selectivity)
				if inBlock[b] {
					t.Fatalf("seed %d session %d: block %d has two statements from bucket %d", seed, s, i/numStrata, b)
				}
				inBlock[b] = true
				if prev, dup := seen[r.sql]; dup && prev == seed {
					t.Fatalf("seed %d sends a statement twice: %s", seed, r.sql)
				}
				seen[r.sql] = seed
			}
		}
	}
	if distinct := len(seen); distinct < 2*sessions*n*9/10 {
		t.Errorf("two seeds sent %d distinct statements of %d: the seed does not draw fresh ones", distinct, 2*sessions*n)
	}
}

func TestStratumOf(t *testing.T) {
	for sel, want := range map[float64]int{0: 0, 0.0019: 0, 0.002: 1, 0.1: 3, 0.75: numStrata - 1, 1: numStrata - 1} {
		if got := stratumOf(sel); got != want {
			t.Errorf("stratumOf(%v) = %d, want %d", sel, got, want)
		}
	}
}

// TestWireRequestsParse checks that the pre-serialised bytes are requests
// net/http's server would read the way the script meant them, seq patched
// in place.
func TestWireRequestsParse(t *testing.T) {
	w, _ := workloadByName("mixed_planner")
	seen := map[kind]bool{}
	for i, r := range w.script(1, 200)[1] {
		seq := int64(1000 + i)
		wire := append([]byte(nil), r.wire...)
		patchSeq(wire[r.seqOff:r.seqOff+seqWidth], seq, r.pad)
		req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(wire)))
		if err != nil {
			t.Fatalf("request %d (%s): %v", i, r.kind, err)
		}
		seen[r.kind] = true
		switch r.kind {
		case kindBrush:
			var br serve.BrushRequest
			if err := json.NewDecoder(req.Body).Decode(&br); err != nil {
				t.Fatalf("request %d: brush body: %v", i, err)
			}
			if br.Session != "s1" || br.Seq != seq || br.Moved != r.moved || len(br.Ranges) != 3 {
				t.Fatalf("request %d: decoded %+v", i, br)
			}
		case kindSQL:
			var qr serve.QueryRequest
			if err := json.NewDecoder(req.Body).Decode(&qr); err != nil {
				t.Fatalf("request %d: query body: %v", i, err)
			}
			if qr.Session != "s1" || qr.Seq != seq || qr.SQL != r.sql {
				t.Fatalf("request %d: decoded %+v", i, qr)
			}
		case kindTile:
			q := req.URL.Query()
			got, err := strconv.ParseInt(q.Get("seq"), 10, 64)
			if err != nil || got != seq || q.Get("session") != "s1" || q.Get("key") != r.tile.String() {
				t.Fatalf("request %d: tile query %v", i, q)
			}
			if r.tile.Z < 6 || r.tile.Z > 9 {
				t.Fatalf("request %d: zoom %d outside 6–9", i, r.tile.Z)
			}
		}
	}
	if len(seen) != 3 {
		t.Errorf("first 200 requests cover kinds %v, want all three", seen)
	}
}

func TestReadResponse(t *testing.T) {
	const first = `{"applied_seq":12,"coalesced":false,"total":3}`
	stream := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\ncontent-length: %d\r\n\r\n%s", len(first), first) +
		"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\n\r\n{}"
	c := &conn{br: bufio.NewReader(strings.NewReader(stream))}
	status, body, err := c.readResponse()
	if err != nil || status != 200 || string(body) != first {
		t.Fatalf("first response: status %d body %q err %v", status, body, err)
	}
	if got, ok := jsonInt(body, `"applied_seq":`); !ok || got != 12 {
		t.Errorf("jsonInt = %d, %v", got, ok)
	}
	brush := &request{kind: kindBrush}
	if !answerOK(brush, 12, status, body) || answerOK(brush, 13, status, body) {
		t.Error("answerOK must accept the sent seq and only that")
	}
	if answerOK(brush, 12, 200, []byte(`{"applied_seq":12,"degraded":true}`)) {
		t.Error("answerOK accepted a degraded answer")
	}
	if status, body, err = c.readResponse(); err != nil || status != 429 || string(body) != "{}" {
		t.Fatalf("second response: status %d body %q err %v", status, body, err)
	}
	if answerOK(brush, 12, status, body) {
		t.Error("answerOK accepted a 429")
	}
}

func TestPatchSeq(t *testing.T) {
	buf := make([]byte, seqWidth)
	for _, c := range []struct {
		seq  int64
		pad  byte
		want string
	}{{0, ' ', "         0"}, {7, ' ', "         7"}, {1234567890, ' ', "1234567890"}, {42, '0', "0000000042"}} {
		patchSeq(buf, c.seq, c.pad)
		if string(buf) != c.want {
			t.Errorf("patchSeq(%d, %q) = %q, want %q", c.seq, c.pad, buf, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesProgram holds BENCHMARK.json to what the program
// prints: the same workloads, and the same metric names with the same
// units, directions and bounds.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q / %q, the program %q / %q", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: name or why outside the contract", w.name)
		}
	}
	used := map[string]bool{}
	check := func(section string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program prints %d", section, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json says %+v, the program %+v", section, i, g, d)
			}
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) || used[d.name] {
				t.Errorf("%s: %q / %q outside the contract or used twice", section, d.name, d.unit)
			}
			used[d.name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: %s bound %v, the program %v (must be in (0, 0.25])", section, d.name, g.Bound, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: %s must not carry a bound", section, d.name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if len(spec.Paths) != 1 || spec.Paths[0] != "cmd/bench" {
		t.Errorf("paths = %v, want [cmd/bench]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
}
