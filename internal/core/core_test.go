package core

import (
	"strings"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// seriesRun builds a run with n queries at the given issue interval and
// per-query latency.
func seriesRun(n int, interval, latency time.Duration) Run {
	r := Run{Name: "test"}
	for i := 0; i < n; i++ {
		issue := time.Duration(i) * interval
		r.Issues = append(r.Issues, issue)
		r.Finishes = append(r.Finishes, issue+latency)
		r.Exec = append(r.Exec, latency)
	}
	return r
}

func TestEvaluateEmpty(t *testing.T) {
	a := Evaluate(Run{Name: "empty"})
	if a.QIF.Queries != 0 || a.LCV != 0 {
		t.Errorf("empty assessment = %+v", a)
	}
}

func TestEvaluateGood(t *testing.T) {
	// 50 q/s, 5ms latency: fast backend, high QIF, no violations.
	a := Evaluate(seriesRun(100, ms(20), ms(5)))
	if a.Quadrant != Good {
		t.Errorf("quadrant = %v, want Good", a.Quadrant)
	}
	if a.LCV != 0 {
		t.Errorf("LCV = %d", a.LCV)
	}
	if a.QIF.PerSecond < 45 || a.QIF.PerSecond > 55 {
		t.Errorf("QIF = %v", a.QIF.PerSecond)
	}
	if len(a.Notes) == 0 {
		t.Error("no notes")
	}
}

func TestEvaluateOverwhelmed(t *testing.T) {
	// 50 q/s against a 300ms backend: the throttle quadrant.
	a := Evaluate(seriesRun(100, ms(20), ms(300)))
	// The cascade is fully realized (LCV ≈ 100%), so the run reads as
	// unresponsive — the outcome Figure 3 warns the throttle prevents.
	if a.Quadrant != Unresponsive {
		t.Errorf("quadrant = %v, want Unresponsive", a.Quadrant)
	}
	if a.LCVFraction < 0.9 {
		t.Errorf("LCVFraction = %v, want ~1", a.LCVFraction)
	}
	found := false
	for _, n := range a.Notes {
		if strings.Contains(n, "throttle") {
			found = true
		}
	}
	if !found {
		t.Errorf("no throttle note in %v", a.Notes)
	}
}

func TestEvaluatePerceivedSlow(t *testing.T) {
	// 1 query every 2s against a 700ms backend: low QIF, slow backend.
	a := Evaluate(seriesRun(20, 2*time.Second, ms(700)))
	if a.Quadrant != PerceivedSlow {
		t.Errorf("quadrant = %v, want PerceivedSlow", a.Quadrant)
	}
	// The 500ms perception note must fire.
	found := false
	for _, n := range a.Notes {
		if strings.Contains(n, "500 ms") {
			found = true
		}
	}
	if !found {
		t.Errorf("no perception note in %v", a.Notes)
	}
}

func TestEvaluateLatencyFallback(t *testing.T) {
	// Without Exec, capacity falls back to observed latency.
	r := seriesRun(50, ms(20), ms(300))
	r.Exec = nil
	a := Evaluate(r)
	if a.Quadrant != Unresponsive && a.Quadrant != OverwhelmedBackend {
		t.Errorf("quadrant = %v", a.Quadrant)
	}
}

func TestSessionEndCountsLastQuery(t *testing.T) {
	r := Run{
		Issues:     []time.Duration{0},
		Finishes:   []time.Duration{ms(100)},
		SessionEnd: ms(50),
	}
	a := Evaluate(r)
	if a.LCV != 1 {
		t.Errorf("LCV = %d, want 1 (finish after session end)", a.LCV)
	}
}

func TestQuadrantStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, q := range []Quadrant{Good, PerceivedSlow, OverwhelmedBackend, Unresponsive} {
		s := q.String()
		if s == "" || seen[s] {
			t.Errorf("bad quadrant string %q", s)
		}
		seen[s] = true
	}
}

func TestAssessmentString(t *testing.T) {
	a := Evaluate(seriesRun(10, ms(20), ms(5)))
	s := a.String()
	for _, want := range []string{"qif", "lcv", "quadrant"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}
