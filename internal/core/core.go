// Package core is the library's facade: it applies the paper's evaluation
// methodology to one interactive workload run. Give it the run's issue and
// completion timestamps (any widget, any backend) and it produces the
// metric set the paper prescribes — the two novel frontend metrics (query
// issuing frequency and latency constraint violations), the latency
// summary, the Figure 3 frontend/backend quadrant, and guideline notes
// derived from the perception literature and Section 5.
//
// The heavier machinery (simulated users, the SQL engine, the per-figure
// experiments) lives in the sibling packages; core is what a downstream
// system plugs its own trace into.
package core

import (
	"fmt"
	"time"

	"repro/internal/metrics"
)

// Run is one recorded interactive session against a backend: parallel
// issue/finish timestamp series plus optional execution costs.
type Run struct {
	Name string
	// Issues and Finishes are parallel and issue-ordered.
	Issues   []time.Duration
	Finishes []time.Duration
	// Exec optionally carries per-query backend execution time; when
	// absent, capacity analysis falls back to observed latencies.
	Exec []time.Duration
	// SessionEnd, when positive, lets the final query count toward LCV.
	SessionEnd time.Duration
}

// Quadrant is the Figure 3 classification of a run.
type Quadrant int

// Figure 3 quadrants.
const (
	Good Quadrant = iota
	PerceivedSlow
	OverwhelmedBackend
	Unresponsive
)

// String names the quadrant in the paper's terms.
func (q Quadrant) String() string {
	switch q {
	case Good:
		return "good"
	case PerceivedSlow:
		return "perceived slow (low QIF, slow backend)"
	case OverwhelmedBackend:
		return "overwhelmed backend — need to throttle QIF"
	case Unresponsive:
		return "unresponsive"
	default:
		return fmt.Sprintf("Quadrant(%d)", int(q))
	}
}

// Assessment is the evaluation of one run.
type Assessment struct {
	Name        string
	QIF         metrics.QIF
	LCV         int
	LCVFraction float64
	// LatencyMs summarizes perceived latency in milliseconds.
	LatencyMs metrics.Summary
	Quadrant  Quadrant
	// Notes carries guideline-derived observations (perception thresholds,
	// throttling advice).
	Notes []string
}

// highQIFThreshold separates continuous-manipulation workloads (sliders,
// gestures — tens of queries per second) from discrete ones.
const highQIFThreshold = 20.0

// Evaluate applies the paper's metric set to a run. It panics only on
// mismatched issue/finish series (via metrics.LCV); an empty run yields a
// zero assessment.
func Evaluate(run Run) Assessment {
	a := Assessment{Name: run.Name}
	if len(run.Issues) == 0 {
		return a
	}
	a.QIF = metrics.MeasureQIF(run.Issues)
	a.LCV = metrics.LCV(run.Issues, run.Finishes, run.SessionEnd)
	a.LCVFraction = metrics.LCVFraction(run.Issues, run.Finishes, run.SessionEnd)

	lats := make([]float64, len(run.Issues))
	for i := range run.Issues {
		lats[i] = float64(run.Finishes[i]-run.Issues[i]) / float64(time.Millisecond)
	}
	a.LatencyMs = metrics.Summarize(lats)

	// Backend capacity: mean execution time if supplied, else mean latency.
	capacityMs := a.LatencyMs.Mean
	if len(run.Exec) > 0 {
		capacityMs = metrics.Summarize(metrics.Durations(run.Exec)).Mean
	}
	highQIF := a.QIF.PerSecond >= highQIFThreshold
	var issueIntervalMs float64
	if a.QIF.PerSecond > 0 {
		issueIntervalMs = 1000 / a.QIF.PerSecond
	}
	// The backend is slow when it breaches the 500 ms interactivity
	// threshold, cannot keep pace with the issue rate, or demonstrably
	// falls behind (violations measured on the actual, bursty trace —
	// mean rates hide bursts).
	slow := capacityMs > 500 ||
		(issueIntervalMs > 0 && capacityMs > issueIntervalMs) ||
		a.LCVFraction > 0.25

	switch {
	case !slow:
		a.Quadrant = Good
	case highQIF && a.LCVFraction > 0.5:
		a.Quadrant = Unresponsive
	case highQIF:
		a.Quadrant = OverwhelmedBackend
	default:
		a.Quadrant = PerceivedSlow
	}

	a.Notes = notes(a, capacityMs)
	return a
}

// notes derives guideline observations from the measurements.
func notes(a Assessment, capacityMs float64) []string {
	var out []string
	if a.LatencyMs.Median > 500 {
		out = append(out, "median latency exceeds the 500 ms threshold Liu & Heer found to measurably degrade exploratory analysis")
	} else if a.LatencyMs.Median > 100 {
		out = append(out, "median latency is above the ~100 ms direct-manipulation comfort band; consider prefetching or approximation")
	}
	if a.Quadrant == OverwhelmedBackend || a.Quadrant == Unresponsive {
		out = append(out, fmt.Sprintf("frontend issues %.0f q/s but the backend sustains only %.0f q/s — throttle the query issuing frequency or filter queries (Skip, KL)", a.QIF.PerSecond, 1000/capacityMs))
	}
	if a.LCVFraction > 0.25 {
		out = append(out, fmt.Sprintf("%.0f%% of queries violate the latency constraint: results routinely arrive after the user has moved on", a.LCVFraction*100))
	}
	if len(out) == 0 {
		out = append(out, "within interactive budgets; validate with a user study covering both factor families")
	}
	return out
}

// String renders the assessment as a compact report.
func (a Assessment) String() string {
	return fmt.Sprintf("%s: qif %.1f/s, lcv %d (%.0f%%), latency median %.1f ms (max %.1f ms), quadrant: %s",
		a.Name, a.QIF.PerSecond, a.LCV, a.LCVFraction*100, a.LatencyMs.Median, a.LatencyMs.Max, a.Quadrant)
}
