package opt

import (
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/storage"

	cf "repro/internal/crossfilter"
)

// ReplayResult is the outcome of replaying a crossfilter workload against a
// backend under one policy.
type ReplayResult struct {
	Policy   string
	Offered  int // query events offered by the interface
	Executed int // events that reached the backend
	Skipped  int // events dropped by the policy

	// Per executed event (coordinated groups share timing):
	Issues   []time.Duration
	Finishes []time.Duration
	Latency  []time.Duration
	Exec     []time.Duration
}

// LCV returns the number of latency-constraint violations among executed
// queries, with the constraint evaluated against the *offered* event
// stream's end.
func (r *ReplayResult) LCV() int {
	return metrics.LCV(r.Issues, r.Finishes, 0)
}

// LCVFraction returns violations as a fraction of executed queries.
func (r *ReplayResult) LCVFraction() float64 {
	return metrics.LCVFraction(r.Issues, r.Finishes, 0)
}

// OverConstraint counts executed queries whose user-perceived latency
// exceeded metrics.DefaultConstraint — the same fixed wall-clock budget the
// serving layer reports, so simulated and served runs are comparable.
func (r *ReplayResult) OverConstraint() int {
	return metrics.OverConstraint(r.Latency, metrics.DefaultConstraint)
}

// ReplayRaw submits every query event (the paper's "raw" condition).
func ReplayRaw(srv *engine.Server, events []QueryEvent) (*ReplayResult, error) {
	res := &ReplayResult{Policy: "raw", Offered: len(events)}
	for _, ev := range events {
		if err := submitEvent(srv, ev, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ReplaySkip implements the paper's Skip optimization (Algorithm 1): while
// the backend is busy, newly issued events replace the waiting one, so at
// most one event ever queues and stale queries are abandoned.
func ReplaySkip(srv *engine.Server, events []QueryEvent) (*ReplayResult, error) {
	res := &ReplayResult{Policy: "skip", Offered: len(events)}
	var pending *QueryEvent
	for i := range events {
		ev := events[i]
		// If the backend freed up before this event, flush the waiting one.
		if pending != nil && srv.BusyUntil() <= ev.At {
			if err := submitEvent(srv, *pending, res); err != nil {
				return nil, err
			}
			pending = nil
		}
		if srv.BusyUntil() <= ev.At {
			if err := submitEvent(srv, ev, res); err != nil {
				return nil, err
			}
			continue
		}
		if pending != nil {
			res.Skipped++
		}
		pending = &ev
	}
	if pending != nil {
		if err := submitEvent(srv, *pending, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// KLFilter decides client-side whether a query's result would differ enough
// from the last forwarded one to be worth sending, using approximate
// histograms over a sample (Algorithm 2). Threshold 0 forwards only
// result-changing queries; 0.2 forwards only substantially different ones.
type KLFilter struct {
	Threshold float64
	// QuantLevels is the mass resolution of the approximation (default 64):
	// histograms are quantized to 1/QuantLevels before comparison, so
	// sub-resolution changes — e.g. gesture jitter moving a fraction of a
	// bin's mass — read as "result unchanged" and are dropped even at
	// threshold 0, which is where the paper's drastic KL>0 reduction of
	// noisy queries comes from.
	QuantLevels int

	sample *cf.Crossfilter
	// last admitted approximate histograms per dimension
	last [][]int64
}

// NewKLFilter builds a filter approximating results on a sample table. The
// sample should be small (the paper cites hash/sampling/wavelet sketches);
// a few thousand rows approximate 20-bin histogram shape well.
func NewKLFilter(threshold float64, sample *storage.Table, columns []string) (*KLFilter, error) {
	c, err := cf.New(sample, columns, cf.DefaultBins)
	if err != nil {
		return nil, err
	}
	f := &KLFilter{Threshold: threshold, QuantLevels: 64, sample: c}
	f.last = quantizeAll(c.Histograms(), f.QuantLevels)
	return f, nil
}

func quantizeAll(hs [][]int64, levels int) [][]int64 {
	out := make([][]int64, len(hs))
	for i, h := range hs {
		out[i] = metrics.QuantizeCounts(h, levels)
	}
	return out
}

// Admit updates the sample state with the event's filter ranges and reports
// whether the approximate result diverges from the last admitted one by
// more than the threshold. Admitted events update the reference.
func (f *KLFilter) Admit(ev QueryEvent) bool {
	for d := range ev.Ranges {
		f.sample.SetFilter(d, ev.Ranges[d][0], ev.Ranges[d][1])
	}
	cur := quantizeAll(f.sample.Histograms(), f.QuantLevels)
	maxKL := 0.0
	for d := range cur {
		if d == ev.Moved {
			// The moved dimension's own view is not re-queried.
			continue
		}
		if kl := metrics.KLDivergence(f.last[d], cur[d]); kl > maxKL {
			maxKL = kl
		}
	}
	if maxKL > f.Threshold {
		f.last = cur
		return true
	}
	return false
}

// ReplayKL replays the workload through a KLFilter: only admitted events
// reach the backend (which still queues FIFO).
func ReplayKL(srv *engine.Server, events []QueryEvent, filter *KLFilter) (*ReplayResult, error) {
	res := &ReplayResult{Policy: klName(filter.Threshold), Offered: len(events)}
	for _, ev := range events {
		if !filter.Admit(ev) {
			res.Skipped++
			continue
		}
		if err := submitEvent(srv, ev, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func klName(t float64) string {
	return "KL>" + storage.NewFloat(t).String()
}

func submitEvent(srv *engine.Server, ev QueryEvent, res *ReplayResult) error {
	recs, err := srv.SubmitGroup(ev.At, ev.Stmts)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return nil
	}
	// Coordinated queries share timing; record the event once.
	r := recs[0]
	res.Executed++
	res.Issues = append(res.Issues, r.Issue)
	res.Finishes = append(res.Finishes, r.Finish)
	res.Latency = append(res.Latency, r.Latency())
	res.Exec = append(res.Exec, r.Exec)
	return nil
}
