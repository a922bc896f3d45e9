package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// player is one session: its connection, its script and where in the
// script and the seq space it stands. Sessions keep one running seq for
// the whole run, because the server only applies a brush whose seq is
// above the session's last.
type player struct {
	conn   *conn
	script []*request
	pos    int
	seq    int64
	cpu    int // the CPU the session's thread is pinned to; see confine.go
}

func (p *player) next() (*request, int64) {
	r := p.script[p.pos%len(p.script)]
	p.pos++
	p.seq++
	return r, p.seq
}

// span is one client-side trace span. Spans of one request share id;
// parent names the enclosing span ("" for the request itself).
type span struct {
	ID      int64  `json:"id"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// passResult is one pass's raw outcome, per session merged.
type passResult struct {
	latencies []float64 // ms, answered requests only
	lateUS    []float64 // generator timer overshoot, requests it applied to
	attempted int
	failed    int // transport error, non-200, degraded or wrong seq
	onTime    int
	sqls      int     // SQL requests sent, and the sum of their
	sqlKept   float64 // selectivities: what share of the table they kept
	elapsed   time.Duration
	spans     []span
}

func (r *passResult) merge(o *passResult) {
	r.latencies = append(r.latencies, o.latencies...)
	r.lateUS = append(r.lateUS, o.lateUS...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.onTime += o.onTime
	r.sqls += o.sqls
	r.sqlKept += o.sqlKept
	r.spans = append(r.spans, o.spans...)
}

// runPass runs fn once per session concurrently and merges the results.
// The generator collects its own garbage first so a cycle does not start
// inside the timed window.
func runPass(players []*player, fn func(i int, p *player) (*passResult, error)) (*passResult, error) {
	runtime.GC()
	results := make([]*passResult, len(players))
	errs := make([]error, len(players))
	var wg sync.WaitGroup
	start := time.Now()
	for i, p := range players {
		wg.Add(1)
		go func(i int, p *player) {
			defer wg.Done()
			// The session does blocking socket syscalls; give it its thread,
			// on the server's CPU. The thread is never unlocked, so it ends
			// with this goroutine and takes its affinity with it.
			runtime.LockOSThread()
			if errs[i] = pinThread(p.cpu); errs[i] != nil {
				return
			}
			results[i], errs[i] = fn(i, p)
		}(i, p)
	}
	wg.Wait()
	total := &passResult{elapsed: time.Since(start)}
	for i := range players {
		if errs[i] != nil {
			return nil, fmt.Errorf("session %d: %w", i, errs[i])
		}
		total.merge(results[i])
	}
	return total, nil
}

// pacedPass is the open loop: requests are due at a fixed aggregate rate,
// alternating over the sessions, for dur. A session with its previous
// request still outstanding sends the next one as soon as it can and is
// timed from when it was due (see latencyOrigin). With trace set, each
// request also records client-side spans.
func pacedPass(players []*player, rate float64, dur time.Duration, trace bool) (*passResult, error) {
	interval := pacedInterval(rate)
	n := pacedCount(rate, dur)
	start := time.Now().Add(5 * time.Millisecond)
	return runPass(players, func(i int, p *player) (*passResult, error) {
		res := &passResult{}
		first := start.Add(interval * time.Duration(i) / time.Duration(len(players)))
		prevDone := first
		for j := 0; j < n; j++ {
			due := first.Add(interval * time.Duration(j))
			sleepUntil(due)
			req, seq := p.next()
			sent := time.Now()
			status, body, err := p.conn.do(req, seq)
			done := time.Now()
			if err != nil {
				return nil, fmt.Errorf("%s seq %d: %w", req.kind, seq, err)
			}
			origin, late := latencyOrigin(due, prevDone, sent)
			if !prevDone.After(due) {
				res.lateUS = append(res.lateUS, usOf(late))
			}
			prevDone = done
			res.attempted++
			if req.kind == kindSQL {
				res.sqls++
				res.sqlKept += req.selectivity
			}
			lat := done.Sub(origin)
			if !answerOK(req, seq, status, body) {
				res.failed++
				continue
			}
			res.latencies = append(res.latencies, msOf(lat))
			if lat <= metrics.DefaultConstraint && done.Before(due.Add(interval)) {
				res.onTime++
			}
			if trace {
				id := int64(i)<<32 | seq
				res.spans = append(res.spans,
					span{ID: id, Name: req.kind.String(), StartNS: origin.UnixNano(), EndNS: done.UnixNano()},
					span{ID: id, Name: "queued_behind_previous", Parent: req.kind.String(), StartNS: origin.UnixNano(), EndNS: sent.UnixNano()},
					span{ID: id, Name: "round_trip", Parent: req.kind.String(), StartNS: sent.UnixNano(), EndNS: done.UnixNano()})
			}
		}
		return res, nil
	})
}

// pacedInterval is the time between two requests of one session at an
// aggregate rate; pacedCount is how many each session sends in dur.
func pacedInterval(rate float64) time.Duration {
	return time.Duration(float64(time.Second) * sessions / rate)
}

func pacedCount(rate float64, dur time.Duration) int { return int(dur / pacedInterval(rate)) }

// sleepUntil blocks in nanosleep(2) until t. The runtime's own timers wake
// through epoll with millisecond granularity, which on this kind of VM
// overshoots by ~1.1 ms at p95 — several times a brush's service time;
// the kernel's high-resolution sleep overshoots by tens of microseconds.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR (the runtime's preemption signal) just loops
	}
}

// satPass is the closed loop: every session sends its next request the
// moment the previous answer is read, for dur.
func satPass(players []*player, dur time.Duration) (*passResult, error) {
	return runPass(players, func(_ int, p *player) (*passResult, error) {
		res := &passResult{}
		deadline := time.Now().Add(dur)
		for time.Now().Before(deadline) {
			req, seq := p.next()
			status, body, err := p.conn.do(req, seq)
			if err != nil {
				return nil, fmt.Errorf("%s seq %d: %w", req.kind, seq, err)
			}
			res.attempted++
			if !answerOK(req, seq, status, body) {
				res.failed++
			}
		}
		return res, nil
	})
}
