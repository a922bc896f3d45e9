package serve

import (
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obsv"
	"repro/internal/tracefmt"
)

// request is one /v1 request's lifecycle, the same for every endpoint:
//
//	begin → refuse | run (query, tiles) / coalesce (brush) → reply | fail → end
//
// It is the only code that touches the breaker's admission token, the
// session's in-flight entry, the stage trace and the request log, so each is
// resolved exactly once however the request ends. The breaker rule: a
// verdict comes only from a backend execution — run's, judged when the
// request is answered, or the brush ladder's own — and a request that ends
// without one (tile cache hit, 429 shed, drain 503) hands back the half-open
// probe it may be holding instead of leaving every later request rejected.
type request struct {
	s       *Server
	w       http.ResponseWriter
	session string
	seq     int64
	kind    string

	start time.Time // issue time: latency origin, budget origin, breaker token
	id    int64
	tr    *obsv.Trace
	sess  *sessionState // nil only for a request the breaker rejected

	ran bool // run executed on the backend: the answer carries a verdict
}

// begin issues one request: the breaker admits it, or it is answered 503 with
// the remaining cooldown as Retry-After and nil is returned; then it joins
// its session's in-flight set.
func (s *Server) begin(w http.ResponseWriter, session string, seq int64, kind string) *request {
	now := time.Now()
	r := &request{s: s, w: w, session: session, seq: seq, kind: kind, start: now}
	// A reject still gets a trace: its whole life is the admission stage, so
	// open-breaker periods are visible in /v1/trace.
	r.tr = s.reg.tracer.Begin(session, seq, kind, now)
	ok, retryAfter := s.brk.allow(now)
	if !ok {
		s.reg.recordBreakerReject()
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retryAfter.Seconds()))))
		httpError(w, http.StatusServiceUnavailable, "serve: circuit breaker open")
		r.end(http.StatusServiceUnavailable, 0, false)
		return nil
	}
	r.id = s.nextID.Add(1)
	r.sess = s.session(session)
	r.sess.mu.Lock()
	s.issueLocked(r.sess, r.id, r.tr)
	r.sess.mu.Unlock()
	s.reg.recordIssue(now)
	return r
}

// issueLocked performs the per-issue bookkeeping under sess.mu: every
// still-unfinished request of this session becomes an LCV violation (its
// result had not arrived when the user acted again) and has its trace
// marked so the violation is attributed to a stage at finish, and this
// request joins the in-flight set.
func (s *Server) issueLocked(sess *sessionState, id int64, tr *obsv.Trace) {
	s.reg.recordLCV(len(sess.uncounted))
	for k, prev := range sess.uncounted {
		prev.MarkLCV()
		delete(sess.uncounted, k)
	}
	sess.uncounted[id] = tr
}

// refuse answers a request the admission queue would not take — 429 shed
// when it is full, 503 while draining — and un-issues it: it was never in
// flight, so no later issue may count it a violation.
func (r *request) refuse(err error) {
	status := http.StatusTooManyRequests
	if err == errDraining {
		status = http.StatusServiceUnavailable
	} else {
		r.s.reg.recordShed()
	}
	r.sess.mu.Lock()
	delete(r.sess.uncounted, r.id)
	r.sess.mu.Unlock()
	r.w.Header().Set("Retry-After", "1")
	httpError(r.w, status, err.Error())
	r.end(status, 0, false)
}

// run is the middle of a request that is one backend execution of its own
// (query, tiles): its whole ladder, fallback rungs included, on a pool
// worker. admitted false: the queue refused the request, which is answered.
func (r *request) run(rg rungs) (admitted bool, tier string, frac float64, err error) {
	done := make(chan struct{})
	// The queue stage opens before admit: a successful admit hands the trace
	// to the worker (the queue send is the happens-before edge), and the span
	// from here to the worker's Enter(StageExecute) is queue wait.
	r.tr.Enter(obsv.StageQueue)
	if aerr := r.s.admit(func() {
		r.tr.Enter(obsv.StageExecute)
		tier, frac, err = r.s.ladder(r.start, rg)
		r.tr.Enter(obsv.StageMerge)
		close(done)
	}); aerr != nil {
		r.refuse(aerr)
		return false, "", 0, nil
	}
	r.ran = true
	<-done
	return true, tier, frac, err
}

// answered takes the request out of its session's in-flight set, records its
// user-perceived latency, and gives the breaker the verdict of the
// execution run made, if it made one. After it no later issue can mark this
// request's trace, so the trace is safe to finish.
func (r *request) answered(healthy bool) {
	r.sess.mu.Lock()
	delete(r.sess.uncounted, r.id)
	r.sess.mu.Unlock()
	r.s.reg.recordLatency(time.Since(r.start))
	if !r.ran {
		return
	}
	if healthy {
		r.s.brk.success()
	} else {
		r.s.brk.failure(time.Now())
	}
}

// reply answers 200 with body.
func (r *request) reply(body any, appliedSeq int64, coalesced bool) {
	r.answered(true)
	r.tr.Enter(obsv.StageWrite)
	writeJSON(r.w, http.StatusOK, body)
	r.end(http.StatusOK, appliedSeq, coalesced)
}

// fail answers a request whose execution ended in err. A backend fault
// (injected error, blown budget) is 503 + Retry-After: 1 and an unhealthy
// verdict; any other error is answered with status and leaves the backend
// healthy — the request was wrong, not the server.
func (r *request) fail(err error, status int) {
	fault := isBackendFault(err)
	if fault {
		status = http.StatusServiceUnavailable
		r.w.Header().Set("Retry-After", "1")
	}
	r.answered(!fault)
	r.s.reg.recordError()
	httpError(r.w, status, err.Error())
	r.end(status, 0, false)
}

// end closes the request out, once: the trace's visited stages feed the stage
// histograms (and its LCV flag its dominant stage's attribution counter), the
// record joins the /v1/trace ring, the request log gets its line, and a
// half-open probe nothing resolved goes back to the breaker.
func (r *request) end(status int, appliedSeq int64, coalesced bool) {
	s := r.s
	s.reg.tracer.Finish(r.tr, status)
	if r.sess != nil { // past the breaker: it may be holding the probe
		s.brk.handBack(r.start)
	}
	if s.cfg.Log == nil {
		return
	}
	rec := tracefmt.ServeRecord{
		TimestampMS: time.Since(s.start).Milliseconds(),
		Session:     r.session,
		Seq:         r.seq,
		Kind:        r.kind,
		Status:      status,
		LatencyMS:   float64(time.Since(r.start)) / float64(time.Millisecond),
		AppliedSeq:  appliedSeq,
		Coalesced:   coalesced,
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	_ = tracefmt.WriteServeTrace(s.cfg.Log, []tracefmt.ServeRecord{rec})
}
