package router

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datacube"
	"repro/internal/engine"
	"repro/internal/obsv"
	"repro/internal/shard"
	"repro/internal/sql"
)

// Config parameterizes a Fleet. The zero value of every tuning knob gets a
// production-shaped default; tests shrink the timing knobs to keep runs
// fast.
type Config struct {
	// Shards is the partition count — one shard child (per replica) each.
	Shards int
	// Replicas is the number of child processes per shard; 0 or 1 means
	// one. With 2+, brush legs route to a per-session affinity replica and
	// hedge to a warm sibling when the affinity replica is slow.
	Replicas int

	// Dataset, Rows, Seed, Encode describe the served partitioning;
	// children rebuild it deterministically from exactly these values.
	Dataset string
	Rows    int
	Seed    int64
	Encode  bool

	// SnapshotDir, when set, enables warm restarts: children try to mmap
	// their partition snapshot from this directory before falling back to
	// the deterministic rebuild, and cold builds write the snapshot for the
	// slot's next restart. Empty disables snapshots entirely.
	SnapshotDir string

	// ChildArgs is the argv exec'd for each child; empty means re-exec this
	// binary (os.Executable), which works for any host that calls
	// RunChildFromEnv first — including test binaries.
	ChildArgs []string
	// ChildStderr receives the children's stderr; nil discards it.
	ChildStderr io.Writer

	// HealthInterval is the probe cadence (default 50ms); HealthTimeout
	// bounds one probe (default 250ms — a dead child's socket accepts and
	// then hangs, so probes must time out, not error).
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	// FailThreshold is the consecutive probe failures after which a ready
	// child is killed and restarted (default 3).
	FailThreshold int
	// StartupTimeout bounds a child's build-to-ready window (default 60s).
	StartupTimeout time.Duration
	// BackoffBase/BackoffCap shape the capped jittered exponential restart
	// backoff (defaults 100ms / 2s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// DarkAfter is the consecutive crash count (spawns that died before
	// StableAfter of readiness) that parks a replica dark (default 5);
	// DarkRetry is the slow revival cadence once dark (default 30s).
	DarkAfter   int
	DarkRetry   time.Duration
	StableAfter time.Duration
	// HedgeAfter is how long a gather waits on the affinity replicas before
	// hedging each unanswered leg to a warm sibling (default 25ms);
	// RPCTimeout bounds a gather when the caller brings no deadline
	// (default 10s).
	HedgeAfter time.Duration
	RPCTimeout time.Duration
}

func (c *Config) normalize() error {
	if c.Shards < 1 {
		return fmt.Errorf("router: need at least 1 shard")
	}
	if c.Dataset == "" {
		c.Dataset = "road"
	}
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	// Negative durations are rejected, not silently defaulted: a caller
	// computing a knob (say, a fraction of a deadline) that goes negative
	// has a bug upstream, and a "default" would hide it — worse, a negative
	// value that slipped past defaulting would feed rand.Int63n a
	// non-positive bound in the backoff jitter.
	for name, d := range map[string]time.Duration{
		"HealthInterval": c.HealthInterval,
		"HealthTimeout":  c.HealthTimeout,
		"StartupTimeout": c.StartupTimeout,
		"BackoffBase":    c.BackoffBase,
		"BackoffCap":     c.BackoffCap,
		"DarkRetry":      c.DarkRetry,
		"StableAfter":    c.StableAfter,
		"HedgeAfter":     c.HedgeAfter,
		"RPCTimeout":     c.RPCTimeout,
	} {
		if d < 0 {
			return fmt.Errorf("router: negative %s (%v)", name, d)
		}
	}
	def := func(d *time.Duration, v time.Duration) {
		if *d <= 0 {
			*d = v
		}
	}
	def(&c.HealthInterval, 50*time.Millisecond)
	def(&c.HealthTimeout, 250*time.Millisecond)
	def(&c.StartupTimeout, 60*time.Second)
	def(&c.BackoffBase, 100*time.Millisecond)
	def(&c.BackoffCap, 2*time.Second)
	def(&c.DarkRetry, 30*time.Second)
	def(&c.StableAfter, 2*time.Second)
	def(&c.HedgeAfter, 25*time.Millisecond)
	def(&c.RPCTimeout, 10*time.Second)
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.DarkAfter <= 0 {
		c.DarkAfter = 5
	}
	return nil
}

// Stats is a fleet counters snapshot.
type Stats struct {
	Shards    int   `json:"shards"`
	Replicas  int   `json:"replicas"`
	Records   int   `json:"records"`
	Spawns    int64 `json:"spawns"`
	Restarts  int64 `json:"restarts"`
	Darks     int64 `json:"dark_events"`
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
	// WarmStarts counts generations that came up from a mapped snapshot;
	// the restart-window stats aggregate observed down→ready latencies.
	WarmStarts     int64   `json:"warm_starts"`
	RestartWindows int64   `json:"restart_windows"`
	RestartMeanMS  float64 `json:"restart_mean_ms"`
	RestartMaxMS   float64 `json:"restart_max_ms"`
	// RPCs counts data-plane calls written to a replica; Redials counts
	// data connections re-established after a failure. RPCP50US is the
	// parent-measured call time (frame written → reply dispatched),
	// ChildServiceP50US the child's own share of it (frame read → reply
	// encoded); the difference is the hop.
	RPCs              int64   `json:"rpcs"`
	Redials           int64   `json:"redials"`
	RPCP50US          float64 `json:"rpc_p50_us"`
	ChildServiceP50US float64 `json:"child_service_p50_us"`
}

// Fleet supervises Shards×Replicas shard child processes and implements
// the serving layer's Gatherer over them: ScatterBrush and QueryHistogram
// fan one request out (one leg per shard, with affinity and hedging across
// replicas) and assemble the answers into a shard.Gather, so the serving
// layer's ladder sees exactly the coverage semantics — and the merges — the
// in-process coordinator gives it.
type Fleet struct {
	cfg  Config
	dims []datacube.Dim
	reps [][]*replica // [shard][replica]

	healthClient *http.Client // control plane: probes and chaos

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	closed atomic.Bool

	recordsMu    sync.Mutex
	shardRecords []int // -1 until the shard first reports
	totalRecords atomic.Int64
	recordsKnown atomic.Bool

	spawns    atomic.Int64
	restarts  atomic.Int64
	darks     atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
	rpcs      atomic.Int64
	redials   atomic.Int64
	rpcHist   obsv.Histogram // parent-measured call time
	childHist obsv.Histogram // child-reported service time

	// changed is closed and replaced at every supervision transition, so
	// waiters block on fleet state instead of polling it.
	changedMu sync.Mutex
	changed   chan struct{}

	warmStarts     atomic.Int64
	restartCount   atomic.Int64
	restartTotalNS atomic.Int64
	restartMaxNS   atomic.Int64
}

// noteRestartWindow records one observed down→ready window.
func (f *Fleet) noteRestartWindow(w time.Duration) {
	f.restartCount.Add(1)
	f.restartTotalNS.Add(int64(w))
	for {
		cur := f.restartMaxNS.Load()
		if int64(w) <= cur || f.restartMaxNS.CompareAndSwap(cur, int64(w)) {
			return
		}
	}
}

// New builds the fleet: one pre-bound loopback listener per replica slot
// (held by the parent across child restarts) and one supervisor goroutine
// per slot, spawning immediately. Returns before any child is ready; use
// WaitReady to block for full coverage.
func New(cfg Config) (*Fleet, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	dims, err := DatasetDims(cfg.Dataset, cfg.Seed, cfg.Rows)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &Fleet{
		cfg:     cfg,
		dims:    dims,
		ctx:     ctx,
		cancel:  cancel,
		changed: make(chan struct{}),
		healthClient: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 2,
			IdleConnTimeout:     30 * time.Second,
		}},
		shardRecords: make([]int, cfg.Shards),
	}
	for i := range f.shardRecords {
		f.shardRecords[i] = -1
	}
	for s := 0; s < cfg.Shards; s++ {
		var row []*replica
		for i := 0; i < cfg.Replicas; i++ {
			rep, err := f.newReplica(s, i)
			if err != nil {
				f.Close()
				return nil, err
			}
			row = append(row, rep)
			f.wg.Add(1)
			go rep.supervise()
		}
		f.reps = append(f.reps, row)
	}
	return f, nil
}

// newReplica binds the slot's two loopback listeners — control (HTTP) and
// data (frames) — and dups them for passing across exec.
func (f *Fleet) newReplica(shardIdx, idx int) (*replica, error) {
	rep := &replica{fleet: f, shard: shardIdx, idx: idx}
	var err error
	if rep.addr, rep.ln, err = bindInherited(); err == nil {
		rep.dataAddr, rep.dataLn, err = bindInherited()
	}
	if err != nil {
		rep.closeListeners()
		return nil, fmt.Errorf("router: shard %d replica %d: %w", shardIdx, idx, err)
	}
	rep.data = newDataConn(rep)
	return rep, nil
}

// bindInherited binds a loopback listener and returns its address and a
// dup of its socket. The net.Listener itself is closed right away — the dup
// keeps the socket open and LISTENING for the fleet's whole life, which is
// what lets connections queue in the kernel backlog while a child restarts.
func bindInherited() (string, *os.File, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	file, err := ln.(*net.TCPListener).File()
	addr := ln.Addr().String()
	ln.Close()
	if err != nil {
		return "", nil, fmt.Errorf("dup listener: %w", err)
	}
	return addr, file, nil
}

// stateChanged returns a channel closed at the next supervision transition.
// Take it before checking the condition it guards, or a transition between
// the check and the wait is missed.
func (f *Fleet) stateChanged() <-chan struct{} {
	f.changedMu.Lock()
	defer f.changedMu.Unlock()
	return f.changed
}

// noteChange wakes everything blocked on stateChanged.
func (f *Fleet) noteChange() {
	f.changedMu.Lock()
	close(f.changed)
	f.changed = make(chan struct{})
	f.changedMu.Unlock()
}

func (f *Fleet) replicas() int { return f.cfg.Replicas }

// Dims returns the global cube dimensions the fleet serves — what the
// serving layer passes as GatherDims.
func (f *Fleet) Dims() []datacube.Dim { return f.dims }

// Records returns the total record count across all shards (0 until every
// shard has reported once).
func (f *Fleet) Records() int { return int(f.totalRecords.Load()) }

// ShardRecords returns shard i's partition record count, or 0 if it has
// never reported — tests compute exact expected covered fractions from it.
func (f *Fleet) ShardRecords(i int) int {
	f.recordsMu.Lock()
	defer f.recordsMu.Unlock()
	if f.shardRecords[i] < 0 {
		return 0
	}
	return f.shardRecords[i]
}

// ReplicaPID returns the replica's current child PID (0 while down).
func (f *Fleet) ReplicaPID(shardIdx, idx int) int { return f.reps[shardIdx][idx].currentPID() }

// AffinityReplica returns the replica index a session's gather legs prefer
// — a stable hash, so one session's brushes keep hitting the same warm
// replica (its CPU caches, its data connection) across requests.
func (f *Fleet) AffinityReplica(shardIdx int, session string) int {
	if f.cfg.Replicas == 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(session); i++ {
		h ^= uint64(session[i])
		h *= 1099511628211
	}
	h ^= uint64(shardIdx) * 0x9e3779b97f4a7c15
	return int(h % uint64(f.cfg.Replicas))
}

// noteShardRecords pins one shard's partition size the first time any of
// its replicas reports ready; once every shard is known the fleet total is
// published and coverage fractions become exact.
func (f *Fleet) noteShardRecords(shardIdx, records int) {
	f.recordsMu.Lock()
	defer f.recordsMu.Unlock()
	if f.shardRecords[shardIdx] < 0 {
		f.shardRecords[shardIdx] = records
	}
	total := 0
	for _, n := range f.shardRecords {
		if n < 0 {
			return
		}
		total += n
	}
	f.totalRecords.Store(int64(total))
	f.recordsKnown.Store(true)
	f.noteChange()
}

// Health implements serve.HealthReporter: ready means every shard has at
// least one serving replica; the detail is the full per-replica breakdown.
func (f *Fleet) Health() (bool, any) {
	ready := true
	detail := make([]ReplicaHealth, 0, f.cfg.Shards*f.cfg.Replicas)
	for _, row := range f.reps {
		shardUp := false
		for _, rep := range row {
			h := rep.health()
			detail = append(detail, h)
			if h.State == StateReady.String() {
				shardUp = true
			}
		}
		if !shardUp {
			ready = false
		}
	}
	if !f.recordsKnown.Load() {
		ready = false
	}
	return ready, detail
}

// Stats snapshots the fleet counters.
func (f *Fleet) Stats() Stats {
	s, _, _ := f.snapshot()
	return s
}

// snapshot reads the counters and the two data-plane histograms once; the
// p50s in Stats come from the very snapshots returned beside it.
func (f *Fleet) snapshot() (s Stats, rpc, childService obsv.HistSnapshot) {
	rpc, childService = f.rpcHist.Snapshot(), f.childHist.Snapshot()
	s = Stats{
		Shards:            f.cfg.Shards,
		Replicas:          f.cfg.Replicas,
		Records:           f.Records(),
		Spawns:            f.spawns.Load(),
		Restarts:          f.restarts.Load(),
		Darks:             f.darks.Load(),
		Hedges:            f.hedges.Load(),
		HedgeWins:         f.hedgeWins.Load(),
		WarmStarts:        f.warmStarts.Load(),
		RestartWindows:    f.restartCount.Load(),
		RestartMaxMS:      float64(f.restartMaxNS.Load()) / float64(time.Millisecond),
		RPCs:              f.rpcs.Load(),
		Redials:           f.redials.Load(),
		RPCP50US:          float64(rpc.Percentile(50)) / float64(time.Microsecond),
		ChildServiceP50US: float64(childService.Percentile(50)) / float64(time.Microsecond),
	}
	if s.RestartWindows > 0 {
		s.RestartMeanMS = float64(f.restartTotalNS.Load()) / float64(s.RestartWindows) / float64(time.Millisecond)
	}
	return s, rpc, childService
}

// WaitReady blocks until every shard has a ready replica and the fleet's
// record total is pinned, or ctx expires.
func (f *Fleet) WaitReady(ctx context.Context) error {
	for {
		changed := f.stateChanged()
		if ready, _ := f.Health(); ready {
			return nil
		}
		select {
		case <-ctx.Done():
			ready, detail := f.Health()
			if ready {
				return nil
			}
			return fmt.Errorf("router: fleet not ready: %w (%+v)", ctx.Err(), detail)
		case <-f.ctx.Done():
			return fmt.Errorf("router: fleet closed")
		case <-changed:
		}
	}
}

// RPCStats implements serve.RPCReporter: the fleet counters for /metrics
// JSON and the two data-plane latency histograms for the Prometheus
// exposition.
func (f *Fleet) RPCStats() (stats any, rpc, childService obsv.HistSnapshot) {
	return f.snapshot()
}

// Close stops the supervisors, kills and reaps every child, and releases
// the parent-held listeners. Idempotent; implements the Gatherer lifecycle
// the serving layer drives from Drain.
func (f *Fleet) Close() {
	if f.closed.Swap(true) {
		return
	}
	f.cancel()
	f.wg.Wait()
	for _, row := range f.reps {
		for _, rep := range row {
			rep.data.close()
			rep.closeListeners()
		}
	}
	f.healthClient.CloseIdleConnections()
}

// ScatterBrush implements the serving layer's Gatherer across the process
// boundary: one brush leg per shard, routed by the session's affinity.
func (f *Fleet) ScatterBrush(ctx context.Context, session string, filters []*datacube.Range) (*shard.Gather, error) {
	return f.scatter(ctx, session, appendRanges(append(make([]byte, 0, 1+4+8*rangeEntry), opBrush), filters))
}

// QueryHistogram is the Gatherer's SQL face, with the in-process
// coordinator's contract: the children's raw (bin, count) rows merged by
// addition beside the record fraction they cover. The children hold the
// tables, so they judge the shape: one that answers 501 has no merge law
// for the statement and the bool is false. Affinity is by statement text,
// which spreads distinct statements over a shard's replicas.
func (f *Fleet) QueryHistogram(ctx context.Context, query string) (*engine.Result, float64, bool, error) {
	if _, err := sql.Parse(query); err != nil {
		return nil, 0, false, err // nothing a child could answer
	}
	g, err := f.scatter(ctx, query, append(append(make([]byte, 0, 1+len(query)), opHistogram), query...))
	if err != nil {
		return nil, 0, true, err
	}
	for _, err := range g.Errs {
		var ce *childError
		if errors.As(err, &ce) && ce.code == http.StatusNotImplemented {
			return nil, 0, false, nil
		}
	}
	if g.Covered() == 0 {
		return nil, 0, true, g.FirstErr()
	}
	return g.MergeHistogram(), g.Fraction(), true, nil
}

// scatter is the one gather both ops ride: req (an op byte and its body,
// opaque here) goes to one replica per shard — the affinity key's replica
// first, hedged to a warm sibling when slow, failed over to one at once on
// error — and the answers are assembled into a shard.Gather whose coverage
// accounting is exactly the in-process coordinator's: a dead shard's
// records fall out of the covered fraction, and the serving ladder degrades
// on it the same way.
//
// The whole gather runs on the calling goroutine: every leg's request is
// written before any reply is awaited, and one select loop then takes the
// replies (delivered by the replicas' connection readers), the hedge timer
// and the deadline. All legs start together under one budget, so one timer
// hedges them all.
func (f *Fleet) scatter(ctx context.Context, affinity string, req []byte) (*shard.Gather, error) {
	if f.closed.Load() {
		return nil, fmt.Errorf("router: fleet closed")
	}
	if !f.recordsKnown.Load() {
		// Without every shard's record count the covered fraction of a
		// partial gather would be wrong; refuse rather than misreport.
		return nil, fmt.Errorf("router: fleet still coming up (coverage totals unknown)")
	}
	shards, replicas := f.cfg.Shards, f.cfg.Replicas
	g := gather{
		f:     f,
		ctx:   ctx,
		req:   req,
		legs:  make([]leg, shards),
		calls: make([]outCall, 0, shards*replicas),
		// Each leg calls each replica at most once and each call delivers at
		// most one result, so no reader ever blocks on this gather — not even
		// after it returned.
		ch: make(chan rpcResult, shards*replicas),
	}
	answers := make([]*shard.Answer, shards)
	errs := make([]error, shards)
	waiting := 0
	for s := range g.legs {
		g.legs[s].aff = f.AffinityReplica(s, affinity)
		if g.call(s) {
			waiting++
		} else {
			errs[s] = g.legs[s].failure(s)
			g.legs[s].done = true
		}
	}
	defer g.dropOpen()

	// Callers without a deadline (the ladder's no-deadlines baseline) still
	// must not hang on a dead shard forever: bound the gather by RPCTimeout.
	deadline, hasDeadline := ctx.Deadline()
	var timeoutC <-chan time.Time
	if !hasDeadline {
		t := time.NewTimer(f.cfg.RPCTimeout)
		defer t.Stop()
		timeoutC = t.C
	}
	var hedgeC <-chan time.Time
	if replicas > 1 {
		delay := f.cfg.HedgeAfter
		if hasDeadline {
			// Never hedge later than half the remaining budget: a hedge
			// that cannot finish before the deadline is pure waste.
			if rem := time.Until(deadline) / 2; rem < delay {
				delay = rem
			}
		}
		if delay < 0 {
			delay = 0
		}
		t := time.NewTimer(delay)
		defer t.Stop()
		hedgeC = t.C
	}

	for waiting > 0 {
		select {
		case res := <-g.ch:
			c := &g.calls[res.call]
			c.open = false
			l := &g.legs[c.leg]
			if l.done {
				continue // the race's loser
			}
			l.inflight--
			if res.err == nil {
				if c.hedged {
					f.hedgeWins.Add(1)
				}
				answers[c.leg] = res.ans
				l.done = true
				waiting--
				continue
			}
			if l.err == nil {
				l.err = res.err
			}
			// One replica's failure must never fail the leg while a sibling
			// can serve: fail over now, hedge timer or not. The leg errs
			// only once every serving replica has.
			if !g.call(c.leg) && l.inflight == 0 {
				errs[c.leg] = l.failure(c.leg)
				l.done = true
				waiting--
			}
		case <-hedgeC:
			hedgeC = nil
			for s := range g.legs {
				if l := &g.legs[s]; !l.done && l.attempts == 1 {
					g.call(s)
				}
			}
		case <-ctx.Done():
			g.abandon(errs, ctx.Err())
			waiting = 0
		case <-timeoutC:
			g.abandon(errs, context.DeadlineExceeded)
			waiting = 0
		}
	}
	return shard.NewGather(answers, errs, f.Records()), nil
}

// gather is one scatter's bookkeeping.
type gather struct {
	f     *Fleet
	ctx   context.Context
	req   []byte
	legs  []leg
	calls []outCall
	ch    chan rpcResult
}

// leg is one shard's share of a gather. Its replicas form a ring starting
// at the session's affinity replica; tried counts how far round it the leg
// has looked, attempts how many of those were serving and were sent to.
type leg struct {
	aff      int
	tried    int
	attempts int
	inflight int
	done     bool
	err      error // the first failure, reported if every replica fails
}

func (l *leg) failure(shardIdx int) error {
	if l.err != nil {
		return l.err
	}
	return fmt.Errorf("router: shard %d has no serving replica", shardIdx)
}

// outCall is one written request; open until its result arrives.
type outCall struct {
	conn   *dataConn
	id     uint64
	leg    int
	hedged bool
	open   bool
}

// call sends leg s's request to the next replica round its ring that is
// serving, and reports whether one took it. Supervision state is read at
// call time, not once per gather: a replica whose supervisor has it
// starting/restarting/dark is skipped — the router's free failure detector,
// saving the timeout on provably dead children — while a ready or merely
// unhealthy one gets its chance (its probe failures may be a blip the call
// survives), including a sibling that came up after the gather began. Every
// call after a leg's first counts as a hedge, whether the timer or a
// failure prompted it.
func (g *gather) call(s int) bool {
	l := &g.legs[s]
	row := g.f.reps[s]
	for l.tried < len(row) {
		rep := row[(l.aff+l.tried)%len(row)]
		l.tried++
		if st := rep.getState(); st != StateReady && st != StateUnhealthy {
			continue
		}
		hedged := l.attempts > 0
		l.attempts++
		id, err := rep.data.send(g.ctx, g.req, g.ch, len(g.calls))
		if err != nil {
			if l.err == nil {
				l.err = err
			}
			continue
		}
		if hedged {
			g.f.hedges.Add(1)
		}
		g.calls = append(g.calls, outCall{conn: rep.data, id: id, leg: s, hedged: hedged, open: true})
		l.inflight++
		return true
	}
	return false
}

// abandon gives up on every unanswered leg with err.
func (g *gather) abandon(errs []error, err error) {
	for s := range g.legs {
		if !g.legs[s].done {
			errs[s] = err
		}
	}
}

// dropOpen forgets the calls still unanswered when the gather returns —
// hedge losers and legs cut by the deadline — so their replies, if they
// ever come, are discarded by id.
func (g *gather) dropOpen() {
	for i := range g.calls {
		if c := &g.calls[i]; c.open {
			c.conn.drop(c.id)
		}
	}
}
