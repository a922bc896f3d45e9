// Package router is the multi-process sharding layer: a Fleet supervises N
// idevald shard child processes (spawn, health-check, restart with capped
// jittered backoff, crash-loop darkening), routes brush traffic with
// per-session replica affinity, and gathers per-shard partial histograms
// with merge-by-addition exactly as internal/shard does in-process — so the
// serving layer's coalescing, degradation ladder, and metrics work
// unchanged across the process boundary.
//
// The process model is socket-activation style: the parent creates each
// replica's listener once and passes a dup across exec, so a shard's
// address is stable across restarts and the parent-held socket keeps
// accepting (into the kernel backlog) while a child is down — a restarting
// shard picks its pending connections back up instead of refusing them.
// Children are stateless: each one deterministically regenerates the
// dataset from (dataset, seed, rows) a block at a time, keeps only the rows
// shard.Partition would give it, laid out as Partition lays them out, as a
// shard.Replica — what an in-process coordinator holds per shard — and
// tells the parent over a pipe when it serves. It serves its raw
// unscaled answers (brush histograms, SQL histogram rows) over the binary
// frame data plane of frame.go, on a listener of its own beside the HTTP
// control plane (/readyz, /healthz, /chaosctl). Statelessness is what
// makes SIGKILL a recoverable event rather than data loss, and determinism
// is what makes a restarted shard re-fence onto exactly the records it
// owned before. With a SnapshotDir configured, the rebuild is a cold path
// only: the first build of a slot persists the partition as an mmap-able
// colstore snapshot, and every later restart maps it read-only and is
// ready in O(columns) — the fence (dataset, seed, rows, shard, encode,
// row layout) plus the snapshot checksum guarantee a warm start serves
// byte-identical answers or falls back to the rebuild.
package router

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/colstore"
	"repro/internal/datacube"
	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/storage"
)

// ChildEnv is the environment variable that flips a binary into shard-child
// mode: when set, the process is a re-exec'd shard child and must serve its
// partition instead of running its own main. cmd/idevald, cmd/bench, and
// the router test binaries all call RunChildFromEnv first thing, so any of
// them can host a child.
const ChildEnv = "IDEVAL_ROUTER_CHILD"

// childListenFD and childDataFD are the file descriptor numbers the parent
// passes the pre-bound control and data listeners on (the first two
// ExtraFiles slots after stdio); childReadyFD is the write end of a pipe
// the child writes one byte to once it serves, so the parent probes it
// then rather than on its next tick.
const (
	childListenFD = 3
	childDataFD   = 4
	childReadyFD  = 5
)

// ChildSpec tells a shard child which partition it owns. It rides ChildEnv
// as JSON across exec.
type ChildSpec struct {
	Dataset     string `json:"dataset"`
	Rows        int    `json:"rows"`
	Seed        int64  `json:"seed"`
	Shard       int    `json:"shard"`
	Of          int    `json:"of"`
	Encode      bool   `json:"encode,omitempty"`
	Parallelism int    `json:"parallelism,omitempty"`
	Generation  int    `json:"generation"`

	// SnapshotDir, when set, enables warm restarts: the child first tries
	// to mmap its partition snapshot from this directory (falling back to
	// the deterministic rebuild on any mismatch), and a cold build writes
	// the snapshot for the slot's next restart.
	SnapshotDir string `json:"snapshot_dir,omitempty"`
}

// RunChildFromEnv checks ChildEnv and, when set, runs the shard child until
// it is killed or told to stop. The bool reports whether child mode was
// engaged at all; hosts exit after it returns true.
func RunChildFromEnv() (bool, error) {
	raw := os.Getenv(ChildEnv)
	if raw == "" {
		return false, nil
	}
	var spec ChildSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		return true, fmt.Errorf("router child: bad spec: %w", err)
	}
	return true, runChild(spec)
}

// childReady is the child's /readyz body.
type childReady struct {
	Status     string `json:"status"` // "building" or "ready"
	Shard      int    `json:"shard"`
	Of         int    `json:"of"`
	Generation int    `json:"generation"`
	Records    int    `json:"records"`
	// WarmStart reports that this child came up from a mapped snapshot
	// rather than a rebuild; BuildMS is the build-to-ready wall time.
	WarmStart bool    `json:"warm_start,omitempty"`
	BuildMS   float64 `json:"build_ms,omitempty"`
}

// child is the shard-child server state: a shard.Replica behind a socket.
type child struct {
	spec ChildSpec
	dims []datacube.Dim
	rep  *shard.Replica // set by build, before ready

	// warm/buildMS describe how the partition came up; snap keeps a
	// warm-started child's mapping (and every view into it) alive for the
	// process lifetime — exit unmaps it.
	warm    bool
	buildMS float64
	snap    *colstore.Snapshot

	ready atomic.Bool
	// blackholeUntil (unix nanos) gates the data plane: while set in the
	// future, data frames are held unanswered — the listener-blackhole
	// chaos mode. The control plane keeps answering: a partitioned-but-alive
	// shard is slow, not dead, and its supervisor must not kill it for it.
	blackholeUntil atomic.Int64
	// beforeScan, when set, runs on a histogram op's goroutine ahead of its
	// scan — the tests' gate for holding one mid-flight.
	beforeScan func()
}

// inheritedListener adopts the listening socket the parent passed on fd.
func inheritedListener(fd int, name string) (net.Listener, error) {
	f := os.NewFile(uintptr(fd), name)
	if f == nil {
		return nil, fmt.Errorf("router child: no inherited listener on fd %d", fd)
	}
	defer f.Close()
	ln, err := net.FileListener(f)
	if err != nil {
		return nil, fmt.Errorf("router child: inherited fd %d: %w", fd, err)
	}
	return ln, nil
}

// runChild serves the child's partition on the inherited listeners until
// SIGTERM/SIGINT. Both planes start before the dataset build so health
// probes and early data frames get a real "building" answer instead of a
// connection that hangs in a backlog; the ready byte goes out when the
// build is done.
func runChild(spec ChildSpec) error {
	// Adopted first, so no descriptor opened below can land on its number.
	built := os.NewFile(childReadyFD, "router-ready")
	defer built.Close()
	ln, err := inheritedListener(childListenFD, "router-control")
	if err != nil {
		return err
	}
	dataLn, err := inheritedListener(childDataFD, "router-data")
	if err != nil {
		ln.Close()
		return err
	}

	c := &child{spec: spec}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", c.handleReadyz)
	mux.HandleFunc("/healthz", c.handleReadyz)
	mux.HandleFunc("/chaosctl", c.handleChaosctl)
	srv := &http.Server{Handler: mux}
	serveErr := make(chan error, 2)
	go func() { serveErr <- srv.Serve(ln) }()
	go func() { serveErr <- c.serveData(dataLn) }()

	buildErr := make(chan error, 1)
	go func() { buildErr <- c.build() }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-buildErr:
		if err != nil {
			srv.Close()
			return err
		}
		// A parent that is gone or never asked costs nothing but the error.
		_, _ = built.Write([]byte{1})
	case err := <-serveErr:
		return err
	case <-ctx.Done():
		return srv.Close()
	}
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			return srv.Close()
		}
		return nil
	}
}

// build brings the child's partition up, preferring the warm path: map the
// slot's snapshot and adopt its columns and prefix grid zero-copy in
// O(columns). Any snapshot problem — absent file, checksum failure, fence
// mismatch — falls back to the deterministic cold path (coldPartition): the
// child streams
// the dataset a block at a time and keeps only the rows the ownership rule
// every sibling applies gives it (shard.PartitionOne) — the re-fencing step
// that makes a restart land on exactly the records the dead instance owned
// — never holding the whole table, then writes the snapshot so the next
// restart of this slot is warm. Listings streams twice: once for the
// global domains, once for the rows. Either way the partition becomes a
// replica through the constructor in-process shards use.
func (c *child) build() error {
	start := time.Now()
	opts := shard.Options{Shards: c.spec.Of, Parallelism: c.spec.Parallelism, WithEngine: true}
	if c.spec.SnapshotDir != "" {
		ws, err := tryWarmStart(c.spec)
		switch {
		case err == nil:
			// The mapped columns are already in their at-rest encoding, and
			// the grid is integrated: nothing to freeze or count.
			if c.rep, err = shard.NewReplica(c.spec.Shard, ws.table, ws.dims, ws.prefix, opts); err != nil {
				ws.snap.Close()
				return err
			}
			c.dims, c.snap, c.warm = ws.dims, ws.snap, true
		case !errors.Is(err, fs.ErrNotExist):
			fmt.Fprintf(os.Stderr, "router child: falling back to rebuild: %v\n", err)
		}
	}
	if c.rep == nil {
		part, dims, err := coldPartition(c.spec)
		if err != nil {
			return err
		}
		opts.Encode = c.spec.Encode
		if c.rep, err = shard.NewReplica(c.spec.Shard, part, dims, nil, opts); err != nil {
			return fmt.Errorf("router child: %w", err)
		}
		c.dims = dims
		if c.spec.SnapshotDir != "" {
			if err := writeChildSnapshot(c.spec, c.rep.Table, dims, c.rep.Prefix); err != nil {
				// Best-effort: a failed write costs the next restart its warm
				// path, nothing else.
				fmt.Fprintf(os.Stderr, "router child: snapshot write failed: %v\n", err)
			}
		}
	}
	c.buildMS = float64(time.Since(start)) / float64(time.Millisecond)
	c.ready.Store(true)
	return nil
}

// coldPartition builds spec's partition from nothing, a block of the
// dataset at a time, over the global dimensions.
func coldPartition(spec ChildSpec) (*storage.Table, []datacube.Dim, error) {
	dims, err := DatasetDims(spec.Dataset, spec.Seed, spec.Rows)
	if err != nil {
		return nil, nil, err
	}
	blocks, err := datasetBlocks(spec.Dataset, spec.Seed, spec.Rows)
	if err != nil {
		return nil, nil, err
	}
	part, err := shard.PartitionOne(blocks, dims, spec.Of, spec.Shard)
	return part, dims, err
}

// coldBlock is the rows per block a cold build streams its dataset in:
// small beside a partition, large enough to amortise the per-block work.
const coldBlock = 1 << 13

// datasetBlocks returns the named dataset at (seed, rows) handed out
// coldBlock rows at a time.
func datasetBlocks(ds string, seed int64, rows int) (storage.Blocks, error) {
	switch ds {
	case "road":
		if rows <= 0 {
			rows = dataset.RoadCount
		}
		return dataset.RoadBlocks(seed, rows, coldBlock), nil
	case "listings":
		if rows <= 0 {
			rows = dataset.DefaultListingCount
		}
		return dataset.ListingsBlocks(seed, rows, coldBlock), nil
	default:
		return storage.Blocks{}, fmt.Errorf("router: unknown dataset %q", ds)
	}
}

// DatasetDims returns the GLOBAL cube dimensions the fleet serves for a
// dataset — what the parent passes to serve.Config.GatherDims, and the
// domains every child lays out and bins over, because bin edges must agree
// across shards or histogram addition is meaningless. Road's are
// constants; listings' are the min/max over every row, streamed a block at
// a time through the rule an in-process listings server applies to its
// whole table (serve.ListingsDomain).
func DatasetDims(ds string, seed int64, rows int) ([]datacube.Dim, error) {
	if ds == "road" {
		return serve.RoadCubeDims(), nil
	}
	blocks, err := datasetBlocks(ds, seed, rows)
	if err != nil {
		return nil, err
	}
	var domain serve.ListingsDomain
	blocks.Each(func(b *storage.Table) bool {
		err = domain.Add(b)
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	return domain.Dims()
}

func (c *child) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	body := childReady{
		Status:     "building",
		Shard:      c.spec.Shard,
		Of:         c.spec.Of,
		Generation: c.spec.Generation,
	}
	status := http.StatusServiceUnavailable
	if c.ready.Load() {
		body.Status = "ready"
		body.Records = c.rep.Table.NumRows()
		body.WarmStart = c.warm
		body.BuildMS = c.buildMS
		status = http.StatusOK
	}
	writeJSON(w, status, body)
}

// serveData accepts data connections until the listener fails. Connection
// goroutines are not tracked: a child is stateless and its process exit is
// their end — the parent sees the reset and fails over or redials.
func (c *child) serveData(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("router child: data accept: %w", err)
		}
		go func() {
			defer conn.Close()
			c.serveFrames(conn, conn)
		}()
	}
}

// maxConnScans bounds the histogram ops one connection runs at once. The
// parent's admission queue keeps in-flight calls far below it; it is there
// for scans whose caller gave up (a deadline does not cross the wire), and
// past it the connection backs up — a slow replica, which the parent
// hedges around.
const maxConnScans = 32

// serveFrames is one data connection's loop: read a request frame, answer
// it from the replica, write the response frame. A brush is a few
// microseconds of summed-area lookups, so it is answered inline, in order,
// in buffers reused for the connection's life; a histogram op is a scan of
// milliseconds and runs on its own goroutine, so the brushes behind it do
// not wait — call ids let the parent take replies in any order, and wmu
// keeps their frames whole. It returns, once its scans have, when the
// stream ends or can no longer be trusted (over-cap length, a payload too
// short to carry a call id); anything that has an id gets an answer.
func (c *child) serveFrames(r io.Reader, w io.Writer) {
	br := bufio.NewReader(r)
	var rbuf, wbuf []byte
	var sc *frameScratch // nil until the build is done
	var wmu sync.Mutex
	var scans sync.WaitGroup
	defer scans.Wait()
	slots := make(chan struct{}, maxConnScans)
	write := func(frame []byte, start time.Time) error {
		if frame[frameHeader+8] != statusError {
			le.PutUint64(frame[serviceNSOffset:], uint64(time.Since(start)))
		}
		wmu.Lock()
		defer wmu.Unlock()
		_, err := w.Write(frame)
		return err
	}
	for {
		var err error
		if rbuf, err = readFrame(br, rbuf); err != nil {
			return
		}
		start := time.Now()
		if len(rbuf) < 8 {
			return
		}
		id, req := le.Uint64(rbuf), rbuf[8:]
		c.holdData()
		if sc == nil && c.ready.Load() {
			sc = newFrameScratch(c.dims)
		}
		switch {
		case sc == nil:
			wbuf = appendError(wbuf[:0], id, http.StatusServiceUnavailable, "building")
		case len(req) == 0:
			wbuf = appendError(wbuf[:0], id, http.StatusBadRequest, "truncated request")
		case req[0] == opBrush:
			wbuf = c.answerBrush(wbuf[:0], id, req[1:], sc)
		case req[0] == opHistogram:
			query := string(req[1:]) // rbuf is reused by the next read
			slots <- struct{}{}
			scans.Add(1)
			go func() {
				defer scans.Done()
				defer func() { <-slots }()
				// A failed write shows up on the connection's own next read.
				_ = write(c.answerHistogram(id, query), start)
			}()
			continue
		default:
			wbuf = appendError(wbuf[:0], id, http.StatusBadRequest, fmt.Sprintf("unknown op %d", req[0]))
		}
		if write(wbuf, start) != nil {
			return
		}
	}
}

// frameScratch is one connection's decode and answer space, sized to the
// served dimensions.
type frameScratch struct {
	ranges  []datacube.Range
	filters []*datacube.Range
	hists   [][]int64
}

func newFrameScratch(dims []datacube.Dim) *frameScratch {
	return &frameScratch{
		ranges:  make([]datacube.Range, len(dims)),
		filters: make([]*datacube.Range, len(dims)),
		hists:   datacube.NewHistograms(dims),
	}
}

// holdData applies the blackhole to one data frame: it is parked until the
// hold that was in force on its arrival lapses — exactly what a
// partitioned-but-alive shard looks like from the router.
func (c *child) holdData() {
	if until := c.blackholeUntil.Load(); until > 0 {
		if hold := time.Until(time.Unix(0, until)); hold > 0 {
			time.Sleep(hold)
		}
	}
}

// answerBrush answers one brush scatter leg into b: per-dimension
// histograms over this partition plus the filtered count, raw and unscaled
// — or the refusal, as an error frame.
func (c *child) answerBrush(b []byte, id uint64, body []byte, sc *frameScratch) []byte {
	if err := decodeRanges(body, sc.ranges, sc.filters); err != nil {
		return appendError(b, id, http.StatusBadRequest, err.Error())
	}
	total, err := c.rep.Brush(sc.filters, sc.hists)
	if err != nil {
		return appendError(b, id, http.StatusInternalServerError, err.Error())
	}
	return appendOK(b, id, c.spec.Shard, c.spec.Generation, c.rep.Table.NumRows(), total, sc.hists)
}

// answerHistogram answers one histogram scatter leg in a frame of its own:
// this partition's (bin, count) rows and scan counters, raw and unscaled.
// A statement with no merge law is refused 501, which the parent reads as
// "not histogram-shaped".
func (c *child) answerHistogram(id uint64, query string) []byte {
	stmt, shaped, err := c.rep.Shaped(query)
	switch {
	case err != nil:
		return appendError(nil, id, http.StatusBadRequest, err.Error())
	case !shaped:
		return appendError(nil, id, http.StatusNotImplemented, "not a histogram-shaped statement")
	}
	if c.beforeScan != nil {
		c.beforeScan()
	}
	// The connection has no cancel op: a scan runs to its end.
	ans, err := c.rep.Histogram(context.Background(), stmt)
	if err != nil {
		return appendError(nil, id, http.StatusInternalServerError, err.Error())
	}
	return appendRows(nil, id, c.spec.Shard, c.spec.Generation, ans)
}

// handleChaosctl arms the listener blackhole: POST /chaosctl?blackhole_ms=N
// holds data frames unanswered for N milliseconds (0 stops holding new
// ones).
func (c *child) handleChaosctl(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	ms, err := time.ParseDuration(r.URL.Query().Get("blackhole_ms") + "ms")
	if err != nil || ms < 0 {
		httpError(w, http.StatusBadRequest, "want ?blackhole_ms=N")
		return
	}
	until := int64(0)
	if ms > 0 {
		until = time.Now().Add(ms).UnixNano()
	}
	c.blackholeUntil.Store(until)
	writeJSON(w, http.StatusOK, map[string]any{"blackhole_ms": ms.Milliseconds()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// defaultParallelism sizes a child's build parallelism: an even split of
// the machine across the fleet, floored at 1.
func defaultParallelism(of int) int {
	if of < 1 {
		of = 1
	}
	p := runtime.GOMAXPROCS(0) / of
	if p < 1 {
		p = 1
	}
	return p
}
