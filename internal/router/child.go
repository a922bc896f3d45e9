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
// Children are stateless: each one deterministically rebuilds the full
// dataset from (dataset, seed, rows), partitions it exactly as
// shard.Partition does, keeps only its own partition, and serves raw
// unscaled partial histograms — over the binary frame data plane of
// frame.go, on a listener of its own beside the HTTP control plane
// (/readyz, /healthz, /chaosctl). Statelessness is what makes SIGKILL a
// recoverable event rather than data loss, and determinism is what makes a
// restarted shard re-fence onto exactly the records it owned before. With a
// SnapshotDir configured, the rebuild is a cold path only: the first build
// of a slot persists the partition as an mmap-able colstore snapshot, and
// every later restart maps it read-only and is ready in O(columns) — the
// fence (dataset, seed, rows, mode, shard, encode) plus the snapshot
// checksum guarantee a warm start serves byte-identical answers or falls
// back to the rebuild.
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
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/colstore"
	"repro/internal/crossfilter"
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
// ExtraFiles slots after stdio).
const (
	childListenFD = 3
	childDataFD   = 4
)

// ChildSpec tells a shard child which partition it owns. It rides ChildEnv
// as JSON across exec.
type ChildSpec struct {
	Dataset     string     `json:"dataset"`
	Rows        int        `json:"rows"`
	Seed        int64      `json:"seed"`
	Shard       int        `json:"shard"`
	Of          int        `json:"of"`
	Mode        shard.Mode `json:"mode"`
	Encode      bool       `json:"encode,omitempty"`
	Parallelism int        `json:"parallelism,omitempty"`
	Generation  int        `json:"generation"`

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

// child is the shard-child server state.
type child struct {
	spec   ChildSpec
	dims   []datacube.Dim
	prefix *datacube.PrefixCube
	rows   int // partition rows

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
// connection that hangs in a backlog.
func runChild(spec ChildSpec) error {
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
// slot's snapshot and reconstruct the colstore views and prefix cube
// zero-copy in O(columns). Any snapshot problem — absent file, checksum
// failure, fence mismatch — falls back to the deterministic cold path: the
// child reconstructs the full dataset, partitions it the way every sibling
// does, and keeps only its own share (the re-fencing step that makes a
// restart land on exactly the records the dead instance owned), then
// writes the snapshot so the next restart of this slot is warm.
func (c *child) build() error {
	start := time.Now()
	if c.spec.SnapshotDir != "" {
		if ws, err := tryWarmStart(c.spec); err == nil {
			c.dims = ws.dims
			c.prefix = ws.prefix
			c.rows = ws.snap.Rows()
			c.snap = ws.snap
			c.warm = true
			c.buildMS = float64(time.Since(start)) / float64(time.Millisecond)
			c.ready.Store(true)
			return nil
		} else if !errors.Is(err, fs.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "router child: falling back to rebuild: %v\n", err)
		}
	}
	table, dims, err := datasetTable(c.spec.Dataset, c.spec.Seed, c.spec.Rows)
	if err != nil {
		return err
	}
	part, err := shard.PartitionOne(table, dims, c.spec.Of, c.spec.Shard, c.spec.Mode, "")
	if err != nil {
		return err
	}
	if c.spec.Encode {
		par := c.spec.Parallelism
		if par <= 0 {
			par = 1
		}
		part, err = colstore.Freeze(part, &colstore.Options{Parallelism: par})
		if err != nil {
			return fmt.Errorf("router child: freeze: %w", err)
		}
	}
	prefix, err := datacube.BuildPrefix(part, dims, c.spec.Parallelism)
	if err != nil {
		return err
	}
	if c.spec.SnapshotDir != "" {
		if err := writeChildSnapshot(c.spec, part, dims, prefix); err != nil {
			// Best-effort: a failed write costs the next restart its warm
			// path, nothing else.
			fmt.Fprintf(os.Stderr, "router child: snapshot write failed: %v\n", err)
		}
	}
	c.dims = dims
	c.prefix = prefix
	c.rows = part.NumRows()
	c.buildMS = float64(time.Since(start)) / float64(time.Millisecond)
	c.ready.Store(true)
	return nil
}

// datasetTable builds the named dataset at (seed, rows) and its GLOBAL cube
// dimensions — the same domains every sibling and the parent use, because
// bin edges must agree across shards or histogram addition is meaningless.
func datasetTable(ds string, seed int64, rows int) (*storage.Table, []datacube.Dim, error) {
	switch ds {
	case "road":
		if rows <= 0 {
			rows = dataset.RoadCount
		}
		return dataset.Roads(seed, rows), serve.RoadCubeDims(), nil
	case "listings":
		if rows <= 0 {
			rows = dataset.DefaultListingCount
		}
		table := dataset.Listings(seed, rows)
		dims, err := listingsDims(table)
		return table, dims, err
	default:
		return nil, nil, fmt.Errorf("router: unknown dataset %q", ds)
	}
}

// listingsDims derives the listings cube dimensions from the full table's
// min/max — which is why a child builds the full table before partitioning:
// global domains cannot be computed from one partition.
func listingsDims(table *storage.Table) ([]datacube.Dim, error) {
	dims := make([]datacube.Dim, 0, 3)
	for _, name := range []string{"lat", "lng", "price"} {
		lo, hi, ok := table.MinMax(name)
		if !ok {
			return nil, fmt.Errorf("router: listings table lacks column %q", name)
		}
		dims = append(dims, datacube.Dim{Name: name, Lo: lo, Hi: hi, Bins: crossfilter.DefaultBins})
	}
	return dims, nil
}

// DatasetDims returns the global cube dimensions the fleet serves for a
// dataset — what the parent passes to serve.Config.GatherDims. For road the
// domains are constants; listings costs one throwaway table build.
func DatasetDims(ds string, seed int64, rows int) ([]datacube.Dim, error) {
	if ds == "road" {
		return serve.RoadCubeDims(), nil
	}
	_, dims, err := datasetTable(ds, seed, rows)
	return dims, err
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
		body.Records = c.rows
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

// serveFrames is one data connection's loop: read a request frame, answer
// it from the prefix cube, write the response frame, all in buffers reused
// for the connection's life. Requests on one connection are answered in
// order by this one goroutine — an answer is a few microseconds of
// summed-area lookups, so there is nothing to overlap. It returns when the
// stream ends or can no longer be trusted (over-cap length, a payload too
// short to carry a call id); anything that has an id gets an answer.
func (c *child) serveFrames(r io.Reader, w io.Writer) {
	br := bufio.NewReader(r)
	var rbuf, wbuf []byte
	var sc *frameScratch // nil until the build is done
	for {
		var err error
		if rbuf, err = readFrame(br, rbuf); err != nil {
			return
		}
		start := time.Now()
		if len(rbuf) < 8 {
			return
		}
		id := le.Uint64(rbuf)
		c.holdData()
		if sc == nil && c.ready.Load() {
			sc = newFrameScratch(c.dims)
		}
		wbuf = c.answerFrame(wbuf[:0], id, rbuf[8:], sc)
		if wbuf[frameHeader+8] == statusOK {
			le.PutUint64(wbuf[serviceNSOffset:], uint64(time.Since(start)))
		}
		if _, err := w.Write(wbuf); err != nil {
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

// answerFrame answers one brush scatter leg into b: per-dimension
// histograms over this partition plus the filtered count, raw and unscaled
// — or the refusal, as an error frame. A nil sc means still building.
func (c *child) answerFrame(b []byte, id uint64, req []byte, sc *frameScratch) []byte {
	if sc == nil {
		return appendError(b, id, http.StatusServiceUnavailable, "building")
	}
	if err := decodeRanges(req, sc.ranges, sc.filters); err != nil {
		return appendError(b, id, http.StatusBadRequest, err.Error())
	}
	total, err := c.prefix.BrushInto(sc.filters, sc.hists)
	if err != nil {
		return appendError(b, id, http.StatusInternalServerError, err.Error())
	}
	return appendOK(b, id, c.spec.Shard, c.spec.Generation, c.rows, total, sc.hists)
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
