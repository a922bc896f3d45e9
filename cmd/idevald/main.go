// Command idevald serves a chosen dataset over HTTP:
// the repo's backends (SQL engine, datacube brushing, map tiles) behind
// internal/serve's admission queue, worker pool, per-session coalescing,
// and online LCV/QIF metrics.
//
// Usage:
//
//	idevald [-addr :8080] [-dataset road|listings] [-rows N]
//	        [-workers N] [-queue N]
//	        [-constraint 500ms] [-execdelay 0] [-log FILE] [-seed N]
//	        [-deadlines] [-degradeafter 250ms]   # degradation ladder
//	        [-chaos PROFILE] [-chaosseed N]      # fault injection
//	        [-shards N]                          # scatter-gather serving
//	        [-router N] [-routerreplicas R]      # multi-process shard fleet
//	        [-snapshotdir DIR]                   # warm child restarts via mmap
//	        [-encode]                            # compressed columnar storage
//	        [-planner]                           # per-selection drag indexes
//	        [-debug-addr 127.0.0.1:6060]         # pprof endpoint
//
// Endpoints: POST /v1/query {session,seq,sql}; POST /v1/brush
// {session,seq,ranges,moved}; GET /v1/tiles?session=&z=&x=&y=;
// GET /metrics (JSON, or Prometheus text with ?format=prometheus);
// GET /v1/trace (recent per-request stage traces, JSON lines);
// GET /healthz (liveness, always 200); GET /readyz
// (readiness: 503 while draining or circuit-breaker open). -addr is bound
// before the dataset is built or a child spawned, so no other listener can
// take the port meanwhile; connections made during the build wait in the
// backlog until the server answers. SIGTERM/SIGINT drain gracefully:
// admission stops (new requests get 503), in-flight, queued, and pending
// coalesced work completes, then the process exits.
//
// -shards N builds a shard.Coordinator over N in-process partitions and
// hands it to the server as its Gatherer, the door -router's fleet goes
// through. Without -shards or -router the server is a one-replica gather:
// its one partition is the served table itself, in table order, behind the
// served engine, so brushes, histogram statements and tile misses ride the
// same scatter contract (S = 1 is a partition).
//
// -debug-addr starts a second HTTP listener with net/http/pprof handlers
// at /debug/pprof/ — kept off the serving mux so profiling endpoints are
// never exposed on the public address.
//
// -router N runs the dataset as N supervised shard child processes instead
// of in-process shards: each child is this same binary re-exec'd (it
// detects child mode via the environment before flag parsing). A child
// regenerates the dataset a block at a time and keeps only the rows its
// shard owns — never the whole table — writes a byte to a pipe its parent
// watches once it serves, and answers what an in-process shard answers — a
// brush's partial histograms, a histogram-shaped SQL statement's (bin,
// count) rows — as binary frames over one persistent connection per
// child, which the parent gathers and merges. The parent holds no table
// (for listings it streams the rows once, a block at a time, for the
// global domains), so a statement with no merge law and /v1/tiles answer
// 501 there. Children are health-checked, restarted with capped jittered
// backoff, and parked dark after crash-looping;
// /readyz reports the per-shard breakdown. -routerreplicas 2 adds a warm
// replica per shard for hedged gathers. With -snapshotdir, each child
// persists its frozen partition (encoded columns + prefix cube) to a
// checksummed snapshot on first build; a restarted child mmaps the
// snapshot back read-only and is ready in O(columns) instead of
// regenerating and re-indexing its partition, falling back to the
// deterministic rebuild whenever the snapshot is stale, torn, or from a
// different run shape.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // /debug/pprof on the -debug-addr listener
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/colstore"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/shard"
)

func main() {
	// Shard-child mode first, before flags: when the router re-execs this
	// binary as a child, the spec rides the environment and the child must
	// serve its partition, not parse a server command line.
	if ok, err := router.RunChildFromEnv(); ok {
		if err != nil {
			fmt.Fprintln(os.Stderr, "idevald shard child:", err)
			os.Exit(1)
		}
		return
	}
	addr := flag.String("addr", ":8080", "listen address")
	ds := flag.String("dataset", "road", "road or listings")
	rows := flag.Int("rows", 0, "dataset cardinality (0 = paper scale)")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "admission queue depth")
	constraint := flag.Duration("constraint", metrics.DefaultConstraint, "latency constraint for LCV reporting")
	execDelay := flag.Duration("execdelay", 0, "artificial per-execution delay (overload experiments)")
	logPath := flag.String("log", "", "tracefmt request log file (JSON lines)")
	seed := flag.Int64("seed", 1, "dataset seed")
	deadlines := flag.Bool("deadlines", false, "enable deadline-aware execution with the degradation ladder")
	degradeAfter := flag.Duration("degradeafter", 0, "per-request budget before degrading (0 = constraint/2)")
	chaos := flag.String("chaos", "", "inject faults from this profile (spikes|errors|stall|slow|mixed)")
	chaosSeed := flag.Int64("chaosseed", 1, "fault injection seed")
	shards := flag.Int("shards", 0, "partition the dataset across N scatter-gather shards (0 or 1 = unsharded)")
	routerN := flag.Int("router", 0, "supervise N shard child processes and gather across them (0 = in-process)")
	routerReplicas := flag.Int("routerreplicas", 1, "child replicas per shard in -router mode (2 enables hedged gathers)")
	snapshotDir := flag.String("snapshotdir", "", "in -router mode, persist each shard's partition snapshot here so restarted children warm-start via mmap instead of rebuilding")
	encode := flag.Bool("encode", false, "freeze the dataset into compressed columnar form (dictionary / bit-packed encodings; saves bytes — unencoded columns run the same scan kernels through zero-copy views)")
	planOn := flag.Bool("planner", false, "enable the materialization planner (auto-built per-selection indexes for held drags, prefix cube otherwise)")
	debugAddr := flag.String("debug-addr", "", "pprof listen address (e.g. 127.0.0.1:6060; empty = disabled)")
	flag.Parse()

	if err := run(*addr, *ds, *rows, *workers, *queue, *constraint, *execDelay, *logPath, *seed,
		*deadlines, *degradeAfter, *chaos, *chaosSeed, *shards, *encode,
		*planOn, *debugAddr, *routerN, *routerReplicas, *snapshotDir); err != nil {
		fmt.Fprintln(os.Stderr, "idevald:", err)
		os.Exit(1)
	}
}

// buildBackends constructs the served table, engine (in-memory cost
// profile), cube, and tile columns for a dataset name.
func buildBackends(ds string, rows int, seed int64) (serve.Backends, error) {
	switch ds {
	case "road":
		return serve.RoadBackends(seed, rows, engine.ProfileMemory)
	case "listings":
		return serve.ListingsBackends(seed, rows, engine.ProfileMemory)
	default:
		return serve.Backends{}, fmt.Errorf("unknown dataset %q", ds)
	}
}

func run(addr, ds string, rows int, workers, queue int, constraint, execDelay time.Duration, logPath string, seed int64,
	deadlines bool, degradeAfter time.Duration, chaos string, chaosSeed int64, shards int, encode bool,
	planOn bool, debugAddr string, routerN, routerReplicas int, snapshotDir string) error {
	// Bind before anything is built or spawned: no loopback listener opened
	// below — a fleet binds two per child — can take the port meanwhile.
	// Connections wait in the backlog until the server answers.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	if debugAddr != "" {
		// http.DefaultServeMux carries the net/http/pprof registrations from
		// the blank import; the serving mux stays free of them.
		go func() {
			if err := http.ListenAndServe(debugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "idevald: debug listener:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "idevald: pprof at http://%s/debug/pprof/\n", debugAddr)
	}

	cfg := serve.Config{
		Workers: workers, QueueDepth: queue, Constraint: constraint, ExecDelay: execDelay,
		Deadlines: deadlines, DegradeAfter: degradeAfter,
	}
	var backends serve.Backends
	if routerN > 1 {
		// Multi-process mode: the dataset lives in the children, not here.
		// The parent only needs the global dims to validate and merge; the
		// fleet answers brushes and histogram statements as a Gatherer.
		if shards > 1 || planOn {
			return fmt.Errorf("-router is mutually exclusive with -shards and -planner")
		}
		fleet, err := router.New(router.Config{
			Shards:      routerN,
			Replicas:    routerReplicas,
			Dataset:     ds,
			Rows:        rows,
			Seed:        seed,
			Encode:      encode,
			SnapshotDir: snapshotDir,
			ChildStderr: os.Stderr,
		})
		if err != nil {
			return err
		}
		cfg.Gatherer = fleet
		cfg.GatherDims = fleet.Dims()
		fmt.Fprintf(os.Stderr, "idevald: supervising %d shard processes x %d replicas\n",
			routerN, fleet.Stats().Replicas)
	} else {
		fmt.Fprintf(os.Stderr, "idevald: building %s dataset...\n", ds)
		backends, err = buildBackends(ds, rows, seed)
		if err != nil {
			return err
		}
		if encode {
			backends, err = serve.EncodeBackends(backends)
			if err != nil {
				return err
			}
			st := colstore.StatsOf(backends.Tiles)
			fmt.Fprintf(os.Stderr, "idevald: encoded %d rows: %d -> %d bytes (%.2fx)\n",
				st.Rows, st.PlainBytes, st.EncodedBytes, st.Ratio)
		}
		if shards > 1 {
			// After the freeze, so the partitions are re-encoded; shard's
			// default engine profile is the served one, ProfileMemory.
			dims := backends.Cube.Dims()
			coord, err := shard.New(backends.Tiles, dims, shard.Options{Shards: shards, WithEngine: true})
			if err != nil {
				return err
			}
			cfg.Gatherer, cfg.GatherDims, backends.Cube = coord, dims, nil
			fmt.Fprintf(os.Stderr, "idevald: scatter-gather over %d shards\n", shards)
		}
	}
	if planOn {
		cfg.Planner = true
		fmt.Fprintln(os.Stderr, "idevald: materialization planner on")
	}
	if chaos != "" {
		fp, ok := fault.ProfileByName(chaos)
		if !ok {
			return fmt.Errorf("unknown chaos profile %q", chaos)
		}
		cfg.Fault = fault.New(fp, chaosSeed)
		fmt.Fprintf(os.Stderr, "idevald: chaos mode: injecting %s faults (seed %d)\n", chaos, chaosSeed)
	}
	if logPath != "" {
		f, err := os.Create(logPath)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.Log = f
	}
	srv, err := serve.New(backends, cfg)
	if err != nil {
		if cfg.Gatherer != nil {
			cfg.Gatherer.Close()
		}
		return err
	}

	// The handler goes in before the server answers: a stop sent the moment
	// /readyz first answers must drain, not kill by default action.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	httpSrv := &http.Server{
		Handler: srv.Handler(),
		// A client that never finishes its headers, or parks an idle
		// keep-alive connection, must not hold a goroutine and a
		// descriptor for ever. No read or write timeout: bodies are capped
		// by the handlers and replies are bounded by the request deadline.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "idevald: serving %s on %s\n", ds, addr)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "idevald: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		return err
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "idevald: drained. issued=%d executed=%d coalesced=%d shed=%d lcv=%d degraded=%d p95=%.1fms\n",
		st.Issued, st.Executed, st.Coalesced, st.Shed, st.LCV, st.Degraded, st.P95MS)
	return nil
}
