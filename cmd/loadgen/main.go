// Command loadgen drives N concurrent synthetic users from
// internal/behavior over real HTTP against a running idevald server,
// mapping virtual-clock think times to wall clock, and prints a
// paper-style report: achieved QIF, LCV%, latency percentiles versus
// offered load, the serving layer's executed/coalesced/shed accounting and
// its per-stage spans. It exits non-zero when a session misses its latest
// result or a response is dropped.
//
// It is a single-run report, not a benchmark: before/after numbers come
// from cmd/bench (see cmd/bench/README.md). The server's shape — dataset
// size, workers, queue, shards, deadlines — is idevald's command line;
// loadgen only sends the users. Against the road dataset:
//
//	idevald -addr 127.0.0.1:8080 -rows 120000 -workers 2 -queue 8 -execdelay 2ms &
//	loadgen -addr http://127.0.0.1:8080
//	        [-users 32] [-adjust 4] [-events 40] [-timescale 0.05]
//	        [-sqlevery 0] [-seed 1] [-json report.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/obsv"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "", "base URL of a running idevald (required)")
	users := flag.Int("users", 32, "concurrent synthetic users")
	adjust := flag.Int("adjust", 4, "slider adjustments per user session")
	events := flag.Int("events", 40, "max brush events per user (0 = uncapped)")
	timescale := flag.Float64("timescale", 0.05, "virtual think time → wall clock multiplier")
	seed := flag.Int64("seed", 1, "behavior seed")
	sqlEvery := flag.Int("sqlevery", 0, "issue a SQL histogram query with every Nth brush (0 = off)")
	jsonOut := flag.String("json", "", "write the report as JSON to this file")
	flag.Parse()

	if err := run(*addr, *users, *adjust, *events, *timescale, *seed, *sqlEvery, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(baseURL string, users, adjust, events int, timescale float64, seed int64, sqlEvery int, jsonOut string) error {
	if baseURL == "" {
		return fmt.Errorf("-addr is required: start a server first, e.g. idevald -addr 127.0.0.1:8080 -rows 120000 -workers 2 -queue 8 -execdelay 2ms, then pass -addr http://127.0.0.1:8080")
	}
	cfg := serve.LoadConfig{
		BaseURL:     baseURL,
		Users:       users,
		Adjustments: adjust,
		MaxEvents:   events,
		Seed:        seed,
		TimeScale:   timescale,
		Dims:        serve.RoadLoadDims(),
		SQLEvery:    sqlEvery,
		Table:       "dataroad",
	}
	fmt.Fprintf(os.Stderr, "loadgen: driving %d users against %s...\n", users, baseURL)
	report, err := serve.RunLoad(cfg)
	if err != nil {
		return err
	}
	printReport(report)

	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(summary(report)); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loadgen: wrote %s\n", jsonOut)
	}

	latest := 0
	for _, u := range report.Users {
		if u.GotLatest {
			latest++
		}
	}
	if latest != len(report.Users) {
		return fmt.Errorf("%d/%d sessions did not receive their latest result", len(report.Users)-latest, len(report.Users))
	}
	if report.Responded != report.Issued {
		return fmt.Errorf("dropped responses: issued %d, responded %d", report.Issued, report.Responded)
	}
	return nil
}

// printReport renders the run the way the paper reports load experiments:
// offered load, what the backend actually executed, and the user-facing
// latency metrics.
func printReport(r *serve.LoadReport) {
	s := r.Server
	fmt.Printf("offered load:   %d queries from %d users in %v (QIF %.1f/s)\n",
		r.Issued, len(r.Users), r.Wall.Round(time.Millisecond), r.QIFPerSec)
	fmt.Printf("server:         executed %d  coalesced %d  shed %d  errors %d\n",
		s.Executed, s.Coalesced, s.Shed, s.Errors)
	fmt.Printf("frontend:       LCV %d (%.1f%% of issued)  over-constraint(%.*fms) %d\n",
		s.LCV, 100*s.LCVFraction, 0, s.ConstraintMS, s.OverConstraint)
	fmt.Printf("latency:        p50 %.1fms  p95 %.1fms  p99 %.1fms (client-observed)\n",
		r.P50MS, r.P95MS, r.P99MS)
	fmt.Printf("responses:      %d/%d (ok %d, shed %d, errors %d)\n",
		r.Responded, r.Issued, r.OK, r.Shed, r.Errors)
	fmt.Printf("client retry:   retries %d  giveups %d\n", r.Retries, r.Giveups)
	if s.Degraded > 0 || s.Deadlines > 0 || s.Retries > 0 || s.BreakerTrips > 0 {
		fmt.Printf("robustness:     degraded %d  deadline-exceeded %d  backend-retries %d  breaker-trips %d\n",
			s.Degraded, s.Deadlines, s.Retries, s.BreakerTrips)
	}
	if len(s.Stages) > 0 {
		fmt.Printf("stages:         (span p50/p95/p99, LCV attribution)\n")
		for stg := obsv.StageAdmission; stg < obsv.NumStages; stg++ {
			name := stg.String()
			ss, ok := s.Stages[name]
			if !ok {
				continue
			}
			fmt.Printf("  %-10s    n %-7d p50 %.2fms  p95 %.2fms  p99 %.2fms  max %.1fms  lcv %d\n",
				name, ss.Count, ss.P50MS, ss.P95MS, ss.P99MS, ss.MaxMS, s.LCVByStage[name])
		}
	}
}

// benchSummary is the -json report schema.
type benchSummary struct {
	Users       int     `json:"users"`
	Issued      int     `json:"issued"`
	Executed    int64   `json:"executed"`
	Coalesced   int64   `json:"coalesced"`
	Shed        int64   `json:"shed"`
	QIFPerSec   float64 `json:"qif_per_sec"`
	LCVFraction float64 `json:"lcv_fraction"`
	P50MS       float64 `json:"p50_ms"`
	P95MS       float64 `json:"p95_ms"`
	P99MS       float64 `json:"p99_ms"`
	WallMS      float64 `json:"wall_ms"`
	Retries     int     `json:"client_retries"`
	Giveups     int     `json:"client_giveups"`
}

func summary(r *serve.LoadReport) benchSummary {
	return benchSummary{
		Users:       len(r.Users),
		Issued:      r.Issued,
		Executed:    r.Server.Executed,
		Coalesced:   r.Server.Coalesced,
		Shed:        r.Server.Shed,
		QIFPerSec:   r.QIFPerSec,
		LCVFraction: r.Server.LCVFraction,
		P50MS:       r.P50MS,
		P95MS:       r.P95MS,
		P99MS:       r.P99MS,
		WallMS:      float64(r.Wall) / float64(time.Millisecond),
		Retries:     r.Retries,
		Giveups:     r.Giveups,
	}
}
