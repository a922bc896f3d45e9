// Command bench is the repository's benchmark: it builds and spawns the
// real cmd/idevald on one CPU, drives it over loopback HTTP from two
// sessions with scripts generated from a seed, checks the answers against an oracle
// computed in this process, and prints every metric by name and unit.
// README.md in this directory describes the workloads, the metrics and the
// measurement protocol.
//
// Usage (from the repository root):
//
//	go run ./cmd/bench --workload W --seed N --seconds S --trace 0   # end-to-end metrics
//	go run ./cmd/bench --workload W --seed N --seconds S --trace 1   # per-layer metrics
//	go run ./cmd/bench -aa 10                                        # A/A noise check
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/router"
)

// metricDef names one metric the program prints; BENCHMARK.json lists
// exactly these (bench_test.go holds the two together).
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// The bounds are sized on the A/A table in README.md, not on a quiet host:
// the VM this was built on changes CPU speed by a quarter to a half for
// minutes at a time, and ten same-code runs of a latency metric have a
// quartile distance of 4–17% of their median even once they are reported
// at the reference speed (calib.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"paced_p50_ms", "ms", "lower", 0.25},
	{"paced_p95_ms", "ms", "lower", 0.25},
	{"on_time_fraction", "fraction", "higher", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the last line of standard output carries.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints every metric of defs as "name value unit" and then the
// result line. A metric the run did not set is a bug in this program. An
// oracle mismatch never gets here; a timed request that failed (non-200,
// degraded or wrong seq) makes the run incorrect.
func report(defs []metricDef, values map[string]float64, attempted, failed int) error {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Printf("%-34s %14.4f %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	// Shard-child mode first: the traced run supervises its own router
	// fleet, whose children are this binary re-exec'd.
	if ok, err := router.RunChildFromEnv(); ok {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench shard child:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload to run: drag_inproc, drag_router, scan_shards or mixed_planner")
	seed := flag.Int64("seed", 1, "script seed: the same seed generates the same requests")
	seconds := flag.Int("seconds", 20, "seconds of timed passes in one run")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run printing the per-layer metrics")
	aa := flag.Int("aa", 0, "run two sets of N full runs per workload and compare them against the bounds")
	flag.Parse()

	err := func() error {
		if *aa > 0 {
			return runAA(*aa, *seconds)
		}
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		if *seconds < 1 {
			return fmt.Errorf("-seconds must be at least 1")
		}
		if *trace != 0 {
			return runTraced(w, *seed, *seconds)
		}
		return runEndToEnd(w, *seed, *seconds)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
