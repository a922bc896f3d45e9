// Command replay runs a recorded interaction trace (the JSON-lines format
// cmd/tracegen emits) against a chosen backend and optimization policy and
// prints each user's evaluation: executed/skipped counts, latency summary,
// the Figure 3 quadrant, and guideline notes. Together with tracegen it is
// the record → replay → assess loop the composite case study proposes as a
// public benchmark.
//
// Usage:
//
//	tracegen -kind slider -device leapmotion -users 3 | \
//	    replay -kind slider -profile disk -policy skip
//	tracegen -kind scroll -users 2 | replay -kind scroll -batch 58 -strategy timer
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/tracefmt"
)

func main() {
	kind := flag.String("kind", "slider", "slider or scroll")
	profile := flag.String("profile", "memory", "backend profile: disk or memory (slider)")
	policy := flag.String("policy", "raw", "raw, skip, KL>0, or KL>0.2 (slider)")
	roads := flag.Int("roads", 150000, "road tuples backing the crossfilter workload (slider)")
	seed := flag.Int64("seed", 1, "dataset seed")
	batch := flag.Int("batch", 58, "tuples per prefetch (scroll)")
	strategy := flag.String("strategy", "event", "event or timer (scroll)")
	execMS := flag.Int("exec", 80, "per-fetch latency in ms (scroll)")
	flag.Parse()

	var err error
	switch *kind {
	case "slider":
		err = replaySlider(*profile, *policy, *roads, *seed)
	case "scroll":
		err = replayScroll(*strategy, *batch, time.Duration(*execMS)*time.Millisecond)
	default:
		err = fmt.Errorf("unknown kind %q", *kind)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}

func replaySlider(profileName, policy string, roadRows int, seed int64) error {
	traces, err := tracefmt.ReadSliderTraces(os.Stdin)
	if err != nil {
		return err
	}
	if len(traces.Users) == 0 {
		return fmt.Errorf("no events on stdin (pipe tracegen output in)")
	}
	var prof engine.Profile
	switch profileName {
	case "disk":
		prof = engine.ProfileDisk
	case "memory":
		prof = engine.ProfileMemory
	default:
		return fmt.Errorf("unknown profile %q", profileName)
	}

	table := dataset.Roads(seed, roadRows)
	lonLo, lonHi, latLo, latHi, altLo, altHi := dataset.RoadBounds()
	dims := []opt.CrossfilterDim{
		{Column: "x", Lo: lonLo, Hi: lonHi},
		{Column: "y", Lo: latLo, Hi: latHi},
		{Column: "z", Lo: altLo, Hi: altHi},
	}
	sample := experiments.SampleTable(table, 2000)

	for _, user := range traces.Users {
		events, err := opt.BuildCrossfilterWorkload(traces.Events[user], "dataroad", dims)
		if err != nil {
			return fmt.Errorf("user %d: %w", user, err)
		}
		eng := engine.New(prof)
		eng.Register(table)
		srv := &engine.Server{Engine: eng, Network: time.Millisecond}

		var res *opt.ReplayResult
		switch policy {
		case "raw":
			res, err = opt.ReplayRaw(srv, events)
		case "skip":
			res, err = opt.ReplaySkip(srv, events)
		case "KL>0", "KL>0.2":
			threshold := 0.0
			if policy == "KL>0.2" {
				threshold = 0.2
			}
			var f *opt.KLFilter
			f, err = opt.NewKLFilter(threshold, sample, []string{"x", "y", "z"})
			if err != nil {
				return err
			}
			res, err = opt.ReplayKL(srv, events, f)
		default:
			return fmt.Errorf("unknown policy %q", policy)
		}
		if err != nil {
			return fmt.Errorf("user %d: %w", user, err)
		}

		a := core.Evaluate(core.Run{
			Name:     fmt.Sprintf("user %d (%s)", user, traces.Devices[user]),
			Issues:   res.Issues,
			Finishes: res.Finishes,
			Exec:     res.Exec,
		})
		fmt.Printf("%s\n", a)
		fmt.Printf("  offered %d, executed %d, skipped %d under %s/%s\n",
			res.Offered, res.Executed, res.Skipped, prof.Name, policy)
		for _, n := range a.Notes {
			fmt.Printf("  · %s\n", n)
		}
	}
	return nil
}

func replayScroll(strategy string, batch int, exec time.Duration) error {
	traces, err := tracefmt.ReadScrollTraces(os.Stdin)
	if err != nil {
		return err
	}
	if len(traces.Users) == 0 {
		return fmt.Errorf("no events on stdin (pipe tracegen output in)")
	}
	for _, user := range traces.Users {
		events := traces.Events[user]
		var res *opt.ScrollFetchResult
		switch strategy {
		case "event":
			res = opt.SimulateEventFetch(events, batch, batch, exec)
		case "timer":
			res = opt.SimulateTimerFetch(events, batch, batch, time.Second, exec)
		default:
			return fmt.Errorf("unknown strategy %q", strategy)
		}
		waits := metrics.Durations(res.Waits)
		fmt.Printf("user %d: %d events, %d fetches, %d violations, mean wait %.0f ms (%s fetch, batch %d)\n",
			user, len(events), res.Fetches, res.Violations, metrics.Summarize(waits).Mean, strategy, batch)
	}
	return nil
}
