// Quickstart: the minimal end-to-end path through the library.
//
// It generates the road dataset, stands up the two backend profiles,
// simulates a user brushing a range slider on a touch screen, replays the
// resulting query workload against both backends, and reports the paper's
// two frontend metrics — query issuing frequency (QIF) and latency
// constraint violations (LCV) — side by side.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/behavior"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/trace"
)

func main() {
	// 1. Data: 100k tuples of the 3D road network (x=lon, y=lat, z=alt).
	roads := dataset.Roads(1, 100000)
	fmt.Printf("dataset: %s, %d tuples\n", roads.Name, roads.NumRows())

	// 2. A user drags range sliders on a touch device; every handle
	//    movement is a query-triggering event.
	rng := rand.New(rand.NewSource(7))
	lonLo, lonHi, latLo, latHi, altLo, altHi := dataset.RoadBounds()
	domains := [][2]float64{{lonLo, lonHi}, {latLo, latHi}, {altLo, altHi}}
	sess := behavior.SimulateSliderUser(rng, device.Touch, domains, 8)
	fmt.Printf("interaction: %d slider events over %.1fs on %s\n",
		len(sess.Events), sess.Duration.Seconds(), sess.Device.Name)

	// 3. QIF: how fast is the frontend issuing queries?
	qif := metrics.MeasureQIF(trace.SliderTimes(sess.Events))
	fmt.Printf("QIF: %.1f queries/second (mean interval %v)\n", qif.PerSecond, qif.MeanIntervl)

	// 4. Turn the slider trace into the paper's coordinated-view SQL
	//    workload: one 20-bin histogram query per other dimension.
	dims := []opt.CrossfilterDim{
		{Column: "x", Lo: lonLo, Hi: lonHi},
		{Column: "y", Lo: latLo, Hi: latHi},
		{Column: "z", Lo: altLo, Hi: altHi},
	}
	events, err := opt.BuildCrossfilterWorkload(sess.Events, "dataroad", dims)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %d query groups (%d SQL queries)\n", len(events), 2*len(events))

	// 5. Replay against a disk-based and an in-memory backend.
	for _, profile := range []engine.Profile{engine.ProfileDisk, engine.ProfileMemory} {
		eng := engine.New(profile)
		eng.Register(roads)
		srv := &engine.Server{Engine: eng, Network: time.Millisecond}
		res, err := opt.ReplayRaw(srv, events)
		if err != nil {
			log.Fatal(err)
		}
		lat := metrics.Durations(res.Latency)
		fmt.Printf("%-7s backend: median latency %8.1f ms, LCV %5.1f%% of queries\n",
			profile.Name, metrics.Percentile(lat, 50), res.LCVFraction()*100)

		// One query's full latency breakdown (§3.1.1's components).
		srv.Reset()
		rec, err := srv.Submit(0, events[0].Stmts[0])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("        one query: %v\n", rec.Breakdown(16*time.Millisecond))

		// 6. The core facade runs the paper's whole methodology in one call.
		assessment := core.Evaluate(core.Run{
			Name:     profile.Name,
			Issues:   res.Issues,
			Finishes: res.Finishes,
			Exec:     res.Exec,
		})
		fmt.Printf("        assessment: %s\n", assessment)
		for _, n := range assessment.Notes {
			fmt.Printf("          · %s\n", n)
		}
	}
	fmt.Println("\n(The disk backend cascades — exactly the paper's Figure 2. Try the")
	fmt.Println(" crossfilter example for the Skip and KL-divergence fixes.)")
}
