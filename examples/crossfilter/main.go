// Crossfilter: case study 2 in miniature.
//
// Three devices (mouse, touch, Leap Motion) drive a brushing-and-linking
// interface over the 3D road network; the generated workloads replay
// against the disk-based and in-memory backends under the paper's four
// policies (raw, KL>0, KL>0.2, Skip). The output mirrors Figures 13–15:
// who violates the latency constraint, and which optimization rescues the
// slow backend.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/behavior"
	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/opt"
	"repro/internal/storage"
)

const roadRows = 150000 // > buffer pool, so the disk profile thrashes

func main() {
	roads := dataset.Roads(1, roadRows)
	sample := sampleRoads(roads, 2000)
	lonLo, lonHi, latLo, latHi, altLo, altHi := dataset.RoadBounds()
	domains := [][2]float64{{lonLo, lonHi}, {latLo, latHi}, {altLo, altHi}}
	dims := []opt.CrossfilterDim{
		{Column: "x", Lo: lonLo, Hi: lonHi},
		{Column: "y", Lo: latLo, Hi: latHi},
		{Column: "z", Lo: altLo, Hi: altHi},
	}

	fmt.Printf("%-34s %8s %8s %10s %8s\n", "condition", "offered", "executed", "median", "LCV")
	for _, dev := range device.Profiles() {
		rng := rand.New(rand.NewSource(11))
		sess := behavior.SimulateSliderUser(rng, dev, domains, 8)
		events, err := opt.BuildCrossfilterWorkload(sess.Events, "dataroad", dims)
		if err != nil {
			log.Fatal(err)
		}
		for _, profile := range []engine.Profile{engine.ProfileDisk, engine.ProfileMemory} {
			for _, policy := range []string{"raw", "KL>0", "KL>0.2", "skip"} {
				eng := engine.New(profile)
				eng.Register(roads)
				srv := &engine.Server{Engine: eng, Network: time.Millisecond}
				var res *opt.ReplayResult
				switch policy {
				case "raw":
					res, err = opt.ReplayRaw(srv, events)
				case "skip":
					res, err = opt.ReplaySkip(srv, events)
				default:
					threshold := 0.0
					if policy == "KL>0.2" {
						threshold = 0.2
					}
					f, ferr := opt.NewKLFilter(threshold, sample, []string{"x", "y", "z"})
					if ferr != nil {
						log.Fatal(ferr)
					}
					res, err = opt.ReplayKL(srv, events, f)
				}
				if err != nil {
					log.Fatal(err)
				}
				med := metrics.Percentile(metrics.Durations(res.Latency), 50)
				fmt.Printf("%-34s %8d %8d %8.0fms %7.1f%%\n",
					dev.Name+"/"+profile.Name+"/"+policy,
					res.Offered, res.Executed, med, res.LCVFraction()*100)
			}
		}
		fmt.Println()
	}
	fmt.Println("Paper shape: memory stays interactive everywhere; disk/raw cascades;")
	fmt.Println("Skip and KL>0.2 restore sub-second latency on the disk backend.")
}

// sampleRoads takes an every-kth-row sample for the client-side KL
// approximation.
func sampleRoads(t *storage.Table, n int) *storage.Table {
	out := storage.NewTable(t.Name+"_sample", t.Schema)
	stride := t.NumRows() / n
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < t.NumRows() && out.NumRows() < n; i += stride {
		out.MustAppendRow(t.Row(i)...)
	}
	return out
}
