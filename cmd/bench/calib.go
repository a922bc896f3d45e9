package main

import (
	"runtime"
	"sort"
	"time"
)

// The host this benchmark runs on shares its cores: for seconds to minutes
// at a time a tight loop on the bench CPU runs 1.3–1.6 times slower than a
// moment before, in discrete steps, with nothing else running in the guest.
// A scan's latency follows that state one for one, and the state outlasts a
// run, so no estimator inside a run can reject it: ten runs of the same code
// had quartile distances of 30–50% of their median. So a run reads the
// host's compute speed before and after every slice of every timed pass
// and reports its time metrics at the reference speed, rescaled by the
// mean of its readings: a drift of the host cancels, a change of the
// program does not, because the reference loop below is this file's own
// and never calls the program. README.md has the measurements behind the
// three choices made here: one figure per run, the median chunk of a
// reading, and the floor below which a time is not rescaled.

// refChunkUS is how long one chunk of the reference loop takes on the
// builder's machine (Xeon @ 2.1 GHz) when nothing contends for the core.
// Its value only fixes the scale of the rescaled metrics; two commits
// measured with the same benchmark share it.
const refChunkUS = 175.0

// wakeFloorMS is the part of a time that rescale leaves as measured: a
// loopback round trip to an idle server costs 0.15–0.3 ms of wake-ups,
// syscalls and context switches however long the answer takes, and that
// part does not follow the host's compute speed (reference loop +30%,
// brush p50 +6%).
const wakeFloorMS = 0.3

// speedReading is how long one reading of the host's speed runs.
const speedReading = 40 * time.Millisecond

var refSink int

// refChunk is the reference loop: a range filter and a 20-bin histogram
// over 16 KB of floats, 64 times — the shape of the scan kernels, small
// enough to stay in L1 so that it reads compute speed and nothing else.
func refChunk(vals *[2048]float64) {
	var h [20]int
	for k := 0; k < 64; k++ {
		for _, v := range vals {
			if v >= 0.1 && v <= 0.9 {
				h[int(v*20)]++
			}
		}
	}
	refSink += h[3]
}

// hostSlowdown runs the reference loop on cpu for speedReading and returns
// the median chunk time as a multiple of refChunkUS: 1 on an uncontended
// core of the builder's machine, 1.5 when the core is shared. The median
// drops the chunks a stall or a preemption fell into.
func hostSlowdown(cpu int) (float64, error) {
	type reading struct {
		slowdown float64
		err      error
	}
	out := make(chan reading, 1)
	go func() {
		// Pinned like the sessions; the thread ends with the goroutine.
		runtime.LockOSThread()
		if err := pinThread(cpu); err != nil {
			out <- reading{err: err}
			return
		}
		var vals [2048]float64
		for i := range vals {
			vals[i] = float64(i%1000) * 0.001
		}
		var chunks []float64
		for end := time.Now().Add(speedReading); time.Now().Before(end); {
			start := time.Now()
			refChunk(&vals)
			chunks = append(chunks, usOf(time.Since(start)))
		}
		sort.Float64s(chunks)
		out <- reading{slowdown: chunks[len(chunks)/2] / refChunkUS}
	}()
	r := <-out
	return r.slowdown, r.err
}

// rescale converts a time of ms milliseconds, measured while the host ran
// slowdown times slower than the reference, to what it would have been at
// the reference speed: the first wakeFloorMS as measured, the rest divided
// by slowdown.
func rescale(ms, slowdown float64) float64 {
	if ms <= wakeFloorMS {
		return ms
	}
	return wakeFloorMS + (ms-wakeFloorMS)/slowdown
}
