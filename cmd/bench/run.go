package main

import (
	"fmt"
	"time"

	"repro/internal/metrics"
)

// passes is how many paced passes a run makes; every latency metric is the
// median over the passes of the per-pass statistic. Interference on a
// shared VM arrives in bursts (one pass in five showed p95 = 26–300 ms
// beside neighbours at 0.3 ms), so the median of several short passes
// rejects a burst that the pooled sample of one long pass would absorb.
const passes = 5

// slices is how many slices a timed pass is cut into, each between two
// readings of the host's speed (calib.go): the speed steps within seconds,
// so a reading is good for the second next to it and no further.
const slices = 4

// passLength is one paced pass of a run of seconds; the warm-up before the
// first is half of it.
func passLength(seconds int) time.Duration {
	return time.Duration(seconds) * time.Second / passes
}

// scriptLength is how many requests a session sends in a run of seconds:
// the script is generated that long, so nothing is sent twice.
func (w workload) scriptLength(seconds int) int {
	pass := passLength(seconds)
	return w.verify + pacedCount(w.rate, pass/2) + passes*slices*pacedCount(w.rate, pass/slices)
}

// setupBudget bounds the time a run spends starting servers only to time
// them: it starts another while the starts so far took less than this.
const setupBudget = 6 * time.Second

// bed is one spawned server with both sessions connected to it.
type bed struct {
	bin     string
	args    []string
	cpu     int
	srv     *server
	players []*player
	setups  []float64 // spawn → ready of every start so far, s
	speeds  []float64 // every reading of the host's speed so far (calib.go)
	closed  bool
}

// close disconnects and stops the server; a second call does nothing, so
// a run can defer it and still check the first call's error.
func (b *bed) close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	for _, p := range b.players {
		p.conn.close()
	}
	return b.srv.stop()
}

// setUp spawns the workload's server and connects the sessions.
func setUp(bin string, w workload, scripts [sessions][]*request) (*bed, error) {
	cpu, err := lastCPU()
	if err != nil {
		return nil, err
	}
	b := &bed{bin: bin, args: w.serverArgs(), cpu: cpu}
	if b.srv, err = spawn(bin, b.args, cpu); err != nil {
		return nil, err
	}
	b.setups = append(b.setups, b.srv.setup.Seconds())
	for s := 0; s < sessions; s++ {
		c, err := dial(b.srv.addr)
		if err != nil {
			_ = b.close()
			return nil, err
		}
		b.players = append(b.players, &player{conn: c, script: scripts[s], cpu: cpu})
	}
	return b, nil
}

// timeStart starts a second server beside the idle serving one, records
// its spawn → ready time and stops it. One start is a single sample of a
// quantity that moves by half with the host's state, which flips within
// seconds; so a run takes one before every pass and one after the last, as
// many as fit setupBudget, and setup_s is taken over them all (midMean).
func (b *bed) timeStart() error {
	spent := 0.0
	for _, s := range b.setups {
		spent += s
	}
	if spent >= setupBudget.Seconds() {
		return nil
	}
	srv, err := spawn(b.bin, b.args, b.cpu)
	if err != nil {
		return err
	}
	b.setups = append(b.setups, srv.setup.Seconds())
	return srv.stop()
}

// readSpeed takes one reading of the host's speed.
func (b *bed) readSpeed() error {
	v, err := hostSlowdown(b.cpu)
	if err != nil {
		return err
	}
	b.speeds = append(b.speeds, v)
	return nil
}

// timedPass is one paced pass of the end-to-end run, cut into slices with
// a reading of the host's speed before, between and after them.
func (b *bed) timedPass(rate float64, dur time.Duration) (*passResult, error) {
	res := &passResult{}
	if err := b.readSpeed(); err != nil {
		return nil, err
	}
	for i := 0; i < slices; i++ {
		r, err := pacedPass(b.players, rate, dur/slices, false)
		if err != nil {
			return nil, err
		}
		res.merge(r)
		if err := b.readSpeed(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runEndToEnd is the --trace 0 run: the end-to-end metrics.
func runEndToEnd(w workload, seed int64, seconds int) error {
	bin, err := buildServer()
	if err != nil {
		return err
	}
	scripts := w.script(seed, w.scriptLength(seconds))
	fmt.Printf("workload %s seed %d seconds %d script_sha256 %s\n", w.name, seed, seconds, scriptHash(scripts))
	orc, err := newOracle(w.rows)
	if err != nil {
		return err
	}
	b, err := setUp(bin, w, scripts)
	if err != nil {
		return err
	}
	defer b.close()

	sum, err := verify(b.players, orc, w.verify)
	if err != nil {
		return err
	}
	fmt.Printf("verified %d answers per session against the oracle; brush_body_sha256 %s\n", w.verify, sum)

	pass := passLength(seconds)
	if _, err := pacedPass(b.players, w.rate, pass/2, false); err != nil { // warm-up, not reported
		return fmt.Errorf("warm-up: %w", err)
	}
	var p50s, p95s, onTime, late, sqlKept []float64
	attempted, failed := 0, 0
	for i := 0; i < passes; i++ {
		if err := b.timeStart(); err != nil {
			return err
		}
		r, err := b.timedPass(w.rate, pass)
		if err != nil {
			return fmt.Errorf("paced pass %d: %w", i, err)
		}
		p50s = append(p50s, metrics.Percentile(r.latencies, 50))
		p95s = append(p95s, metrics.Percentile(r.latencies, 95))
		onTime = append(onTime, float64(r.onTime)/float64(r.attempted))
		late = append(late, metrics.Percentile(r.lateUS, 95))
		if r.sqls > 0 {
			sqlKept = append(sqlKept, r.sqlKept/float64(r.sqls))
		}
		attempted += r.attempted
		failed += r.failed
	}
	if err := b.timeStart(); err != nil {
		return err
	}
	rss := peakRSSMB(b.srv.tree())
	st, err := b.srv.stats()
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	if err := b.close(); err != nil {
		return err
	}

	fmt.Printf("requests attempted %d failed %d; server coalesced %d shed %d degraded %d errors %d\n",
		attempted, failed, st.Coalesced, st.Shed, st.Degraded, st.Errors)
	fmt.Printf("per pass: p50_ms %.4f p95_ms %.4f on_time %.4f gen_late_p95_us %.0f sql_mean_selectivity %.4f; setup_s %.3f\n",
		p50s, p95s, onTime, late, sqlKept, b.setups)
	// The time metrics are reported at the reference speed (calib.go);
	// on_time_fraction is not: a deadline is a deadline.
	slowdown := mean(b.speeds)
	fmt.Printf("as measured: setup_s %.4f paced_p50_ms %.4f paced_p95_ms %.4f; host_slowdown %.4f over %d readings\n",
		midMean(b.setups), median(p50s), median(p95s), slowdown, len(b.speeds))
	return report(endToEnd, map[string]float64{
		"setup_s":          rescale(midMean(b.setups)*1e3, slowdown) / 1e3,
		"paced_p50_ms":     rescale(median(p50s), slowdown),
		"paced_p95_ms":     rescale(median(p95s), slowdown),
		"on_time_fraction": median(onTime),
		"peak_rss_mb":      rss,
	}, attempted, failed)
}
