package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// runAA is the noise check: two sets of n full end-to-end runs of the same
// working tree, workloads alternating inside each set and every run on its
// own seed, then per workload × metric both set medians, how much worse
// the second is than the first, and each set's quartile distance — judged
// by the rule the bounds exist for: each set's quartile distance and the
// second median's worsening must all stay within the metric's bound.
// Returns an error if any pair fails.
func runAA(n, seconds int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// values[set][workload][metric] = one value per run
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for i := 0; i < n; i++ {
			for _, w := range workloads {
				seed := set*n + i + 1
				fmt.Fprintf(os.Stderr, "bench: A/A set %d run %d/%d %s seed %d\n", set+1, i+1, n, w.name, seed)
				res, err := runSelf(exe, w.name, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				if values[set][w.name] == nil {
					values[set][w.name] = map[string][]float64{}
				}
				for name, mv := range res.Metrics {
					values[set][w.name][name] = append(values[set][w.name][name], mv.Value)
				}
			}
		}
	}

	fails := 0
	fmt.Printf("| workload | metric | median A | median B | B worse by | IQR/median A | IQR/median B | bound | verdict |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := values[0][w.name][d.name], values[1][w.name][d.name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			qa, qb := quartileDistance(a), quartileDistance(b)
			ok := worse <= d.bound && qa <= d.bound && qb <= d.bound
			verdict := "PASS"
			if !ok {
				verdict = "FAIL"
				fails++
			}
			fmt.Printf("| %s | %s | %.4f | %.4f | %+.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				w.name, d.name, ma, mb, 100*worse, 100*qa, 100*qb, 100*d.bound, verdict)
		}
	}
	if fails > 0 {
		return fmt.Errorf("A/A: %d workload × metric pairs outside their bound", fails)
	}
	return nil
}

// runSelf runs one end-to-end run of this binary and decodes its result
// line.
func runSelf(exe, workload string, seed, seconds int) (*result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	// Keep what the run printed (per-pass values included) next to the
	// build outputs, for looking into a FAIL afterwards.
	log := filepath.Join(buildDir, "aa", fmt.Sprintf("%s_seed%d.txt", workload, seed))
	if err := os.MkdirAll(filepath.Dir(log), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(log, out, 0o644); err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("run reported correct=%v failed=%d", res.Correct, res.Failed)
	}
	return &res, nil
}
