package router

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"syscall"
	"time"

	"repro/internal/fault"
)

// ChaosReport tallies what a chaos run actually did to the fleet.
type ChaosReport struct {
	Kills      int `json:"kills"`
	Stops      int `json:"stops"`
	Blackholes int `json:"blackholes"`
	Skipped    int `json:"skipped"` // events whose target had no live child at fire time
}

// RunChaos executes a deterministic process-fault schedule against the
// fleet's real children: SIGKILL for crashes, SIGSTOP+SIGCONT for freezes,
// and child-side data-plane blackholes for network partitions. Events target
// each shard's replica 0 — the slot most sessions' affinity hashes onto —
// so the schedule exercises failover, not just spare capacity. Blocks until
// the schedule is drained or ctx is cancelled; every SIGSTOP is paired with
// a SIGCONT before return, so no child is left frozen.
func (f *Fleet) RunChaos(ctx context.Context, events []fault.ProcEvent) ChaosReport {
	var rep ChaosReport
	start := time.Now()
	var wg sync.WaitGroup
	defer wg.Wait()
	for _, ev := range events {
		if d := ev.At - time.Since(start); d > 0 {
			select {
			case <-ctx.Done():
				return rep
			case <-time.After(d):
			}
		}
		if ev.Shard < 0 || ev.Shard >= f.cfg.Shards {
			rep.Skipped++
			continue
		}
		target := f.reps[ev.Shard][0]
		switch ev.Kind {
		case fault.ProcKill:
			pid := target.currentPID()
			if pid == 0 || syscall.Kill(pid, syscall.SIGKILL) != nil {
				rep.Skipped++
				continue
			}
			rep.Kills++
		case fault.ProcStop:
			pid := target.currentPID()
			if pid == 0 || syscall.Kill(pid, syscall.SIGSTOP) != nil {
				rep.Skipped++
				continue
			}
			rep.Stops++
			wg.Add(1)
			go func(pid int, pause time.Duration) {
				defer wg.Done()
				select {
				case <-ctx.Done():
				case <-time.After(pause):
				}
				// Unconditional: a frozen child must never outlive the run.
				// If the supervisor SIGKILLed it meanwhile the signal just
				// errors on a reaped pid, which is fine.
				_ = syscall.Kill(pid, syscall.SIGCONT)
			}(pid, ev.Pause)
		case fault.ProcBlackhole:
			if err := f.blackhole(ctx, target, ev.Pause); err != nil {
				rep.Skipped++
				continue
			}
			rep.Blackholes++
		default:
			rep.Skipped++
		}
	}
	return rep
}

// blackhole asks the child itself to stop answering data frames for the
// window, so from the router the replica looks partitioned — gather legs
// hedge away or run into their deadline — while the process stays healthy
// underneath and keeps answering its supervisor's probes.
func (f *Fleet) blackhole(ctx context.Context, rep *replica, window time.Duration) error {
	url := fmt.Sprintf("http://%s/chaosctl?blackhole_ms=%d", rep.addr, window.Milliseconds())
	cctx, cancel := context.WithTimeout(ctx, f.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.healthClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("chaosctl: %s", resp.Status)
	}
	return nil
}
