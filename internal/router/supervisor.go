package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"time"
)

// State is a replica's supervision state.
type State int32

const (
	// StateStarting: the child is spawned (or spawning) and has not yet
	// answered ready; the dataset build is in flight.
	StateStarting State = iota
	// StateReady: the child answers /readyz and serves partials.
	StateReady
	// StateUnhealthy: consecutive health probes failed; the supervisor is
	// about to kill and restart the child.
	StateUnhealthy
	// StateRestarting: the child exited; the supervisor is waiting out the
	// backoff before the next spawn.
	StateRestarting
	// StateDark: the replica crash-looped — every recent spawn died before
	// stabilizing — so the supervisor stopped hot-looping and parked it,
	// re-probing only at the slow DarkRetry cadence. Routing skips dark
	// replicas; their shard's records fall out of coverage.
	StateDark
	// StateStopped: the fleet is closed.
	StateStopped
)

// String names the state for health reports.
func (s State) String() string {
	switch s {
	case StateStarting:
		return "starting"
	case StateReady:
		return "ready"
	case StateUnhealthy:
		return "unhealthy"
	case StateRestarting:
		return "restarting"
	case StateDark:
		return "dark"
	case StateStopped:
		return "stopped"
	default:
		return "unknown"
	}
}

// replica is one supervised shard child process slot: stable addresses and
// parent-held listeners for its control plane (HTTP: /readyz, /healthz,
// /chaosctl) and its data plane (brush frames), plus the mutable process
// state its supervisor goroutine drives.
type replica struct {
	fleet    *Fleet
	shard    int
	idx      int // replica index within the shard
	addr     string
	ln       *os.File // parent's dup of the control listening socket, re-passed on every spawn
	dataAddr string
	dataLn   *os.File // likewise for the data listening socket
	data     *dataConn

	mu             sync.Mutex
	state          State
	generation     int // increments per spawn; children echo it back
	pid            int
	consecFails    int
	lastTransition time.Time
	records        int
	lastErr        string
	warmStart      bool      // current generation came up from a snapshot
	downAt         time.Time // when the previous child was observed gone
	lastRestart    time.Duration
}

// closeListeners releases the parent-held listening sockets.
func (r *replica) closeListeners() {
	for _, f := range []*os.File{r.ln, r.dataLn} {
		if f != nil {
			f.Close()
		}
	}
}

// setState transitions the replica, stamping the transition time. fails
// resets on every transition except unhealthy accrual, which is tracked
// separately via noteProbe.
func (r *replica) setState(s State, errText string) {
	r.mu.Lock()
	moved := r.state != s
	if moved {
		r.lastTransition = time.Now()
	}
	r.state = s
	if errText != "" {
		r.lastErr = errText
	}
	r.mu.Unlock()
	if moved {
		r.fleet.noteChange()
	}
}

func (r *replica) getState() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

func (r *replica) currentPID() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pid
}

// ReplicaHealth is one replica's externally visible supervision state — the
// per-shard breakdown /readyz embeds.
type ReplicaHealth struct {
	Shard            int       `json:"shard"`
	Replica          int       `json:"replica"`
	State            string    `json:"state"`
	PID              int       `json:"pid,omitempty"`
	Generation       int       `json:"generation"`
	ConsecutiveFails int       `json:"consecutive_fails"`
	LastTransition   time.Time `json:"last_transition"`
	Records          int       `json:"records,omitempty"`
	LastError        string    `json:"last_error,omitempty"`
	// WarmStart reports the current generation came up from a mapped
	// snapshot; LastRestartMS is the last observed down→ready window.
	WarmStart     bool    `json:"warm_start,omitempty"`
	LastRestartMS float64 `json:"last_restart_ms,omitempty"`
}

func (r *replica) health() ReplicaHealth {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReplicaHealth{
		Shard:            r.shard,
		Replica:          r.idx,
		State:            r.state.String(),
		PID:              r.pid,
		Generation:       r.generation,
		ConsecutiveFails: r.consecFails,
		LastTransition:   r.lastTransition,
		Records:          r.records,
		LastError:        r.lastErr,
		WarmStart:        r.warmStart,
		LastRestartMS:    float64(r.lastRestart) / float64(time.Millisecond),
	}
}

// spawn starts one child process generation: the spec rides ChildEnv, the
// pre-bound control and data listeners ride fds 3 and 4, and the child is
// hard-wired to die with the parent (pdeathsig on Linux) so no fleet crash
// strands shard processes.
func (r *replica) spawn() (*exec.Cmd, <-chan error, error) {
	f := r.fleet
	r.mu.Lock()
	r.generation++
	gen := r.generation
	r.mu.Unlock()

	spec := ChildSpec{
		Dataset:     f.cfg.Dataset,
		Rows:        f.cfg.Rows,
		Seed:        f.cfg.Seed,
		Shard:       r.shard,
		Of:          f.cfg.Shards,
		Encode:      f.cfg.Encode,
		Parallelism: defaultParallelism(f.cfg.Shards * f.replicas()),
		Generation:  gen,
		SnapshotDir: f.cfg.SnapshotDir,
	}
	payload, err := json.Marshal(spec)
	if err != nil {
		return nil, nil, err
	}
	argv := f.cfg.ChildArgs
	if len(argv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, nil, fmt.Errorf("router: no child binary: %w", err)
		}
		argv = []string{exe}
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), ChildEnv+"="+string(payload))
	cmd.ExtraFiles = []*os.File{r.ln, r.dataLn}
	cmd.Stderr = f.cfg.ChildStderr
	setPdeathsig(cmd)
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	r.mu.Lock()
	r.pid = cmd.Process.Pid
	r.mu.Unlock()
	f.spawns.Add(1)
	waitCh := make(chan error, 1)
	go func() { waitCh <- cmd.Wait() }()
	return cmd, waitCh, nil
}

// probe health-checks the child over its own socket with a short timeout —
// a dead or frozen child hangs the connection (the parent-held listener
// keeps accepting), so probes must give up fast rather than block. errMsg
// carries the failure detail the health report surfaces as last_error.
func (r *replica) probe() (ready bool, body childReady, errMsg string) {
	ctx, cancel := context.WithTimeout(r.fleet.ctx, r.fleet.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+r.addr+"/readyz", nil)
	if err != nil {
		return false, body, err.Error()
	}
	resp, err := r.fleet.healthClient.Do(req)
	if err != nil {
		return false, body, err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Status first: a non-200 is "not ready" no matter what the body
		// holds, and the status itself is the detail worth reporting — a
		// 503 with a non-JSON body must not masquerade as a decode failure.
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return false, body, fmt.Sprintf("readyz %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return false, body, "readyz decode: " + err.Error()
	}
	if body.Status != "ready" || body.Shard != r.shard {
		return false, body, fmt.Sprintf("readyz: status %q from shard %d", body.Status, body.Shard)
	}
	return true, body, ""
}

// supervise is the replica's lifecycle loop: spawn → health-monitor →
// (kill|exit) → backoff → respawn, with crash-loop detection parking the
// replica dark instead of hot-looping. Runs until the fleet closes.
func (r *replica) supervise() {
	f := r.fleet
	defer f.wg.Done()
	crashes := 0
	for f.ctx.Err() == nil {
		r.setState(StateStarting, "")
		cmd, waitCh, err := r.spawn()
		if err != nil {
			crashes++
			r.setState(StateRestarting, err.Error())
			if r.parkOrBackoff(&crashes) {
				return
			}
			continue
		}

		born := time.Now()
		becameReady := false
		// Probe immediately after spawn: a fast child (warm start, small
		// dataset) must become routable in milliseconds, not after a full
		// HealthInterval tick. Until first readiness the re-probe delay
		// ramps exponentially from 1ms up to HealthInterval — cheap while
		// the answer is "building", prompt the moment it flips — then
		// settles into the steady HealthInterval cadence.
		startupDelay := time.Duration(0)
		timer := time.NewTimer(0)
	monitor:
		for {
			select {
			case <-f.ctx.Done():
				timer.Stop()
				r.terminate(cmd, waitCh)
				r.setState(StateStopped, "")
				return
			case err := <-waitCh:
				timer.Stop()
				msg := "exited"
				if err != nil {
					msg = err.Error()
				}
				r.noteDown(msg)
				break monitor
			case <-timer.C:
				ok, body, errMsg := r.probe()
				if ok {
					r.noteReady(body, becameReady)
					becameReady = true
					timer.Reset(f.cfg.HealthInterval)
					continue
				}
				fails := r.noteFail(errMsg)
				switch {
				case becameReady && fails >= f.cfg.FailThreshold:
					// Alive but not answering (frozen, wedged): treat like a
					// crash — kill it and let the exit arm restart it.
					r.setState(StateUnhealthy, "health checks failing")
					killProcess(cmd)
				case !becameReady && time.Since(born) > f.cfg.StartupTimeout:
					r.setState(StateUnhealthy, "startup timeout")
					killProcess(cmd)
				}
				if becameReady {
					timer.Reset(f.cfg.HealthInterval)
				} else {
					if startupDelay == 0 {
						startupDelay = time.Millisecond
					} else if startupDelay < f.cfg.HealthInterval {
						startupDelay *= 2
					}
					if startupDelay > f.cfg.HealthInterval {
						startupDelay = f.cfg.HealthInterval
					}
					timer.Reset(startupDelay)
				}
			}
		}

		// The child is gone. A spawn that served stably long enough resets
		// the crash-loop counter; anything else counts toward dark.
		if becameReady && time.Since(born) >= f.cfg.StableAfter {
			crashes = 0
		} else {
			crashes++
		}
		if f.ctx.Err() != nil {
			r.setState(StateStopped, "")
			return
		}
		f.restarts.Add(1)
		if r.parkOrBackoff(&crashes) {
			return
		}
	}
	r.setState(StateStopped, "")
}

// parkOrBackoff waits out the restart backoff — or, when the replica has
// crash-looped, parks it dark for the much longer DarkRetry. Reports true
// when the fleet closed during the wait.
func (r *replica) parkOrBackoff(crashes *int) bool {
	f := r.fleet
	var wait time.Duration
	if *crashes >= f.cfg.DarkAfter {
		r.setState(StateDark, "")
		f.darks.Add(1)
		wait = f.cfg.DarkRetry
		// One more chance per DarkRetry: leave the counter at the brink so
		// a failed revival parks again immediately instead of re-earning
		// DarkAfter fast crashes.
		*crashes = f.cfg.DarkAfter - 1
	} else {
		r.setState(StateRestarting, "")
		wait = backoffWait(f.cfg.BackoffBase, f.cfg.BackoffCap, *crashes)
	}
	select {
	case <-f.ctx.Done():
		r.setState(StateStopped, "")
		return true
	case <-time.After(wait):
		return false
	}
}

// backoffWait computes the capped exponential restart backoff with full
// jitter: base·2^(crashes-1) capped at cap, then a uniform draw over
// [wait, 2·wait) to decorrelate replicas restarting off the same failure.
// A non-positive base is clamped to 1ms — callers can legitimately hand a
// zeroed config straight through, and rand.Int63n panics on n <= 0.
func backoffWait(base, cap time.Duration, crashes int) time.Duration {
	if base <= 0 {
		base = time.Millisecond
	}
	if cap < base {
		cap = base
	}
	backoff := base
	for i := 1; i < crashes; i++ {
		backoff *= 2
		if backoff >= cap {
			break
		}
	}
	if backoff > cap {
		backoff = cap
	}
	return backoff + time.Duration(rand.Int63n(int64(backoff)))
}

// noteReady marks the replica serving and pins its record count; first
// readiness of a generation reports records to the fleet's coverage total,
// counts the warm start, and closes out the down→ready restart window. The
// fleet's counters move before the state does: whoever WaitReady wakes must
// find the warm start and the restart window already counted.
func (r *replica) noteReady(body childReady, wasReady bool) {
	r.mu.Lock()
	r.consecFails = 0
	r.records = body.Records
	r.lastErr = ""
	r.warmStart = body.WarmStart
	if !wasReady {
		if body.WarmStart {
			r.fleet.warmStarts.Add(1)
		}
		if !r.downAt.IsZero() {
			r.lastRestart = time.Since(r.downAt)
			r.downAt = time.Time{}
			r.fleet.noteRestartWindow(r.lastRestart)
		}
	}
	moved := r.state != StateReady
	if moved {
		r.lastTransition = time.Now()
	}
	r.state = StateReady
	r.mu.Unlock()
	if moved {
		r.fleet.noteChange()
	}
	if !wasReady {
		r.fleet.noteShardRecords(r.shard, body.Records)
	}
}

// noteFail accrues one failed health probe and returns the consecutive
// count. The state only flips once the supervisor decides to act — a single
// missed probe under load is not an incident — but the probe's failure
// detail is surfaced right away so /readyz explains a stuck replica.
func (r *replica) noteFail(errMsg string) int {
	r.mu.Lock()
	r.consecFails++
	n := r.consecFails
	if errMsg != "" {
		r.lastErr = errMsg
	}
	r.mu.Unlock()
	return n
}

// noteDown marks the replica's process gone and opens the restart window
// that noteReady closes at the next generation's first readiness.
func (r *replica) noteDown(msg string) {
	r.mu.Lock()
	moved := r.state != StateRestarting
	if moved {
		r.lastTransition = time.Now()
	}
	r.state = StateRestarting
	r.pid = 0
	r.lastErr = msg
	if r.downAt.IsZero() {
		r.downAt = time.Now()
	}
	r.mu.Unlock()
	if moved {
		r.fleet.noteChange()
	}
}

// terminate ends the current child on fleet close: SIGKILL (children are
// stateless — there is nothing to flush) and reap. SIGKILL also takes down
// SIGSTOPped children, which a graceful signal would leave frozen forever.
func (r *replica) terminate(cmd *exec.Cmd, waitCh <-chan error) {
	killProcess(cmd)
	<-waitCh
	r.mu.Lock()
	r.pid = 0
	r.mu.Unlock()
}

// killProcess SIGKILLs the child if it is still running; errors (already
// exited) are irrelevant.
func killProcess(cmd *exec.Cmd) {
	if cmd.Process != nil {
		_ = cmd.Process.Kill()
	}
}
