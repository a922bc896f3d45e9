package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/router"
	"repro/internal/serve"
)

// buildDir holds everything building and running leaves behind, relative
// to the checkout root the benchmark is started from.
const buildDir = ".bench_build"

// buildServer compiles cmd/idevald from the checkout's source. It is not
// part of setup_s.
func buildServer() (string, error) {
	if _, err := os.Stat("cmd/idevald/main.go"); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "idevald"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/idevald")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build ./cmd/idevald: %w", err)
	}
	return bin, nil
}

// server is one spawned idevald.
type server struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	exited chan error
	setup  time.Duration // spawn → first /readyz 200
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before idevald binds it; nothing else on a benchmark host is
// racing for ephemeral ports in that window.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// spawn starts idevald on cpu and polls /readyz until it answers 200.
func spawn(bin string, args []string, cpu int) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &server{addr: addr, exited: make(chan error, 1)}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stderr = &s.stderr
	start := time.Now()
	if err := startOn(cpu, s.cmd); err != nil {
		return nil, err
	}
	go func() { s.exited <- s.cmd.Wait() }()
	for !ready(addr) {
		select {
		case err := <-s.exited:
			return nil, fmt.Errorf("idevald exited before ready: %v\n%s", err, s.stderr.Bytes())
		default:
		}
		if time.Since(start) > 120*time.Second {
			_ = s.cmd.Process.Kill()
			<-s.exited
			return nil, fmt.Errorf("idevald not ready after 120s\n%s", s.stderr.Bytes())
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.setup = time.Since(start)
	return s, nil
}

// ready reports whether GET /readyz answers 200, over a throwaway
// connection so a refused dial costs microseconds.
func ready(addr string) bool {
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return false
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Write([]byte("GET /readyz HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")); err != nil {
		return false
	}
	line, err := bufio.NewReader(c).ReadString('\n')
	return err == nil && strings.Contains(line, " 200 ")
}

// stop drains the server with SIGTERM and waits for it — and so for the
// shard children it supervises — to exit.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.exited:
		// idevald installs its SIGTERM handler just after it starts
		// listening, so a stop right after /readyz can catch it without
		// one; dying of the SIGTERM we sent is a clean stop too.
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		if err != nil {
			return fmt.Errorf("idevald exit: %v\n%s", err, s.stderr.Bytes())
		}
		return nil
	case <-time.After(40 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("idevald did not drain within 40s; killed")
	}
}

// stats scrapes the server's /metrics JSON.
func (s *server) stats() (*serve.Stats, error) {
	return serve.FetchStats(&http.Client{Timeout: 10 * time.Second}, "http://"+s.addr)
}

// restarts reads /readyz and sums generations beyond the first over the
// supervised shard children; 0 for an in-process server.
func (s *server) restarts() (int, error) {
	resp, err := (&http.Client{Timeout: 10 * time.Second}).Get("http://" + s.addr + "/readyz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var body struct {
		Shards []router.ReplicaHealth `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, fmt.Errorf("decode /readyz: %w", err)
	}
	n := 0
	for _, r := range body.Shards {
		if r.Generation > 1 {
			n += r.Generation - 1
		}
	}
	return n, nil
}

// tree returns the server's pid and its direct children (the router's
// shard processes), by scanning /proc for the parent pid.
func (s *server) tree() []int {
	return append([]int{s.cmd.Process.Pid}, childrenOf(s.cmd.Process.Pid)...)
}

func childrenOf(pid int) []int {
	var out []int
	ents, _ := os.ReadDir("/proc") // absent /proc reads as no children
	for _, e := range ents {
		p, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if f := statFields(p); len(f) > 1 && f[1] == strconv.Itoa(pid) {
			out = append(out, p)
		}
	}
	return out
}

// statFields returns /proc/<pid>/stat split after the parenthesised
// command name: [0] is the state, [1] the parent pid, [11] utime, [12]
// stime.
func statFields(pid int) []string {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return nil
	}
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return nil
	}
	return strings.Fields(string(b[i+1:]))
}

// clockTick is USER_HZ, which Linux fixes at 100 for every architecture Go
// runs on.
const clockTick = 10 * time.Millisecond

// cpuTime sums utime+stime over pids.
func cpuTime(pids []int) time.Duration {
	var ticks int64
	for _, p := range pids {
		if f := statFields(p); len(f) > 12 {
			u, _ := strconv.ParseInt(f[11], 10, 64)
			k, _ := strconv.ParseInt(f[12], 10, 64)
			ticks += u + k
		}
	}
	return time.Duration(ticks) * clockTick
}

// peakRSSMB sums VmHWM over pids, in MB.
func peakRSSMB(pids []int) float64 {
	var kb int64
	for _, p := range pids {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				v, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
				kb += v
			}
		}
	}
	return float64(kb) / 1024
}

// selfCPU is this process's own user+system time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
