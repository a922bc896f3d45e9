package main

import (
	"fmt"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// The server (with any shard children it spawns) and the two session
// threads all run on one CPU. On the 2-vCPU VM this was built on, waking a
// thread on the other vCPU costs ~70 µs against ~10 µs on the same one, two
// threads computing at once run anywhere between 1× and 2× as fast as one,
// and which of these a run gets depends on where the guest and the host
// last put the threads — a state that lasts tens of seconds and moved brush
// p50 by 45% and parallel-SQL p50 by 60% between runs of the same code.
// One CPU has no such states: what is left is the work on the path.
// The server therefore sees one CPU and runs with GOMAXPROCS 1.

// cpuMask is a sched_setaffinity(2) mask of 8192 CPUs, the size the Go
// runtime asks the kernel for.
type cpuMask [128]uint64

// lastCPU returns the highest-numbered CPU this process may run on: the
// one furthest from CPU 0, where a guest's interrupts and housekeeping land.
func lastCPU() (int, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", e)
	}
	for cpu := len(m)*64 - 1; cpu >= 0; cpu-- {
		if m[cpu/64]&(1<<(cpu%64)) != 0 {
			return cpu, nil
		}
	}
	return 0, fmt.Errorf("sched_getaffinity: empty mask")
}

// pinThread confines the calling OS thread to cpu. The caller has locked
// its goroutine to the thread.
func pinThread(cpu int) error {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return fmt.Errorf("sched_setaffinity(cpu %d): %w", cpu, e)
	}
	return nil
}

// startOn starts cmd from a thread pinned to cpu, so the child — and every
// process it starts — inherits the affinity. The thread is never unlocked
// and ends with the goroutine.
func startOn(cpu int, cmd *exec.Cmd) error {
	errc := make(chan error, 1)
	go func() {
		runtime.LockOSThread()
		if err := pinThread(cpu); err != nil {
			errc <- err
			return
		}
		errc <- cmd.Start()
	}()
	return <-errc
}
