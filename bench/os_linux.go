package main

import (
	"fmt"
	"os/exec"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// kernelSleep blocks the calling thread for d in the kernel, which wakes
// within tens of microseconds; time.Sleep can overshoot by a millisecond
// here, more than a small frame takes to decode.
func kernelSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep ends early; sleepUntil spins the rest
}

// cpuSet is the kernel's cpu_set_t: one bit per processor, 1024 of them.
type cpuSet [16]uint64

// runPinned runs cmd with every thread of the new process confined to the
// i-th processor this process may use (counting round). The calling
// goroutine's thread narrows its own affinity for the fork, which the
// child inherits; the thread is then discarded, since the goroutine exits
// still locked to it.
func runPinned(cmd *exec.Cmd, i int) error {
	errc := make(chan error, 1)
	go func() {
		runtime.LockOSThread()
		var allowed cpuSet
		if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
			errc <- fmt.Errorf("reading processor affinity: %w", e)
			return
		}
		var cpus []int
		for c := range len(allowed) * 64 {
			if allowed[c/64]&(1<<(c%64)) != 0 {
				cpus = append(cpus, c)
			}
		}
		if len(cpus) == 0 {
			errc <- fmt.Errorf("no processor in this process's affinity set")
			return
		}
		c := cpus[i%len(cpus)]
		var one cpuSet
		one[c/64] = 1 << (c % 64)
		if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 {
			errc <- fmt.Errorf("pinning to processor %d: %w", c, e)
			return
		}
		errc <- cmd.Run()
	}()
	return <-errc
}
