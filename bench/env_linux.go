package main

import (
	"syscall"
	"time"
)

// hostLoad reports the host's physical memory and its 1/5/15-minute load
// averages. It asks the kernel directly, so the benchmark reads no file
// outside its checkout.
func hostLoad() (memTotal uint64, load [3]float64, ok bool) {
	var si syscall.Sysinfo_t
	if syscall.Sysinfo(&si) != nil {
		return 0, load, false
	}
	for i := range load {
		load[i] = float64(si.Loads[i]) / (1 << 16) // SI_LOAD_SHIFT fixed point
	}
	return uint64(si.Totalram) * uint64(si.Unit), load, true
}

// cpuTime is the CPU time (user plus system) the process has used. Time
// the hypervisor steals from the VM is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sleepUntil blocks until t. The runtime's timers round sub-millisecond
// waits up to a whole millisecond on Linux, which would add up to 1 ms of
// generator lag to every open-loop query at 1000 qps; nanosleep(2) wakes
// within tens of microseconds instead.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
