//go:build !linux

package main

import "time"

// hostLoad is unavailable off Linux; the env block then omits it.
func hostLoad() (memTotal uint64, load [3]float64, ok bool) { return 0, load, false }

// cpuTime falls back to wall time since start off Linux.
func cpuTime() time.Duration { return time.Since(clockBase) }

// sleepUntil blocks until t (with the runtime timer's granularity).
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
