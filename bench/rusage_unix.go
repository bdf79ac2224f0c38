//go:build unix

package main

import (
	"syscall"
	"time"
)

// processCPU is the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is getrusage's resident-set high-water mark, which Linux
// counts in kilobytes.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
