//go:build !linux

package main

import "time"

// sleepUntil falls back to time.Sleep where the Linux timer calls are
// missing; the lateness metrics say how well that paced.
func sleepUntil(due time.Time) { time.Sleep(time.Until(due)) }
