//go:build !unix

package main

import "time"

// Without getrusage the proc.* CPU metrics and the fallback for
// peak_rss_mb read 0.
func processCPU() time.Duration { return 0 }

func maxRSSMB() float64 { return 0 }
