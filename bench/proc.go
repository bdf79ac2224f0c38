package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// provenance says where a result was taken; every result and span file
// carries it, because a throughput from a 1-CPU host and one from a
// 2-CPU host are not comparable.
type provenance struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	// Network says what the fleet round trips crossed.
	Network string `json:"network"`
}

func hostProvenance() provenance {
	return provenance{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Network:    "loopback",
	}
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
// Where /proc is missing it falls back to getrusage's maxrss (see
// rusage_unix.go).
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) >= 1 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	return maxRSSMB()
}

// procSnapshot is the process-level state a window's cost is the
// difference of.
type procSnapshot struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcPause uint64
}

func takeProcSnapshot() procSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnapshot{
		at:      time.Now(),
		cpu:     processCPU(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcPause: ms.PauseTotalNs,
	}
}

// procCost turns two snapshots and the decisions made between them
// into the proc.* metrics.
func procCost(m metricSet, a, b procSnapshot, decisions int64) {
	wall := b.at.Sub(a.at)
	cpu := b.cpu - a.cpu
	if wall > 0 {
		m["proc.cpu_util"] = float64(cpu) / (float64(wall) * float64(runtime.NumCPU()))
	}
	m["proc.gc_pause_ms_total"] = float64(b.gcPause-a.gcPause) / 1e6
	if decisions > 0 {
		d := float64(decisions)
		m["proc.cpu_us_per_decision"] = float64(cpu) / 1e3 / d
		m["proc.allocs_per_decision"] = float64(b.mallocs-a.mallocs) / d
		m["proc.alloc_bytes_per_decision"] = float64(b.bytes-a.bytes) / d
	}
}
