package sim

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/metrics"
)

// Job is one simulation of a parallel sweep. Make must build a fresh
// Config — in particular a fresh Algorithm instance — because
// algorithm instances hold mutable distributed fault state and must
// not be shared between concurrently running networks. The same rule
// applies to Config.Recorder: a flight recorder is unsynchronised, so
// Make must create one per job (never share a recorder across jobs).
type Job struct {
	Label string
	Make  func() Config
}

// JobResult pairs a job label with its result or error.
type JobResult struct {
	Label  string
	Result Result
	Err    error
}

// RunParallel executes the jobs on a bounded worker pool and returns
// the results in job order. workers <= 0 selects GOMAXPROCS. Each
// simulation is deterministic given its seed, so the parallel sweep
// produces exactly the same numbers as a sequential one.
func RunParallel(jobs []Job, workers int) []JobResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	out := make([]JobResult, len(jobs))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				out[i].Label = jobs[i].Label
				func() {
					defer func() {
						if r := recover(); r != nil {
							out[i].Err = fmt.Errorf("sim: job %q panicked: %v", jobs[i].Label, r)
						}
					}()
					out[i].Result, out[i].Err = Run(jobs[i].Make())
				}()
			}
		}()
	}
	for i := range jobs {
		work <- i
	}
	close(work)
	wg.Wait()
	return out
}

// Replication aggregates one configuration over several seeds.
type Replication struct {
	Seeds      []int64
	Latency    metrics.Accumulator
	Throughput metrics.Accumulator
	Delivered  metrics.Accumulator // delivery ratio per seed
}

// Replicate runs one configuration per seed (in parallel) and
// aggregates the headline metrics; experiment sweeps use it to report
// means with spread instead of single-seed values. make is called once
// per seed from the worker goroutine and — like Job.Make — must return
// a Config with a fresh Algorithm (and Recorder, if any): sharing one
// instance across concurrent runs races on its fault state.
func Replicate(mk func(seed int64) Config, seeds []int64, workers int) (*Replication, error) {
	jobs := make([]Job, len(seeds))
	for i, seed := range seeds {
		seed := seed
		jobs[i] = Job{Label: fmt.Sprintf("seed%d", seed), Make: func() Config {
			c := mk(seed)
			c.Seed = seed
			return c
		}}
	}
	out := RunParallel(jobs, workers)
	rep := &Replication{Seeds: seeds}
	for _, jr := range out {
		if jr.Err != nil {
			return nil, jr.Err
		}
		rep.Latency.Add(jr.Result.Stats.AvgNetLatency())
		rep.Throughput.Add(jr.Result.Throughput())
		rep.Delivered.Add(jr.Result.Stats.DeliveredRatio())
	}
	return rep, nil
}
