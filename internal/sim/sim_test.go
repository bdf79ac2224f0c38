package sim

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

func TestRunBasic(t *testing.T) {
	m := topology.NewMesh(6, 6)
	res, err := Run(Config{
		Graph:         m,
		Algorithm:     routing.NewNARA(m),
		Rate:          0.1,
		Length:        8,
		Seed:          1,
		WarmupCycles:  300,
		MeasureCycles: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if res.Stats.Dropped != 0 {
		t.Fatalf("fault-free run dropped %d", res.Stats.Dropped)
	}
	if !res.Drained {
		t.Fatal("low-load run must drain")
	}
	if res.Stats.DeadlockSuspected {
		t.Fatal("deadlock suspected")
	}
	if res.Throughput() <= 0 {
		t.Fatal("throughput should be positive")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config should error")
	}
	m := topology.NewMesh(4, 4)
	if _, err := Run(Config{Graph: m, Algorithm: routing.NewXY(m), Rate: 99}); err == nil {
		t.Fatal("absurd rate should error")
	}
}

func TestRunWithFaultsExcludesDisabled(t *testing.T) {
	m := topology.NewMesh(8, 8)
	f, err := fault.LShape(m, 3, 3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	alg := routing.NewNAFTA(m)
	res, err := Run(Config{
		Graph:         m,
		Algorithm:     alg,
		Rate:          0.08,
		Length:        6,
		Seed:          2,
		Faults:        f,
		WarmupCycles:  300,
		MeasureCycles: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// Generated traffic avoids faulty and deactivated nodes; NAFTA
	// must deliver essentially everything.
	total := res.Stats.Delivered + res.Stats.Dropped
	if float64(res.Stats.Delivered) < 0.99*float64(total) {
		t.Fatalf("delivered %d of %d", res.Stats.Delivered, total)
	}
}

func TestLoadSweepLatencyMonotone(t *testing.T) {
	m := topology.NewMesh(6, 6)
	cfg := Config{
		Graph:         m,
		Algorithm:     routing.NewNARA(m),
		Length:        8,
		Seed:          3,
		WarmupCycles:  300,
		MeasureCycles: 1200,
		Pattern:       traffic.Uniform{Nodes: m.Nodes()},
	}
	results, err := LoadSweep(cfg, []float64{0.02, 0.30})
	if err != nil {
		t.Fatal(err)
	}
	lo := results[0].Stats.AvgNetLatency()
	hi := results[1].Stats.AvgNetLatency()
	if hi <= lo {
		t.Fatalf("latency should rise with load: %.1f -> %.1f", lo, hi)
	}
	if sat := SaturationThroughput(results); sat <= 0 {
		t.Fatalf("saturation throughput %f", sat)
	}
}

func TestAdaptiveBeatsObliviousOnTranspose(t *testing.T) {
	// The motivating comparison: on the adversarial transpose pattern
	// the fully adaptive NARA sustains more throughput than
	// dimension-order XY at high load.
	m := topology.NewMesh(8, 8)
	high := 0.5
	runFor := func(alg routing.Algorithm) float64 {
		res, err := Run(Config{
			Graph:         m,
			Algorithm:     alg,
			Pattern:       traffic.Transpose{Mesh: m},
			Rate:          high,
			Length:        8,
			Seed:          4,
			WarmupCycles:  500,
			MeasureCycles: 2500,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput()
	}
	xy := runFor(routing.NewXY(m))
	nara := runFor(routing.NewNARA(m))
	if nara <= xy {
		t.Fatalf("adaptive should beat oblivious on transpose: nara=%.4f xy=%.4f", nara, xy)
	}
}

func TestTrackLatenciesPercentiles(t *testing.T) {
	m := topology.NewMesh(6, 6)
	res, err := Run(Config{
		Graph:          m,
		Algorithm:      routing.NewNARA(m),
		Rate:           0.1,
		Length:         6,
		Seed:           8,
		WarmupCycles:   300,
		MeasureCycles:  1500,
		TrackLatencies: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyP50 <= 0 || res.LatencyP95 < res.LatencyP50 || res.LatencyP99 < res.LatencyP95 {
		t.Fatalf("percentiles inconsistent: p50=%v p95=%v p99=%v",
			res.LatencyP50, res.LatencyP95, res.LatencyP99)
	}
	// The mean must lie between p50-ish and p99.
	if res.Stats.AvgNetLatency() > res.LatencyP99 {
		t.Fatalf("mean %v above p99 %v", res.Stats.AvgNetLatency(), res.LatencyP99)
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	m := topology.NewMesh(6, 6)
	mkJob := func(rate float64) Job {
		return Job{
			Label: "r",
			Make: func() Config {
				return Config{
					Graph: m, Algorithm: routing.NewNARA(m),
					Rate: rate, Length: 6, Seed: 4,
					WarmupCycles: 200, MeasureCycles: 800,
				}
			},
		}
	}
	rates := []float64{0.05, 0.1, 0.15, 0.2}
	jobs := make([]Job, len(rates))
	for i, r := range rates {
		jobs[i] = mkJob(r)
	}
	par := RunParallel(jobs, 4)
	for i, r := range rates {
		seq, err := Run(mkJob(r).Make())
		if err != nil {
			t.Fatal(err)
		}
		if par[i].Err != nil {
			t.Fatal(par[i].Err)
		}
		if par[i].Result.Stats.Delivered != seq.Stats.Delivered ||
			par[i].Result.Stats.LatencySum != seq.Stats.LatencySum {
			t.Fatalf("rate %v: parallel result diverges from sequential", r)
		}
	}
}

func TestRunParallelPanicRecovery(t *testing.T) {
	jobs := []Job{{
		Label: "boom",
		Make:  func() Config { panic("constructor exploded") },
	}}
	out := RunParallel(jobs, 2)
	if out[0].Err == nil {
		t.Fatal("panic should surface as an error")
	}
}

func TestFaultScheduleMidRun(t *testing.T) {
	m := topology.NewMesh(8, 8)
	sched := fault.NewSchedule(nil)
	sched.AddNodeFault(600, m.Node(4, 4))
	sched.AddLinkFault(900, m.Node(2, 2), m.Node(2, 3))
	res, err := Run(Config{
		Graph:         m,
		Algorithm:     routing.NewNAFTA(m),
		Rate:          0.08,
		Length:        6,
		Seed:          21,
		FaultSchedule: sched,
		WarmupCycles:  400,
		MeasureCycles: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Some in-flight messages are killed by the two fault events, but
	// routing keeps delivering afterwards.
	if res.Stats.Killed == 0 {
		t.Fatal("mid-run faults should kill some crossing worms")
	}
	if res.Stats.DeadlockSuspected {
		t.Fatal("deadlock suspected")
	}
	total := res.Stats.Delivered + res.Stats.Dropped
	if total == 0 || float64(res.Stats.Delivered) < 0.98*float64(total) {
		t.Fatalf("delivery collapsed after scheduled faults: %d of %d", res.Stats.Delivered, total)
	}
	if !sched.Pending() {
		t.Fatal("caller's schedule must stay reusable (Run drains a clone)")
	}
}

// TestFaultScheduleReusable is the regression test for the silent
// no-replay bug: sim.Run used to advance the caller's schedule cursor,
// so a second run of the same Config saw zero fault events and
// produced different (fault-free) statistics. Run now drains a Clone.
func TestFaultScheduleReusable(t *testing.T) {
	m := topology.NewMesh(8, 8)
	sched := fault.NewSchedule(nil)
	sched.AddNodeFault(500, m.Node(3, 3))
	sched.AddLinkFault(800, m.Node(5, 5), m.Node(5, 6))
	mk := func() Config {
		return Config{
			Graph:         m,
			Algorithm:     routing.NewNAFTA(m),
			Rate:          0.08,
			Length:        6,
			Seed:          14,
			FaultSchedule: sched,
			WarmupCycles:  300,
			MeasureCycles: 1500,
		}
	}
	first, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Killed == 0 {
		t.Fatal("scheduled faults should kill some crossing worms")
	}
	second, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats != second.Stats {
		t.Fatalf("schedule reuse diverged:\n first=%+v\nsecond=%+v", first.Stats, second.Stats)
	}
	if sched.Pending() != true || sched.Len() != 2 {
		t.Fatalf("caller's schedule mutated: pending=%v len=%d", sched.Pending(), sched.Len())
	}
	// The same shared schedule must also be safe across concurrent
	// Replicate jobs (exercised under -race in CI).
	rep, err := Replicate(func(seed int64) Config {
		c := mk()
		c.Seed = seed
		return c
	}, []int64{1, 2, 3, 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Latency.N() != 4 {
		t.Fatalf("replications = %d", rep.Latency.N())
	}
}

func TestReplicate(t *testing.T) {
	m := topology.NewMesh(6, 6)
	// The constructor runs once per seed on the worker goroutine; a
	// fresh Algorithm per call is what keeps the parallel sweep
	// race-free (algorithm instances carry mutable fault state).
	mk := func(seed int64) Config {
		return Config{
			Graph: m, Algorithm: routing.NewXY(m),
			Rate: 0.08, Length: 6,
			WarmupCycles: 200, MeasureCycles: 800,
		}
	}
	rep, err := Replicate(mk, []int64{1, 2, 3, 4, 5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Latency.N() != 5 {
		t.Fatalf("replications = %d", rep.Latency.N())
	}
	if rep.Latency.Mean() <= 0 || rep.Throughput.Mean() <= 0 {
		t.Fatal("aggregates should be positive")
	}
	if rep.Delivered.Min() < 0.99 {
		t.Fatalf("fault-free delivery min %v", rep.Delivered.Min())
	}
	// Different seeds give (slightly) different latencies.
	if rep.Latency.Min() == rep.Latency.Max() {
		t.Fatal("seeds should differ")
	}
}

func TestRunWithRecorder(t *testing.T) {
	m := topology.NewMesh(4, 4)
	base := Config{
		Graph: m, Algorithm: routing.NewNARA(m),
		Rate: 0.1, Length: 6, Seed: 7,
		WarmupCycles: 100, MeasureCycles: 500,
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	traced := base
	rec := trace.New(m.Nodes(), 128)
	traced.Recorder = rec
	res, err := Run(traced)
	if err != nil {
		t.Fatal(err)
	}
	// The recorder is observation only: identical statistics.
	if res.Stats != plain.Stats {
		t.Fatalf("traced run diverged: %+v vs %+v", res.Stats, plain.Stats)
	}
	evs := rec.Events()
	if len(evs) == 0 {
		t.Fatal("recorder saw no events")
	}
	var injected, delivered bool
	for _, e := range evs {
		switch e.Kind {
		case trace.KFlitInjected:
			injected = true
		case trace.KFlitDelivered:
			delivered = true
		}
	}
	if !injected || !delivered {
		t.Fatalf("missing lifecycle events: injected=%v delivered=%v", injected, delivered)
	}
	if res.PostMortem != nil {
		t.Fatal("healthy run produced a post-mortem")
	}
}

// TestRunParallelPerJobRecorders is the parallel-safety check for the
// one-recorder-per-job rule: every job builds its own recorder inside
// Make, and under -race this must be clean.
func TestRunParallelPerJobRecorders(t *testing.T) {
	m := topology.NewMesh(5, 5)
	const njobs = 6
	recs := make([]*trace.Recorder, njobs)
	var mu sync.Mutex
	jobs := make([]Job, njobs)
	for i := range jobs {
		i := i
		jobs[i] = Job{
			Label: fmt.Sprintf("job%d", i),
			Make: func() Config {
				rec := trace.New(m.Nodes(), 64)
				mu.Lock()
				recs[i] = rec
				mu.Unlock()
				return Config{
					Graph: m, Algorithm: routing.NewNARA(m),
					Rate: 0.08, Length: 6, Seed: int64(i + 1),
					WarmupCycles: 100, MeasureCycles: 400,
					Recorder: rec,
				}
			},
		}
	}
	out := RunParallel(jobs, 4)
	for i, jr := range out {
		if jr.Err != nil {
			t.Fatalf("job %d: %v", i, jr.Err)
		}
		if recs[i] == nil || len(recs[i].Events()) == 0 {
			t.Fatalf("job %d recorder saw no events", i)
		}
	}
}
