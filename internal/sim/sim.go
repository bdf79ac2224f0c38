// Package sim is the experiment harness: it wires topology, routing
// algorithm, fault pattern and synthetic traffic into a warm-up /
// measurement / drain protocol and reports steady-state statistics.
// The benchmark suite and cmd/tables use it to regenerate the paper's
// quantitative results.
package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Config describes one simulation run.
type Config struct {
	Graph     topology.Graph
	Algorithm routing.Algorithm
	Selector  routing.Selector

	VCs                   int
	BufDepth              int
	DecisionCyclesPerStep int

	Pattern traffic.Pattern
	// Rate is the offered load in flits per node per cycle.
	Rate   float64
	Length int
	Seed   int64

	// Faults, when non-nil, is applied before the warm-up (the
	// diagnosis runs to a fixpoint first, per assumption iv).
	Faults *fault.Set
	// FaultSchedule, when non-nil, injects additional timed faults
	// while the simulation runs (times are cycles from simulation
	// start); each event triggers the fault surgery and a fresh
	// diagnosis phase. Run drains a Clone (and applies the events to a
	// Clone of Faults), so the caller's schedule and fault set are
	// never mutated: the same Config can be run repeatedly or shared
	// across Replicate jobs without a silent no-replay on reuse.
	FaultSchedule *fault.Schedule

	WarmupCycles  int64
	MeasureCycles int64
	// DrainCycles bounds the post-measurement drain (no injection).
	DrainCycles int64

	// TrackLatencies retains per-message records and fills the
	// latency percentiles of the Result (costs memory on long runs).
	TrackLatencies bool
	// FavorMarked forwards the network option that prioritises
	// fault-detoured messages in switch allocation.
	FavorMarked bool

	// Recorder, when non-nil, attaches a flight recorder to the run's
	// network (see internal/trace). Recorders are single-run and
	// unsynchronised: parallel sweeps must build one per job inside
	// Job.Make, exactly as they already build one Algorithm per job.
	// The caller owns Recorder.Close (which finalises the sink).
	Recorder *trace.Recorder
	// LivelockAgeCycles forwards the network's livelock age bound:
	// when > 0, a packet in flight for longer triggers the automatic
	// post-mortem in Result.PostMortem.
	LivelockAgeCycles int64

	// OnNetwork, when non-nil, is invoked once with the freshly built
	// network, after the initial faults are applied and before the
	// first cycle. The campaign harness keeps the handle to run its
	// post-run oracle checks (invariants, flit conservation, message
	// audits) on the final network state.
	OnNetwork func(*network.Network)

	// Failover forwards network.Config.Failover: a decision plane that
	// resolves fault events by flipping precompiled backup engines in
	// (or running the live recompute itself for uncovered classes). It
	// is attached before the initial faults are applied, so a covered
	// initial fault set flips at cycle 0.
	Failover network.FaultHandler

	// Reconfigs, when non-empty, hot-swaps the decision engine
	// mid-run: at each event's cycle (from simulation start, warm-up
	// included) the engine built by Make replaces the running one via
	// network.Reconfigure. The events are applied in time order; Run
	// copies the slice, so a shared Config stays reusable. The
	// Algorithm must be a reconfig.Swapper; network.Reconfigure refuses
	// any other engine.
	Reconfigs []Reconfig
}

// Reconfig is one scheduled engine hot-swap.
type Reconfig struct {
	// At is the cycle (from simulation start) the swap fires at.
	At int64
	// Make builds the replacement engine; it runs at swap time so the
	// engine's internal state is fresh.
	Make func() (routing.Algorithm, error)
	// Force drains the network first when the deadlock regimes of the
	// old and new engines are incompatible.
	Force bool
}

func (c *Config) defaults() {
	if c.Length == 0 {
		c.Length = 8
	}
	if c.WarmupCycles == 0 {
		c.WarmupCycles = 1000
	}
	if c.MeasureCycles == 0 {
		c.MeasureCycles = 4000
	}
	if c.DrainCycles == 0 {
		c.DrainCycles = 50000
	}
	if c.Pattern == nil {
		c.Pattern = traffic.Uniform{Nodes: c.Graph.Nodes()}
	}
}

// Result holds the measurement-window statistics of one run.
type Result struct {
	// Stats is the delta of the measurement window (plus drain for
	// delivery accounting).
	Stats network.Stats
	// OfferedRate echoes the configured load.
	OfferedRate float64
	// OfferedMessages counts messages the generator produced during
	// the measurement window.
	OfferedMessages int64
	// QueueGrowth is the increase of backlogged messages across the
	// measurement window — positive sustained growth means the
	// network is saturated at this load.
	QueueGrowth int
	// Drained reports whether the network emptied during the drain
	// phase.
	Drained bool
	// Nodes echoes the topology size (for throughput normalisation).
	Nodes int
	// LatencyP50/P95/P99 are network-latency percentiles of messages
	// delivered during the measurement window (only when
	// Config.TrackLatencies is set).
	LatencyP50, LatencyP95, LatencyP99 float64
	// PostMortem holds the automatic stall report when the run's
	// network detected a deadlock or livelock (nil otherwise).
	PostMortem *trace.Report
}

// Throughput returns accepted flits per node per cycle during the
// measurement window.
func (r *Result) Throughput() float64 {
	if r.Stats.Cycles == 0 {
		return 0
	}
	return float64(r.Stats.FlitsDelivered) / float64(r.Stats.Cycles) / float64(r.Nodes)
}

// Run executes one simulation according to cfg.
func Run(cfg Config) (Result, error) {
	if cfg.Graph == nil || cfg.Algorithm == nil {
		return Result{}, fmt.Errorf("sim: Config needs Graph and Algorithm")
	}
	cfg.defaults()
	var postMortem *trace.Report
	net := network.New(network.Config{
		Graph:                 cfg.Graph,
		Algorithm:             cfg.Algorithm,
		Selector:              cfg.Selector,
		VCs:                   cfg.VCs,
		BufDepth:              cfg.BufDepth,
		DecisionCyclesPerStep: cfg.DecisionCyclesPerStep,
		RecordMessages:        cfg.TrackLatencies,
		FavorMarked:           cfg.FavorMarked,
		Recorder:              cfg.Recorder,
		LivelockAgeCycles:     cfg.LivelockAgeCycles,
		Failover:              cfg.Failover,
		OnPostMortem:          func(r *trace.Report) { postMortem = r },
	})
	f := cfg.Faults
	if f == nil {
		f = fault.NewSet()
	}
	sched := cfg.FaultSchedule
	if sched != nil {
		// The schedule cursor and the fault set it mutates are private
		// to this run: a shared Config stays reusable (and two
		// concurrent Replicate jobs do not race on the cursor).
		sched = sched.Clone()
		f = f.Clone()
	}
	net.ApplyFaults(f)
	if cfg.OnNetwork != nil {
		cfg.OnNetwork(net)
	}

	// The generator skips faulty and deactivated nodes (assumption iii);
	// asked per message, the answer is read live and so follows every
	// fault event and engine swap.
	gen := &traffic.Generator{
		Graph:   cfg.Graph,
		Pattern: cfg.Pattern,
		Rate:    cfg.Rate,
		Length:  cfg.Length,
		Rng:     rand.New(rand.NewSource(cfg.Seed)),
		Exclude: func(n topology.NodeID) bool {
			blocks := cfg.Algorithm.Blocks()
			return f.NodeFaulty(n) || (blocks != nil && blocks.DisabledNode(n))
		},
	}
	if err := gen.Validate(); err != nil {
		return Result{}, err
	}

	reconfigs := append([]Reconfig(nil), cfg.Reconfigs...)
	sort.Slice(reconfigs, func(i, j int) bool { return reconfigs[i].At < reconfigs[j].At })
	// run steps cycles: due fault events and swaps, then injections.
	run := func(cycles int64) error {
		for i := int64(0); i < cycles; i++ {
			if sched != nil && len(sched.ApplyUpTo(net.Now(), f)) > 0 {
				net.ApplyFaults(f)
			}
			for len(reconfigs) > 0 && reconfigs[0].At <= net.Now() {
				rc := reconfigs[0]
				reconfigs = reconfigs[1:]
				next, err := rc.Make()
				if err == nil {
					err = net.Reconfigure(next, rc.Force)
				}
				if err != nil {
					return fmt.Errorf("sim: reconfig at cycle %d: %w", rc.At, err)
				}
			}
			gen.Tick(net)
			net.Step()
		}
		return nil
	}
	if err := run(cfg.WarmupCycles); err != nil {
		return Result{}, err
	}
	before := net.Stats()
	offeredBefore := gen.Offered
	queueBefore := net.Queued() + net.InFlight()
	if err := run(cfg.MeasureCycles); err != nil {
		return Result{}, err
	}
	queueAfter := net.Queued() + net.InFlight()
	// Snapshot BEFORE draining: the measurement window must only count
	// what the network accepted during it, otherwise drain-time
	// deliveries inflate the throughput.
	after := net.Stats()
	drained := net.Drain(cfg.DrainCycles)
	final := net.Stats()

	res := Result{
		OfferedRate:     cfg.Rate,
		OfferedMessages: gen.Offered - offeredBefore,
		QueueGrowth:     queueAfter - queueBefore,
		Drained:         drained,
		Nodes:           cfg.Graph.Nodes(),
		PostMortem:      postMortem,
	}
	if cfg.TrackLatencies {
		windowStart := cfg.WarmupCycles
		windowEnd := cfg.WarmupCycles + cfg.MeasureCycles
		var lats []float64
		for _, m := range net.Messages {
			if m.State != network.StateDelivered || m.DoneTime < windowStart || m.DoneTime >= windowEnd {
				continue
			}
			lats = append(lats, float64(m.NetworkLatency()))
		}
		sort.Float64s(lats)
		res.LatencyP50 = metrics.Quantile(lats, 0.50)
		res.LatencyP95 = metrics.Quantile(lats, 0.95)
		res.LatencyP99 = metrics.Quantile(lats, 0.99)
	}
	res.Stats = network.Stats{
		Cycles:            cfg.MeasureCycles,
		Injected:          after.Injected - before.Injected,
		Delivered:         after.Delivered - before.Delivered,
		Dropped:           after.Dropped - before.Dropped,
		Unreachable:       after.Unreachable - before.Unreachable,
		Killed:            after.Killed - before.Killed,
		FlitsDelivered:    after.FlitsDelivered - before.FlitsDelivered,
		HopsSum:           after.HopsSum - before.HopsSum,
		StepsSum:          after.StepsSum - before.StepsSum,
		MisroutesSum:      after.MisroutesSum - before.MisroutesSum,
		MarkedCount:       after.MarkedCount - before.MarkedCount,
		LatencySum:        after.LatencySum - before.LatencySum,
		NetLatencySum:     after.NetLatencySum - before.NetLatencySum,
		MaxLatency:        after.MaxLatency,
		DeadlockSuspected: final.DeadlockSuspected,
	}
	return res, nil
}

// LoadSweep runs cfg at each offered load and returns the per-load
// results (the latency-vs-load curves of experiment E7).
func LoadSweep(cfg Config, rates []float64) ([]Result, error) {
	out := make([]Result, 0, len(rates))
	for _, r := range rates {
		c := cfg
		c.Rate = r
		res, err := Run(c)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// SaturationThroughput returns the highest measured throughput across
// a load sweep (flits/node/cycle).
func SaturationThroughput(results []Result) float64 {
	best := 0.0
	for i := range results {
		if t := results[i].Throughput(); t > best {
			best = t
		}
	}
	return best
}
